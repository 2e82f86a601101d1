// Host data path: the library running as a software classifier on a
// general-purpose machine rather than on the NP model. Raw 64-byte
// Ethernet/IPv4 frames are parsed back to 5-tuples, classified through a
// flow cache by a pool of goroutines with packet ordering preserved, and
// the policy is updated mid-stream without dropping or reordering a single
// packet.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	policy, err := repro.StandardRuleSet("FW01")
	if err != nil {
		log.Fatal(err)
	}

	// Dynamic policy: generations swap atomically under the engine.
	mgr, err := repro.NewUpdateManager(policy, func(rs *repro.RuleSet) (repro.Classifier, error) {
		return repro.NewExpCuts(rs, repro.ExpCutsConfig{})
	})
	if err != nil {
		log.Fatal(err)
	}

	// The wire: flow-structured traffic (a Zipf draw over 2000 distinct
	// flows — packets repeat within flows, which is what makes the flow
	// cache pay off) rendered to raw frames, as the Rx ring would deliver
	// them.
	flowSet, err := repro.GenerateTrace(policy, 2000, 11, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(flowSet.Len()-1))
	frames := make([][]byte, 40000)
	for i := range frames {
		frames[i] = repro.BuildFrame(flowSet.Headers[zipf.Uint64()])
	}

	// Rx: parse frames back to headers (checksums verified).
	headers := make([]repro.Header, len(frames))
	for i, f := range frames {
		h, err := repro.ParseFrame(f)
		if err != nil {
			log.Fatalf("frame %d: %v", i, err)
		}
		headers[i] = h
	}

	// Classify the first half, hot-update the policy, classify the rest,
	// all through one flow cache: it follows the manager's generations, so
	// the update stales what it cached under the old policy.
	// The engine preserves arrival order across its shard goroutines.
	cache, err := repro.NewFlowCache(mgr, 1024)
	if err != nil {
		log.Fatal(err)
	}
	classify := func(hs []repro.Header) (permits, denies, noMatch int) {
		var lastSeq uint64
		first := true
		// Shards must stay 1 here: the hand-built flow cache is a single
		// mutable structure, and the engine's shard loops would otherwise
		// call it concurrently (Shards defaults to GOMAXPROCS). Sharded
		// setups let the engine own per-shard caches via FlowCacheFlows.
		_, err := repro.RunEngine(cache, repro.EngineConfig{Shards: 1, PreserveOrder: true}, hs,
			func(r repro.EngineResult) {
				if !first && r.Seq != lastSeq+1 {
					log.Fatalf("packet reordered: %d after %d", r.Seq, lastSeq)
				}
				first = false
				lastSeq = r.Seq
				snap, _ := mgr.Snapshot()
				switch {
				case r.Match < 0:
					noMatch++
				case snap[r.Match].Action == repro.ActionDeny:
					denies++
				default:
					permits++
				}
			})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cache hit rate so far %.1f%%\n", cache.HitRate()*100)
		return
	}

	fmt.Printf("policy %s generation %d (%d rules)\n", policy.Name, mgr.Generation(), policy.Len())
	fmt.Println("first half:")
	p1, d1, n1 := classify(headers[:len(headers)/2])
	fmt.Printf("  permits %d  denies %d  no-match %d\n", p1, d1, n1)

	// Hot update: block a prolific source prefix at top priority.
	block := repro.Rule{
		SrcIP:   repro.Prefix{Addr: 0, Len: 1}, // the low half of the address space
		SrcPort: repro.PortRange{Lo: 0, Hi: 65535},
		DstPort: repro.PortRange{Lo: 0, Hi: 65535},
		Proto:   repro.ProtoMatch{Wildcard: true},
		Action:  repro.ActionDeny,
	}
	if err := mgr.Apply([]repro.UpdateOp{repro.InsertRuleAt(0, block)}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhot update applied: generation %d now blocks 0.0.0.0/1 at top priority\n\n", mgr.Generation())

	fmt.Println("second half:")
	p2, d2, n2 := classify(headers[len(headers)/2:])
	fmt.Printf("  permits %d  denies %d  no-match %d\n", p2, d2, n2)
	if d2 <= d1 {
		log.Fatal("the block rule should have increased the deny share")
	}
	fmt.Println("\nno packet was dropped or reordered across the update.")
}
