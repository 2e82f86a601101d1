package rulegen

import (
	"fmt"
	"math/rand"

	"repro/internal/rules"
)

// This file holds the production-scale generator family (ROADMAP item 1).
// The paper's sets top out at 1945 rules; real deployments and the
// NuevoMatch evaluation (PAPERS.md) run at 100k–1M. The ACL kind mimics
// ClassBench acl1-style access lists: rules arrive in *clusters* that share
// one destination prefix, destinations are drawn from a skewed prefix tree
// whose long branches are disjoint across clusters (which is what lets a
// learned range index over destination projections absorb most of the set),
// and a small fraction of short or wildcard destination prefixes provides
// the controlled overlap that real ACLs exhibit.
//
// Generation streams: rules are handed to the caller one at a time in final
// order, so pcgen can encode a 1M-rule set without ever materializing the
// full text encoding. All randomness comes from a single seeded source
// consumed in a fixed order, so the same (kind, size, seed) triple is
// byte-deterministic — guarded by a golden SHA-256 in large_test.go.

// acl1Mix is an odd multiplicative-hash constant (Knuth). Multiplication by
// an odd constant is a bijection mod 2^24, so every cluster gets a distinct
// /24 destination base without tracking a seen-set.
const acl1Mix = 2654435761

// acl1SrcPoolCap bounds the shared source-prefix pool. Real ACLs reuse a
// modest prefix vocabulary no matter how many rules they hold.
const acl1SrcPoolCap = 24000

// Stream generates the configured rule set, handing each rule to emit in
// final order. For the ACL kind generation is incremental — memory stays
// O(source pool), not O(size). Other kinds materialize internally and then
// emit, so Stream is valid (just not cheaper) for every kind. Emission stops
// early if emit returns an error.
func Stream(cfg Config, emit func(rules.Rule) error) error {
	if cfg.Size <= 0 {
		return fmt.Errorf("rulegen: size must be positive, got %d", cfg.Size)
	}
	if cfg.Kind == ACL {
		rng := rand.New(rand.NewSource(cfg.Seed))
		return streamACL(rng, cfg.Size, emit)
	}
	rs, err := Generate(cfg)
	if err != nil {
		return err
	}
	for _, r := range rs.Rules {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// streamACL emits exactly n acl1-style rules. Structure:
//
//   - Rules come in clusters sharing one destination prefix. Cluster sizes
//     are skewed small (≈75% singletons) so destination projections are
//     mostly pairwise disjoint.
//   - Each cluster's destination descends from a distinct /24 base obtained
//     by bijectively mixing the cluster ordinal, then extends to /24–/32
//     (disjoint across clusters) or, ~9% of the time, truncates to /16–/23
//     or widens to a wildcard — the controlled-overlap tail.
//   - Members of one cluster take distinct well-known service ports;
//     sources come from a shared skewed prefix pool with a wildcard share.
//
// The rng is consumed in an order that depends only on n, never on the
// emit callback, preserving byte determinism.
func streamACL(rng *rand.Rand, n int, emit func(rules.Rule) error) error {
	poolN := n
	if poolN > acl1SrcPoolCap {
		poolN = acl1SrcPoolCap
	}
	srcPool := genPrefixPool(rng, 8, poolN)

	emitted := 0
	for cluster := 0; emitted < n; cluster++ {
		baseAddr := (uint32(cluster) * acl1Mix & 0xFFFFFF) << 8

		var k int
		switch roll := rng.Intn(100); {
		case roll < 75:
			k = 1
		case roll < 95:
			k = 2
		default:
			k = 3 + rng.Intn(4) // 3..6
		}

		var dst rules.Prefix
		switch roll := rng.Intn(100); {
		case roll < 1:
			// Rare destination wildcard (e.g. anti-spoofing entries).
			dst = rules.Prefix{}
		case roll < 9:
			// Short prefix: overlaps the long branches of other clusters.
			l := uint8(16 + rng.Intn(8)) // 16..23
			dst = rules.Prefix{Addr: baseAddr & hiMask32(uint(l)), Len: l}
		default:
			// Long branch under this cluster's own /24 base — disjoint
			// from every other cluster's long branches by construction.
			var l uint8
			switch r2 := rng.Intn(100); {
			case r2 < 45:
				l = 24
			case r2 < 75:
				l = uint8(25 + rng.Intn(7)) // 25..31
			default:
				l = 32
			}
			addr := baseAddr | rng.Uint32()&loMask32(8)
			dst = rules.Prefix{Addr: addr & hiMask32(uint(l)), Len: l}
		}

		svcBase := rng.Intn(len(wellKnownServices))
		for i := 0; i < k && emitted < n; i++ {
			src := srcPool[rng.Intn(len(srcPool))]
			if rng.Intn(100) < 20 {
				src = rules.Prefix{}
			}
			svc := wellKnownServices[(svcBase+i)%len(wellKnownServices)]
			dpt := rules.PortRange{Lo: svc.port, Hi: svc.port}
			proto := rules.ProtoMatch{Value: svc.proto}
			switch roll := rng.Intn(100); {
			case roll < 6:
				dpt = rules.FullPortRange
				proto = rules.AnyProto
			case roll < 12:
				lo := uint16(1024 + rng.Intn(40000))
				dpt = rules.PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(1000))}
			}
			r := rules.Rule{
				SrcIP:   src,
				DstIP:   dst,
				SrcPort: rules.FullPortRange,
				DstPort: dpt,
				Proto:   proto,
				Action:  rules.Action(2 + rng.Intn(4)),
			}
			if err := emit(r); err != nil {
				return err
			}
			emitted++
		}
	}
	return nil
}

// largeConfigs are the production-scale presets, named after the NuevoMatch
// acl1 seeds. They are deliberately *not* part of standardConfigs: the
// paper-table experiment drivers iterate StandardNames and must keep printing
// the paper's seven rows.
var largeConfigs = []Config{
	{Kind: ACL, Size: 1000, Seed: 0xAC1001, Name: "ACL1_1K"},
	{Kind: ACL, Size: 10000, Seed: 0xAC1010, Name: "ACL1_10K"},
	{Kind: ACL, Size: 100000, Seed: 0xAC1100, Name: "ACL1_100K"},
	{Kind: ACL, Size: 1000000, Seed: 0xAC1F00, Name: "ACL1_1M"},
}

// LargeNames lists the production-scale preset names in size order.
func LargeNames() []string {
	names := make([]string, len(largeConfigs))
	for i, c := range largeConfigs {
		names[i] = c.Name
	}
	return names
}

// Large returns the preset config for a production-scale set name.
func Large(name string) (Config, bool) {
	for _, c := range largeConfigs {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// LargeForSize returns the ACL preset with exactly size rules, or a
// derived config (stable seed) for non-preset sizes. Experiment sweeps use
// this so a 1k point and the ACL1_1K preset are the same bytes.
func LargeForSize(size int) Config {
	for _, c := range largeConfigs {
		if c.Size == size {
			return c
		}
	}
	return Config{Kind: ACL, Size: size, Seed: 0xAC1000 + int64(size), Name: fmt.Sprintf("ACL1_%d", size)}
}
