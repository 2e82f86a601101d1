package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/update"
)

// Everything the program under test is fed derives from -seed through
// these streams; rule sets are the repo's fixed presets and do not.
const (
	streamFlows = iota + 1
	streamZipf
	streamPool
	streamOps
	streamSample
)

func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

const (
	zipfS       = 1.1
	matchFrac   = 0.9
	opsPerBatch = 8
)

// genFlows returns n distinct rule-directed headers (pktgen, match
// fraction 0.9). pktgen may repeat a header, so it over-generates and
// keeps first occurrences.
func genFlows(rs *rules.RuleSet, n int, seed int64) ([]rules.Header, error) {
	seen := make(map[rules.Header]struct{}, n)
	flows := make([]rules.Header, 0, n)
	for round := int64(0); len(flows) < n; round++ {
		if round == 16 {
			return nil, fmt.Errorf("gen: %s yields fewer than %d distinct headers", rs.Name, n)
		}
		tr, err := pktgen.Generate(rs, pktgen.Config{
			Count: n + n/8, Seed: subSeed(seed, streamFlows) + round<<32, MatchFraction: matchFrac})
		if err != nil {
			return nil, fmt.Errorf("gen: %w", err)
		}
		for _, h := range tr.Headers {
			if _, dup := seen[h]; dup {
				continue
			}
			seen[h] = struct{}{}
			if flows = append(flows, h); len(flows) == n {
				break
			}
		}
	}
	return flows, nil
}

// genZipf draws packets flow indices from Zipf(s = 1.1) over n flows;
// flow 0 is the most popular.
func genZipf(n, packets int, seed int64) []uint32 {
	z := rand.NewZipf(rand.New(rand.NewSource(subSeed(seed, streamZipf))), zipfS, 1, uint64(n-1))
	order := make([]uint32, packets)
	for i := range order {
		order[i] = uint32(z.Uint64())
	}
	return order
}

// genPool returns the hold-out core-router rules the churn workload
// inserts: same generator family as CR04, a seed-derived set the served
// preset never contained.
func genPool(n int, seed int64) ([]rules.Rule, error) {
	rs, err := rulegen.Generate(rulegen.Config{
		Kind: rulegen.CoreRouter, Size: n, Seed: subSeed(seed, streamPool), Name: "CR-holdout"})
	if err != nil {
		return nil, fmt.Errorf("gen: hold-out pool: %w", err)
	}
	return rs.Rules, nil
}

// genOps returns batches of opsPerBatch ops against a list that starts at
// base rules: each batch is half inserts of pool rules at random
// positions and half deletes of random live positions, shuffled, with
// every position valid at the moment its op applies.
func genOps(base int, pool []rules.Rule, batches int, seed int64) [][]update.Op {
	rng := rand.New(rand.NewSource(subSeed(seed, streamOps)))
	live, nextPool := base, 0
	out := make([][]update.Op, batches)
	for b := range out {
		kinds := [opsPerBatch]bool{}
		for i := 0; i < opsPerBatch/2; i++ {
			kinds[i] = true
		}
		rng.Shuffle(opsPerBatch, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		ops := make([]update.Op, opsPerBatch)
		for i, insert := range kinds {
			if insert {
				ops[i] = update.InsertAt(rng.Intn(live+1), pool[nextPool%len(pool)])
				nextPool++
				live++
			} else {
				ops[i] = update.DeleteAt(rng.Intn(live))
				live--
			}
		}
		out[b] = ops
	}
	return out
}

// genSample picks k distinct indices below n, the headers an expensive
// oracle checks.
func genSample(n, k int, seed int64) []int {
	return rand.New(rand.NewSource(subSeed(seed, streamSample))).Perm(n)[:k]
}

// inputsDigest is the SHA-256 over the three seeded streams — headers,
// Zipf order, update ops — in a fixed binary encoding. Same seed, same
// digest: that is what makes two runs comparable.
func inputsDigest(rs *rules.RuleSet, flows, packets, batches int, seed int64) (string, error) {
	h := sha256.New()
	var buf [16]byte
	hs, err := genFlows(rs, flows, seed)
	if err != nil {
		return "", err
	}
	for _, x := range hs {
		binary.LittleEndian.PutUint32(buf[0:], x.SrcIP)
		binary.LittleEndian.PutUint32(buf[4:], x.DstIP)
		binary.LittleEndian.PutUint16(buf[8:], x.SrcPort)
		binary.LittleEndian.PutUint16(buf[10:], x.DstPort)
		buf[12] = x.Proto
		h.Write(buf[:13])
	}
	for _, i := range genZipf(flows, packets, seed) {
		binary.LittleEndian.PutUint32(buf[0:], i)
		h.Write(buf[:4])
	}
	pool, err := genPool(256, seed)
	if err != nil {
		return "", err
	}
	for _, batch := range genOps(rs.Len(), pool, batches, seed) {
		for _, op := range batch {
			fmt.Fprintf(h, "%v %d %v\n", op.Insert, op.Pos, op.Rule)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
