package rmi

import (
	"sort"

	"repro/internal/buildgov"
	"repro/internal/rules"
)

// iset is one independent set (NuevoMatch §3): a group of rules whose
// projections onto a single dimension are pairwise disjoint, stored as
// parallel interval arrays sorted by ascending lo, with an RQ-RMI model
// predicting the predecessor position of a lookup value. Because the
// intervals are disjoint, at most one of them can contain any value — the
// one with the largest lo ≤ v — so a lookup is: predict, scan the verified
// error window for that predecessor, check containment, then confirm the
// full 5-tuple match on the original rule.
type iset struct {
	dim   rules.Dim
	lo    []uint32 // interval starts, strictly increasing
	hi    []uint32 // interval ends,   hi[i] < lo[i+1]
	ridx  []int32  // original rule index per interval
	model rqModel
}

// bytes estimates the resident footprint of the interval arrays (the
// model is charged separately once fitted).
func (s *iset) bytes() int {
	return len(s.lo) * 12
}

// lookup returns the original index of the single rule in this set whose
// dim-interval contains h's field and whose full 5-tuple matches h, or −1.
func (s *iset) lookup(h rules.Header, all []rules.Rule) int32 {
	v := h.Field(s.dim)
	pos, e := s.model.predict(v)
	lo := pos - e
	if lo < 0 {
		lo = 0
	}
	hi := pos + e
	if last := len(s.lo) - 1; hi > last {
		hi = last
	}
	if lo > hi {
		return -1
	}
	// Largest i in [lo, hi] with s.lo[i] ≤ v. The verified bound puts the
	// true predecessor inside the window whenever one exists, so the
	// window edges need no special casing.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.lo[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if s.lo[lo] > v || v > s.hi[lo] {
		return -1
	}
	if r := s.ridx[lo]; (&all[r]).Matches(h) {
		return r
	}
	return -1
}

// interval is a rule projection during extraction.
type interval struct {
	lo, hi uint32
	idx    int32
}

// extractISets repeatedly pulls the largest independent set out of the
// remaining rules: for each dimension it computes the maximum set of
// pairwise-disjoint projections (classic greedy interval scheduling —
// sort by interval end, take every interval starting after the last
// selected end), keeps the best dimension, and removes those rules. It
// stops after maxISets rounds or when the best candidate set falls under
// minSize (small sets are not worth a model; the remainder classifier
// absorbs them). Entirely deterministic: ties break on interval bounds
// then original rule index.
func extractISets(rs []rules.Rule, minSize int, gov *buildgov.Governor) ([]iset, []int32, error) {
	remaining := make([]int32, len(rs))
	for i := range remaining {
		remaining[i] = int32(i)
	}
	if minSize < 1 {
		minSize = 1
	}

	var sets []iset
	scratch := make([]interval, 0, len(rs))
	for len(sets) < maxISets && len(remaining) >= minSize {
		bestDim := rules.Dim(-1)
		var best []interval
		for d := rules.Dim(0); d < rules.NumDims; d++ {
			if err := gov.Check(); err != nil {
				return nil, nil, err
			}
			ivs := scratch[:0]
			for _, ri := range remaining {
				sp := (&rs[ri]).Span(d)
				ivs = append(ivs, interval{sp.Lo, sp.Hi, ri})
			}
			sort.Slice(ivs, func(a, b int) bool {
				if ivs[a].hi != ivs[b].hi {
					return ivs[a].hi < ivs[b].hi
				}
				if ivs[a].lo != ivs[b].lo {
					return ivs[a].lo < ivs[b].lo
				}
				return ivs[a].idx < ivs[b].idx
			})
			sel := greedyDisjoint(ivs)
			if len(sel) > len(best) {
				bestDim = d
				best = append([]interval(nil), sel...)
			}
		}
		if len(best) < minSize {
			break
		}

		s := iset{
			dim:  bestDim,
			lo:   make([]uint32, len(best)),
			hi:   make([]uint32, len(best)),
			ridx: make([]int32, len(best)),
		}
		for i, iv := range best {
			s.lo[i] = iv.lo
			s.hi[i] = iv.hi
			s.ridx[i] = iv.idx
		}
		if err := gov.Bytes(int64(s.bytes())); err != nil {
			return nil, nil, err
		}
		sets = append(sets, s)

		taken := make(map[int32]bool, len(best))
		for _, iv := range best {
			taken[iv.idx] = true
		}
		next := remaining[:0]
		for _, ri := range remaining {
			if !taken[ri] {
				next = append(next, ri)
			}
		}
		remaining = next
	}
	return sets, remaining, nil
}

// greedyDisjoint selects a maximum pairwise-disjoint subset of intervals
// already sorted by ascending end. Disjoint selection in end order is also
// ascending in start, which is the order iset arrays need.
func greedyDisjoint(ivs []interval) []interval {
	var sel []interval
	started := false
	var lastHi uint32
	for _, iv := range ivs {
		if !started || iv.lo > lastHi {
			sel = append(sel, iv)
			lastHi = iv.hi
			started = true
		}
	}
	return sel
}
