// Package faultinject provides deterministic, seedable fault injectors
// for the classification runtime: classifiers that panic, stall or lie on
// chosen packets, builders that fail a scripted number of times, and
// corruptors for serialized SRAM images. The cross-package robustness
// suite uses them to prove that every failure mode degrades gracefully —
// a contained error, a refused swap, a rollback or a counted shed — never
// a crashed worker, a leaked goroutine or a silently wrong answer.
//
// All injectors are deterministic: faults fire on a fixed cadence
// (EveryN) or from a seeded PRNG, so a failing test reproduces exactly.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/rules"
	"repro/internal/update"
)

// PanickyClassifier panics on every Nth call (1-based: with EveryN=3,
// calls 3, 6, 9... panic); other calls delegate to Inner. The counter is
// atomic, so it injects deterministically *many* faults under concurrency
// even though which packet draws one depends on scheduling.
type PanickyClassifier struct {
	Inner  rules.Classifier
	EveryN uint64
	count  atomic.Uint64
}

// ErrInjectedPanic is the root of the value PanickyClassifier panics
// with (the panic value is a string naming the failing call).
var ErrInjectedPanic = errors.New("faultinject: injected classifier panic")

func (p *PanickyClassifier) Classify(h rules.Header) int {
	if n := p.count.Add(1); p.EveryN > 0 && n%p.EveryN == 0 {
		panic(fmt.Sprintf("%v (call %d)", ErrInjectedPanic, n))
	}
	return p.Inner.Classify(h)
}

// Calls reports how many lookups the injector has seen.
func (p *PanickyClassifier) Calls() uint64 { return p.count.Load() }

// SlowClassifier sleeps Delay on every Nth call before delegating —
// used to trip per-run deadlines and fill dispatch rings.
type SlowClassifier struct {
	Inner  rules.Classifier
	EveryN uint64
	Delay  time.Duration
	count  atomic.Uint64
}

func (s *SlowClassifier) Classify(h rules.Header) int {
	if n := s.count.Add(1); s.EveryN > 0 && n%s.EveryN == 0 {
		time.Sleep(s.Delay)
	}
	return s.Inner.Classify(h)
}

// WrongClassifier returns a deliberately wrong match on every Nth call:
// the inner answer plus one (or 0 when the inner answer was no-match).
// It models a miscompiled generation that the update layer's shadow
// conformance check must catch before the swap.
type WrongClassifier struct {
	Inner  rules.Classifier
	EveryN uint64
	count  atomic.Uint64
}

func (w *WrongClassifier) Classify(h rules.Header) int {
	match := w.Inner.Classify(h)
	if n := w.count.Add(1); w.EveryN > 0 && n%w.EveryN == 0 {
		if match < 0 {
			return 0
		}
		return match + 1
	}
	return match
}

// MemoryBytes lets the wrong classifier pose as an update.Classifier.
func (w *WrongClassifier) MemoryBytes() int {
	if m, ok := w.Inner.(interface{ MemoryBytes() int }); ok {
		return m.MemoryBytes()
	}
	return 0
}

// FixedClassifier answers the same match for every header — a stand-in
// for trivially broken generations.
type FixedClassifier struct{ Match int }

func (f FixedClassifier) Classify(rules.Header) int { return f.Match }

// MemoryBytes lets the fixed classifier pose as an update.Classifier.
func (f FixedClassifier) MemoryBytes() int { return 4 }

// ErrInjectedBuild is the error FlakyBuilder and FailingBuilder return.
var ErrInjectedBuild = errors.New("faultinject: injected build failure")

// FlakyBuilder wraps an update.Builder so its first Failures calls fail
// with ErrInjectedBuild and subsequent calls delegate. Attempts counts
// every call.
type FlakyBuilder struct {
	Inner    update.Builder
	Failures int64
	attempts atomic.Int64
}

// Build is the update.Builder; pass fb.Build to the manager.
func (fb *FlakyBuilder) Build(rs *rules.RuleSet) (update.Classifier, error) {
	if n := fb.attempts.Add(1); n <= fb.Failures {
		return nil, fmt.Errorf("%w (attempt %d of %d scripted failures)", ErrInjectedBuild, n, fb.Failures)
	}
	return fb.Inner(rs)
}

// Attempts reports how many times the builder has been invoked.
func (fb *FlakyBuilder) Attempts() int64 { return fb.attempts.Load() }

// FailingBuilder always fails — for proving Apply leaves the live
// generation untouched when no candidate can ever be built.
func FailingBuilder(*rules.RuleSet) (update.Classifier, error) {
	return nil, ErrInjectedBuild
}

// FlipBit returns a copy of data with the given bit inverted (bit indexes
// run LSB-first within each byte). It panics if the index is out of
// range — the injector itself must be used correctly.
func FlipBit(data []byte, bit int) []byte {
	if bit < 0 || bit >= len(data)*8 {
		panic(fmt.Sprintf("faultinject: bit %d out of range for %d bytes", bit, len(data)))
	}
	out := append([]byte(nil), data...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// Truncate returns the first n bytes of data (n clamped to len(data)).
func Truncate(data []byte, n int) []byte {
	if n < 0 {
		n = 0
	}
	if n > len(data) {
		n = len(data)
	}
	return append([]byte(nil), data[:n]...)
}

// Corrupt returns a seeded random corruption of data: between 1 and 8
// bit flips at PRNG-chosen positions. Identical (data, seed) pairs yield
// identical corruptions.
func Corrupt(data []byte, seed int64) []byte {
	if len(data) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := append([]byte(nil), data...)
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		bit := rng.Intn(len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
	}
	return out
}
