// Streaming ingestion: the engine's pull-based front door for real
// packet I/O. RunContext serves a trace that is fully in memory before
// serving starts; a pcap replay or a live socket cannot promise that, so
// RunStream runs the same core (runShards in shard.go) — flow-affine
// dispatch, private flow caches, the sequencer, shed/cancel accounting
// and panic containment — off a Source that surrenders headers in pulls.
// The slice and multi-tenant paths are that core too, pulling their
// slices a batch at a time.
package engine

import (
	"context"
	"fmt"

	"repro/internal/rules"
)

// Source is a pull stream of decoded packet headers. Next fills hs with
// up to len(hs) headers and reports how many it wrote; ok=false means
// the stream is exhausted and Next will not be called again (a final
// partial fill with ok=false is allowed). Next is called from a single
// engine goroutine, so implementations need no internal locking against
// the engine.
//
// A short fill with ok=true is a batch boundary: the engine flushes all
// partially filled shard batches before pulling again. Live sources
// (sockets) should return short on an idle interval rather than block
// until full, or tail packets sit in half-built batches and their
// latency grows unbounded; replay sources can always fill fully.
type Source interface {
	Next(hs []rules.Header) (n int, ok bool)
}

// SliceSource adapts an in-memory header slice to the Source contract.
// It always fills fully until the tail, so it never forces an early
// flush — the streaming twin of handing RunContext the slice.
type SliceSource struct {
	Headers []rules.Header

	off int
}

// Next copies the next run of headers into hs.
func (s *SliceSource) Next(hs []rules.Header) (int, bool) {
	n := copy(hs, s.Headers[s.off:])
	s.off += n
	return n, s.off < len(s.Headers)
}

// RunStream classifies every header a Source yields, emitting results
// under exactly RunContext's contracts: ordered emission when
// cfg.PreserveOrder (sequence numbers count pull order), ErrShed markers
// under OverloadShed, cancellation markers for batches cut off by ctx,
// and contained per-packet panic attribution. It returns after the
// source is exhausted (or cancellation) and every accepted packet has
// been emitted; Stats balance so that classified + shed + canceled +
// panicked equals the number of headers pulled.
//
// Unlike RunContext, a canceled run has no known undispatched tail —
// packets never pulled from the source are simply left there, and do
// not appear in Stats.
func RunStream(ctx context.Context, cl Classifier, cfg Config, src Source, emit func(Result)) (Stats, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Stats{}, err
	}
	if src == nil {
		return Stats{}, fmt.Errorf("engine: nil Source")
	}
	shards, err := makeShards(cl, nil, &cfg)
	if err != nil {
		return Stats{}, err
	}
	scratch := make([]rules.Header, cfg.BatchSize)
	st, pulled, emitErr := runShards(ctx, cl, &cfg, shards, nil, func() ([]rules.Header, []uint32, bool) {
		n, ok := src.Next(scratch)
		return scratch[:n], nil, ok
	}, emit)
	return st, runErr(ctx, &st, emitErr, pulled)
}
