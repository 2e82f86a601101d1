package rfc

import (
	"testing"

	"repro/internal/rulegen"
	"repro/internal/rules"
)

func TestChunkSpanSplitExactness(t *testing.T) {
	// Prefixes shorter and longer than 16 bits project exactly.
	short := rules.Rule{SrcIP: rules.Prefix{Addr: 0x0A000000, Len: 8},
		SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto}
	if got := chunkSpan(&short, 0); got != (rules.Span{Lo: 0x0A00, Hi: 0x0AFF}) {
		t.Errorf("hi chunk of /8 = %v", got)
	}
	if got := chunkSpan(&short, 1); got != (rules.Span{Lo: 0, Hi: 0xFFFF}) {
		t.Errorf("lo chunk of /8 = %v", got)
	}
	long := rules.Rule{SrcIP: rules.Prefix{Addr: 0x0A0B0C00, Len: 24},
		SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto}
	if got := chunkSpan(&long, 0); got != (rules.Span{Lo: 0x0A0B, Hi: 0x0A0B}) {
		t.Errorf("hi chunk of /24 = %v", got)
	}
	if got := chunkSpan(&long, 1); got != (rules.Span{Lo: 0x0C00, Hi: 0x0CFF}) {
		t.Errorf("lo chunk of /24 = %v", got)
	}
}

func TestPhase0TablesDominateMemory(t *testing.T) {
	// The memory-for-speed trade: phase-0 alone is 6×2^16+2^8 words.
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 50, Seed: 107})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	min := 6*65536 + 256
	if c.Stats().MemoryWords < min {
		t.Errorf("memory %d words below the phase-0 floor %d", c.Stats().MemoryWords, min)
	}
}
