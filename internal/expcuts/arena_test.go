package expcuts

import (
	"fmt"
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// classifyGraph walks the builder's pointer graph: the paper's walk, one
// node per level, that the serialized image lays out. The compressed arena
// is checked against it.
func (t *Tree) classifyGraph(h rules.Header) int {
	k := h.Key()
	w := t.cfg.StrideW
	r := t.root
	pos := uint(0)
	for r >= 0 {
		r = t.nodes[r].child(k.Bits(pos, w))
		pos += w
	}
	return decodeRef(r)
}

// child returns the reference cell c of n holds: the ref of the first run
// that ends past c.
func (n *node) child(c uint32) ref {
	for _, rn := range n.runs {
		if c < uint32(rn.end) {
			return rn.ref
		}
	}
	panic(fmt.Sprintf("expcuts: cell %d past the node's last run", c))
}

// visitedLevels walks the builder graph for h and returns the levels of the
// nodes on its path that cut anything (have two distinct cells) — what an
// arena walk must visit, derived without reading the arena.
func (t *Tree) visitedLevels(h rules.Header) []int {
	k := h.Key()
	w := t.cfg.StrideW
	var levels []int
	for r := t.root; r >= 0; {
		n := t.nodes[r]
		if !n.singleChild() {
			levels = append(levels, n.level)
		}
		r = n.child(k.Bits(uint(n.level)*w, w))
	}
	return levels
}

// checkArena is the differential check of the native arena: for every
// header the arena walk (Classify, ClassifyBatch, ClassifyBatchPipelined)
// must equal the builder-graph walk and the serialized image's Lookup, and
// the arena itself must hold only forward references, one CPA ref per
// maximal run of cells — so no single-child node, no ref per cell and no
// split run — per header, exactly the graph path's cutting nodes, and a
// wide root that agrees with the walk from root (checkWideRoot).
func checkArena(t *Tree, hs []rules.Header) error {
	if got := unsafe.Sizeof(arenaNode{}); got != arenaLineBytes {
		return fmt.Errorf("arena node is %d bytes, want one %d-byte line", got, arenaLineBytes)
	}
	st := t.step()
	refs := 0 // run starts of the nodes checked so far
	for id := range t.ar.nodes {
		nd := &t.ar.nodes[id]
		if int(nd.pos)%int(t.cfg.StrideW) != 0 || uint(nd.pos) >= rules.KeyBits {
			return fmt.Errorf("arena node %d: key position %d", id, nd.pos)
		}
		runs := 0
		for k, word := range nd.runs {
			if int(nd.pre[k]) != runs {
				return fmt.Errorf("arena node %d: pre[%d] = %d, want %d", id, k, nd.pre[k], runs)
			}
			runs += bits.OnesCount64(word)
		}
		if cells := uint(st.mask) + 1; cells < 256 && nd.runs[0]>>cells|nd.runs[1]|nd.runs[2]|nd.runs[3] != 0 {
			return fmt.Errorf("arena node %d: run bits %#x past its %d cells", id, nd.runs, cells)
		}
		if nd.runs[0]&1 == 0 || runs < 2 || int(nd.base) != refs {
			return fmt.Errorf("arena node %d: runs %#x (%d), base %d after %d refs; want bit 0, >= 2 runs, contiguous CPA",
				id, nd.runs, runs, nd.base, refs)
		}
		refs += runs
		if refs > len(t.ar.cpa) {
			return fmt.Errorf("arena node %d: %d runs overrun a %d-ref CPA", id, runs, len(t.ar.cpa))
		}
		for j := int(nd.base) + 1; j < refs; j++ {
			if t.ar.cpa[j] == t.ar.cpa[j-1] {
				return fmt.Errorf("arena node %d: CPA refs %d and %d are both %d, a run that is not maximal", id, j-1, j, t.ar.cpa[j])
			}
		}
		probe := *nd
		probe.pos = 0 // the chunk in the top w bits of the key word
		for c := uint64(0); c <= uint64(st.mask); c++ {
			child := t.ar.cpa[st.cpaIndex(&probe, c<<st.top)]
			if child >= 0 && (int(child) >= len(t.ar.nodes) || t.ar.nodes[child].pos <= nd.pos) {
				return fmt.Errorf("arena node %d (pos %d): cell %d -> %d is not a deeper node", id, nd.pos, c, child)
			}
		}
	}
	if refs != len(t.ar.cpa) {
		return fmt.Errorf("arena CPA holds %d refs for %d run starts", len(t.ar.cpa), refs)
	}
	if err := checkWideRoot(t); err != nil {
		return err
	}

	mem := nptrace.NullMem{R: t.image}
	batch := make([]int, len(hs))
	piped := make([]int, len(hs))
	t.ClassifyBatch(hs, batch)
	t.ClassifyBatchPipelined(hs, piped, 3, true)
	for i, h := range hs {
		want := t.classifyGraph(h)
		if got := t.Classify(h); got != want {
			return fmt.Errorf("arena walk %d != graph walk %d for %v", got, want, h)
		}
		if got := t.Lookup(mem, h); got != want {
			return fmt.Errorf("serialized lookup %d != graph walk %d for %v", got, want, h)
		}
		if batch[i] != want || piped[i] != want {
			return fmt.Errorf("batch %d / pipelined %d != graph walk %d for %v", batch[i], piped[i], want, h)
		}
		levels := t.visitedLevels(h)
		r := t.ar.root
		hi, lo := h.Key().Words()
		kw := [2]uint64{hi, lo}
		for _, l := range levels {
			if r < 0 || uint(t.ar.nodes[r].pos) != uint(l)*t.cfg.StrideW {
				return fmt.Errorf("arena path of %v leaves the graph's cutting levels %v", h, levels)
			}
			nd := &t.ar.nodes[r]
			r = t.ar.cpa[st.cpaIndex(nd, kw[nd.pos>>6])]
		}
		if r >= 0 {
			return fmt.Errorf("arena path of %v is longer than the graph's cutting levels %v", h, levels)
		}
	}
	return nil
}

// checkWideRoot checks the wide root's run format — rank prefixes that
// count the run bits before each word, one ref per run, runs that are
// maximal — that every ref is a leaf or a node cutting at or below bit
// wideBits, and that for each of the 2^16 key prefixes it holds where the
// walk from root ends once it has consumed the first wideBits bits.
func checkWideRoot(t *Tree) error {
	wr, st := &t.ar.wide, t.step()
	runs := 0
	for k, word := range wr.runs {
		if int(wr.pre[k]) != runs {
			return fmt.Errorf("wide root: pre[%d] = %d, want %d", k, wr.pre[k], runs)
		}
		runs += bits.OnesCount64(word)
	}
	if wr.runs[0]&1 == 0 || runs != len(wr.refs) {
		return fmt.Errorf("wide root: %d run starts (cell 0 one: %v) for %d refs", runs, wr.runs[0]&1 == 1, len(wr.refs))
	}
	for j, r := range wr.refs {
		if j > 0 && r == wr.refs[j-1] {
			return fmt.Errorf("wide root: refs %d and %d are both %d, a run that is not maximal", j-1, j, r)
		}
		if r >= 0 && (int(r) >= len(t.ar.nodes) || t.ar.nodes[r].pos < wideBits) {
			return fmt.Errorf("wide root: ref %d is %d, not a leaf or a node at pos >= %d", j, r, wideBits)
		}
	}
	for c := uint64(0); c < 1<<wideBits; c++ {
		kw := c << (64 - wideBits)
		want := t.ar.root
		for want >= 0 && t.ar.nodes[want].pos < wideBits {
			want = t.ar.cpa[st.cpaIndex(&t.ar.nodes[want], kw)]
		}
		if got := wr.at(kw | 0xFFFF); got != want {
			return fmt.Errorf("wide root: prefix %#04x holds %d, the walk from root reaches %d", c, got, want)
		}
	}
	return nil
}

// CheckArena exports checkArena to the external differential test, which
// needs rule families from packages that import this one.
var CheckArena = checkArena

// graphTree finishes a hand-built graph the way New finishes a built one.
func graphTree(t *testing.T, rs *rules.RuleSet, root ref, nodes ...node) *Tree {
	t.Helper()
	cfg := Config{}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	tree := &Tree{cfg: cfg, rs: rs, nodes: nodes, root: root}
	if err := tree.finish(); err != nil {
		t.Fatal(err)
	}
	return tree
}

func uniformNode(level int, child ref) node {
	return node{level: level, runs: []run{{end: 256, ref: child}}}
}

var cornerHeaders = []rules.Header{
	{},
	{SrcIP: 0xFFFFFFFF, DstIP: 0xFFFFFFFF, SrcPort: 65535, DstPort: 65535, Proto: 255},
	{SrcIP: 0x0A010203, DstIP: 0x0B040506, SrcPort: 1000, DstPort: 80, Proto: rules.ProtoTCP},
	{SrcIP: 0x0A010203, DstIP: 0x0B040506, SrcPort: 1000, DstPort: 81, Proto: rules.ProtoUDP},
}

// TestArenaDegenerateShapes covers the shapes only compression creates: a
// root chain that collapses to a leaf (the builder never emits one — a node
// whose cells all hold one leaf would itself be that leaf — so these graphs
// are hand-built), a one-rule set, and a tree whose deepest level is the
// only one that survives, at every stride. The wide root of the first is
// one run of the leaf and of the last one run of the elided root's target.
func TestArenaDegenerateShapes(t *testing.T) {
	wild := rules.NewRuleSet("wild", []rules.Rule{
		{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto},
	})
	for _, tc := range []struct {
		name string
		leaf ref
		want int
	}{
		{"chain to rule leaf", refLeaf(0), 0},
		{"chain to no-match leaf", refNoMatch, -1},
	} {
		tree := graphTree(t, wild, 0, uniformNode(0, 1), uniformNode(1, 2), uniformNode(2, tc.leaf))
		if len(tree.ar.nodes) != 0 || tree.ar.root != tc.leaf || len(tree.ar.wide.refs) != 1 || tree.ar.wide.refs[0] != tc.leaf {
			t.Fatalf("%s: arena keeps %d nodes, root %d, wide root %v; want 0 nodes, root and wide root %d",
				tc.name, len(tree.ar.nodes), tree.ar.root, tree.ar.wide.refs, tc.leaf)
		}
		if p := tree.Program(rules.Header{}); tree.Stats().Nodes != 3 || p.Accesses() != 6 {
			t.Errorf("%s: stats/image no longer describe the 3-node graph", tc.name)
		}
		if err := checkArena(tree, cornerHeaders); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tree.Classify(cornerHeaders[1]); got != tc.want {
			t.Errorf("%s: Classify = %d, want %d", tc.name, got, tc.want)
		}
		for l, c := range tree.StageFill() {
			if c != 0 {
				t.Errorf("%s: stage %d counted %d, but no packet entered a walk", tc.name, l, c)
			}
		}
	}

	host := rules.NewRuleSet("host", []rules.Rule{{
		SrcIP:   rules.Prefix{Addr: 0x0A010203, Len: 32},
		DstIP:   rules.Prefix{Addr: 0x0B040506, Len: 32},
		SrcPort: rules.PortRange{Lo: 1000, Hi: 1000},
		DstPort: rules.PortRange{Lo: 80, Hi: 80},
		Proto:   rules.ProtoMatch{Value: rules.ProtoTCP},
	}})
	tcpOnly := rules.NewRuleSet("tcp", []rules.Rule{{
		SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange,
		Proto: rules.ProtoMatch{Value: rules.ProtoTCP},
	}})
	for _, w := range []uint{1, 2, 4, 8} {
		// One exact rule: every level cuts, nothing is elided.
		tree, err := New(host, Config{StrideW: w, HabsV: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.ar.nodes) != tree.Depth() {
			t.Errorf("w=%d host rule: arena keeps %d of %d nodes, want all", w, len(tree.ar.nodes), tree.Depth())
		}
		// The rule's 16-bit source prefix 0x0A01 is the only run that
		// leads on, to the one node at pos 16.
		if refs := tree.ar.wide.refs; len(refs) != 3 || refs[1] < 0 || tree.ar.nodes[refs[1]].pos != 16 {
			t.Errorf("w=%d host rule: wide root holds %v, want no-match, the node at pos 16, no-match", w, refs)
		}
		if err := checkArena(tree, cornerHeaders); err != nil {
			t.Fatalf("w=%d host rule: %v", w, err)
		}

		// Only the protocol byte distinguishes anything: the 96 leading key
		// bits are a single-child chain from the root down.
		tree, err = New(tcpOnly, Config{StrideW: w, HabsV: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(tree.ar.nodes), int(8/w); got != want || tree.ar.nodes[tree.ar.root].pos != 96 {
			t.Fatalf("w=%d tcp-only: arena keeps %d nodes from pos %d, want %d from pos 96",
				w, got, tree.ar.nodes[tree.ar.root].pos, want)
		}
		if refs := tree.ar.wide.refs; len(refs) != 1 || refs[0] != tree.ar.root {
			t.Fatalf("w=%d tcp-only: wide root holds %v, want one run of the root %d", w, refs, tree.ar.root)
		}
		if tree.Stats().Nodes != tree.Depth() {
			t.Errorf("w=%d tcp-only: stats report %d nodes, want the full %d-level chain", w, tree.Stats().Nodes, tree.Depth())
		}
		if err := checkArena(tree, cornerHeaders); err != nil {
			t.Fatalf("w=%d tcp-only: %v", w, err)
		}
	}
}

// BenchmarkArenaWalk measures the three native walks over CR04 on its own:
// 2^18 pktgen flows (seed 1, match fraction 0.9) cycled in batches of 64.
// An op is one batch, so ns/pkt is the walk's cost per packet.
func BenchmarkArenaWalk(b *testing.B) {
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		b.Fatal(err)
	}
	tree, err := New(rs, Config{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1 << 18, Seed: 1, MatchFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	hs := tr.Headers
	out := make([]int, batch)
	for _, bm := range []struct {
		name string
		walk func(hs []rules.Header)
	}{
		{"batch", func(hs []rules.Header) { tree.ClassifyBatch(hs, out) }},
		{"pipelined/64", func(hs []rules.Header) { tree.ClassifyBatchPipelined(hs, out, 64, false) }},
		{"single", func(hs []rules.Header) {
			for i, h := range hs {
				out[i] = tree.Classify(h)
			}
		}},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := i * batch % len(hs)
				bm.walk(hs[lo : lo+batch])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
		})
	}
}

// TestStageFill checks the per-stage counters against the builder graph:
// level 0 counts every packet of every pipelined batch even when the root
// was elided, and every other level counts exactly the packets whose graph
// path has a cutting node there.
func TestStageFill(t *testing.T) {
	tcpOnly := rules.NewRuleSet("tcp", []rules.Rule{{
		SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange,
		Proto: rules.ProtoMatch{Value: rules.ProtoTCP},
	}})
	elided, err := New(tcpOnly, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, hs := batchFixture(t)
	for name, tree := range map[string]*Tree{"root kept": full, "root elided": elided} {
		batch := hs[:64]
		want := make([]uint64, tree.Depth())
		const rounds = 3
		for _, h := range batch {
			for _, l := range tree.visitedLevels(h) {
				if l > 0 {
					want[l] += rounds
				}
			}
		}
		want[0] = rounds * uint64(len(batch))

		before := tree.StageFill()
		out := make([]int, len(batch))
		for r := 0; r < rounds; r++ {
			tree.ClassifyBatchPipelined(batch, out, 8, r == 1)
		}
		after := tree.StageFill()
		if len(after) != tree.Depth() {
			t.Fatalf("%s: StageFill has %d levels, want depth %d", name, len(after), tree.Depth())
		}
		for l := range after {
			if got := after[l] - before[l]; got != want[l] {
				t.Errorf("%s: level %d fill grew by %d, want %d", name, l, got, want[l])
			}
		}
	}
}

// TestWideRootVisitsCR04 pins the mean node visits per packet on CR04 over
// BenchmarkArenaWalk's flows: a walk from root makes 7.009 visits, and the
// wide root replaces every visit above bit 16 — the root and a level-1
// node on most paths — with one read of its own.
func TestWideRootVisitsCR04(t *testing.T) {
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1 << 18, Seed: 1, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	st := tree.step()
	walk := func(r ref, hi, lo uint64) (visits int) {
		for ; r >= 0; visits++ {
			nd := &tree.ar.nodes[r]
			r = tree.ar.cpa[st.cpaIndex(nd, [2]uint64{hi, lo}[nd.pos>>6])]
		}
		return visits
	}
	fromRoot, fromWide := 0, 0
	for _, h := range tr.Headers {
		hi, lo := h.Key().Words()
		fromRoot += walk(tree.ar.root, hi, lo)
		fromWide += 1 + walk(tree.ar.wide.at(hi), hi, lo)
	}
	// 7.009 and 6.174 per packet: 5.174 node visits after the wide root.
	if fromRoot != 1837450 || fromWide != 1618385 {
		t.Errorf("CR04 walks made %d visits from root and %d from the wide root, want %d and %d", fromRoot, fromWide, 1837450, 1618385)
	}
	distinct := map[ref]bool{}
	for _, r := range tree.ar.wide.refs {
		distinct[r] = true
	}
	if runs := len(tree.ar.wide.refs); runs != 558 || len(distinct) != 322 {
		t.Errorf("CR04 wide root holds %d runs of %d distinct refs, want %d of %d", runs, len(distinct), 558, 322)
	}
}
