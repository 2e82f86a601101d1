// Package rules defines the 5-tuple packet classification rule model shared
// by every classifier in this repository: packet headers, rules expressed as
// per-field ranges, rule sets with priority ordering, and the 104-bit packed
// header key that the ExpCuts decision tree cuts bit-by-bit.
//
// The five classification dimensions follow the paper: 32-bit source and
// destination IPv4 addresses (matched by prefix), 16-bit source and
// destination transport ports (matched by arbitrary range), and the 8-bit
// transport protocol (matched exactly or wildcarded). Priorities are implied
// by rule-set order: the rule at index 0 has the highest priority, matching
// common ACL "first match wins" semantics.
package rules

import (
	"fmt"
	"strings"
)

// Dim identifies one of the five classification dimensions.
type Dim int

// The five classification dimensions, in the fixed order used to build the
// 104-bit concatenated header key.
const (
	DimSrcIP Dim = iota
	DimDstIP
	DimSrcPort
	DimDstPort
	DimProto

	// NumDims is the number of classification dimensions.
	NumDims = 5
)

// KeyBits is the total width of the concatenated 5-tuple key in bits:
// 32 + 32 + 16 + 16 + 8.
const KeyBits = 104

// DimBits gives the bit width of each dimension, indexed by Dim.
var DimBits = [NumDims]uint{32, 32, 16, 16, 8}

// DimOffset gives the starting bit position of each dimension within the
// 104-bit key, indexed by Dim. Bit 0 is the most significant bit of the
// source IP address.
var DimOffset = [NumDims]uint{0, 32, 64, 80, 96}

// dimNames holds the display names of the dimensions.
var dimNames = [NumDims]string{"srcIP", "dstIP", "srcPort", "dstPort", "proto"}

// String returns the conventional short name of the dimension.
func (d Dim) String() string {
	if d < 0 || int(d) >= NumDims {
		return fmt.Sprintf("Dim(%d)", int(d))
	}
	return dimNames[d]
}

// Max returns the largest value representable in dimension d
// (e.g. 2^32-1 for an IP dimension).
func (d Dim) Max() uint32 {
	return maxOfBits(DimBits[d])
}

func maxOfBits(bits uint) uint32 {
	if bits >= 32 {
		return ^uint32(0)
	}
	return (uint32(1) << bits) - 1
}

// Header is a decoded 5-tuple packet header, the unit of classification.
type Header struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Field returns the value of dimension d widened to uint32.
func (h Header) Field(d Dim) uint32 {
	switch d {
	case DimSrcIP:
		return h.SrcIP
	case DimDstIP:
		return h.DstIP
	case DimSrcPort:
		return uint32(h.SrcPort)
	case DimDstPort:
		return uint32(h.DstPort)
	case DimProto:
		return uint32(h.Proto)
	}
	panic(fmt.Sprintf("rules: invalid dimension %d", int(d)))
}

// Key packs the header into its 104-bit key representation.
func (h Header) Key() Key {
	var k Key
	k.hi = uint64(h.SrcIP)<<32 | uint64(h.DstIP)
	k.lo = uint64(h.SrcPort)<<48 | uint64(h.DstPort)<<32 | uint64(h.Proto)<<24
	return k
}

// String renders the header in dotted-quad 5-tuple form.
func (h Header) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d proto %d",
		FormatIP(h.SrcIP), h.SrcPort, FormatIP(h.DstIP), h.DstPort, h.Proto)
}

// Key is the 104-bit concatenated header key. Bit 0 (most significant) is
// the top bit of the source IP; the low 24 bits of lo are unused padding.
// The layout matches the explicit cutting order of the ExpCuts tree:
// srcIP(32) ‖ dstIP(32) ‖ srcPort(16) ‖ dstPort(16) ‖ proto(8).
type Key struct {
	hi uint64 // key bits 0..63   (srcIP, dstIP)
	lo uint64 // key bits 64..103 in the top 40 bits (srcPort, dstPort, proto)
}

// Bits extracts width bits starting at bit position start (0 = most
// significant bit of the key). The extracted bits are returned right-aligned.
// It panics if the requested slice runs outside the 104-bit key or if width
// is 0 or greater than 32.
func (k Key) Bits(start, width uint) uint32 {
	if width == 0 || width > 32 || start+width > KeyBits {
		panic(fmt.Sprintf("rules: invalid key slice start=%d width=%d", start, width))
	}
	end := start + width // exclusive
	switch {
	case end <= 64:
		return uint32(k.hi >> (64 - end) & uint64(maxOfBits(width)))
	case start >= 64:
		return uint32(k.lo >> (128 - end) & uint64(maxOfBits(width)))
	default:
		// Straddles the hi/lo boundary.
		hiPart := uint(64 - start) // bits taken from hi
		loPart := width - hiPart   // bits taken from lo
		hv := uint32(k.hi) & maxOfBits(hiPart)
		lv := uint32(k.lo >> (64 - loPart))
		return hv<<loPart | lv
	}
}

// Words exposes the key's two raw 64-bit words (hi = key bits 0..63,
// lo = key bits 64..103 left-aligned). Hot batch walks use this to hoist
// the per-level Bits bounds checks out of their inner loops: for any
// stride w dividing 64 a w-bit chunk never straddles the word boundary,
// so a caller can extract chunks with one shift and mask per level.
func (k Key) Words() (hi, lo uint64) { return k.hi, k.lo }

// Span is a closed interval [Lo, Hi] of field values. All rule fields are
// represented as spans: a /24 prefix is the span of its 256 addresses, an
// exact port is a single-point span, and a wildcard spans the full domain.
type Span struct {
	Lo, Hi uint32
}

// FullSpan returns the span covering the entire domain of dimension d.
func FullSpan(d Dim) Span {
	return Span{0, d.Max()}
}

// PointSpan returns the single-value span {v, v}.
func PointSpan(v uint32) Span {
	return Span{v, v}
}

// Contains reports whether v lies within the span.
func (s Span) Contains(v uint32) bool {
	return s.Lo <= v && v <= s.Hi
}

// Covers reports whether s fully contains t.
func (s Span) Covers(t Span) bool {
	return s.Lo <= t.Lo && t.Hi <= s.Hi
}

// Overlaps reports whether s and t share at least one value.
func (s Span) Overlaps(t Span) bool {
	return s.Lo <= t.Hi && t.Lo <= s.Hi
}

// Intersect returns the intersection of s and t and whether it is non-empty.
func (s Span) Intersect(t Span) (Span, bool) {
	lo, hi := s.Lo, s.Hi
	if t.Lo > lo {
		lo = t.Lo
	}
	if t.Hi < hi {
		hi = t.Hi
	}
	if lo > hi {
		return Span{}, false
	}
	return Span{lo, hi}, true
}

// Size returns the number of values in the span as a uint64 (a full 32-bit
// span holds 2^32 values, which does not fit in uint32).
func (s Span) Size() uint64 {
	return uint64(s.Hi) - uint64(s.Lo) + 1
}

// IsPoint reports whether the span holds exactly one value.
func (s Span) IsPoint() bool {
	return s.Lo == s.Hi
}

// String renders the span as "lo-hi" or a single value.
func (s Span) String() string {
	if s.IsPoint() {
		return fmt.Sprintf("%d", s.Lo)
	}
	return fmt.Sprintf("%d-%d", s.Lo, s.Hi)
}

// Box is an axis-aligned 5-dimensional region of the classification space:
// one span per dimension. Decision-tree nodes cover boxes.
type Box [NumDims]Span

// FullBox returns the box covering the entire 5-dimensional space.
func FullBox() Box {
	var b Box
	for d := 0; d < NumDims; d++ {
		b[d] = FullSpan(Dim(d))
	}
	return b
}

// Contains reports whether the header's field values all lie inside the box.
func (b Box) Contains(h Header) bool {
	for d := 0; d < NumDims; d++ {
		if !b[d].Contains(h.Field(Dim(d))) {
			return false
		}
	}
	return true
}

// Covers reports whether b fully contains c in every dimension.
func (b Box) Covers(c Box) bool {
	for d := 0; d < NumDims; d++ {
		if !b[d].Covers(c[d]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether b and c intersect in every dimension.
func (b Box) Overlaps(c Box) bool {
	for d := 0; d < NumDims; d++ {
		if !b[d].Overlaps(c[d]) {
			return false
		}
	}
	return true
}

// String renders the box as a 5-tuple of spans.
func (b Box) String() string {
	parts := make([]string, NumDims)
	for d := 0; d < NumDims; d++ {
		parts[d] = fmt.Sprintf("%s=%s", Dim(d), b[d])
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Action is the disposition attached to a rule. The numeric values are what
// the serialized SRAM images store alongside the matched rule index.
type Action uint8

// Rule actions. Classifiers return the matched rule; applications interpret
// the action (the firewall example denies, the router example maps actions
// to QoS classes).
const (
	ActionPermit Action = iota
	ActionDeny
	ActionClass0
	ActionClass1
	ActionClass2
	ActionClass3
)

var actionNames = map[Action]string{
	ActionPermit: "permit",
	ActionDeny:   "deny",
	ActionClass0: "class0",
	ActionClass1: "class1",
	ActionClass2: "class2",
	ActionClass3: "class3",
}

// String returns the lowercase action keyword used by the textual rule format.
func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// ParseAction converts an action keyword back to its Action value.
func ParseAction(s string) (Action, error) {
	for a, name := range actionNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("rules: unknown action %q", s)
}

// Rule is one classification rule: a 5-dimensional box plus an action.
// Rules do not carry an explicit priority; a rule's index inside its RuleSet
// is its priority (index 0 is highest), mirroring ACL order.
type Rule struct {
	// SrcIP and DstIP are prefix matches. A prefix of length L is the span
	// of all addresses sharing the top L bits.
	SrcIP, DstIP Prefix
	// SrcPort and DstPort are arbitrary inclusive port ranges.
	SrcPort, DstPort PortRange
	// Proto matches the transport protocol: exact value or wildcard.
	Proto ProtoMatch
	// Action is the rule's disposition.
	Action Action
}

// Prefix is an IPv4 prefix match: the top Len bits of Addr are significant.
// Len 0 is a wildcard; Len 32 is an exact host match.
type Prefix struct {
	Addr uint32
	Len  uint8
}

// Span returns the address range covered by the prefix.
func (p Prefix) Span() Span {
	if p.Len == 0 {
		return Span{0, ^uint32(0)}
	}
	mask := ^uint32(0) << (32 - uint(p.Len))
	base := p.Addr & mask
	return Span{base, base | ^mask}
}

// Matches reports whether addr falls under the prefix.
func (p Prefix) Matches(addr uint32) bool {
	return p.Span().Contains(addr)
}

// IsWildcard reports whether the prefix matches every address.
func (p Prefix) IsWildcard() bool {
	return p.Len == 0
}

// String renders the prefix in addr/len notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", FormatIP(p.Addr&maskOfLen(p.Len)), p.Len)
}

func maskOfLen(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(l))
}

// PortRange is an inclusive range of 16-bit transport port numbers.
type PortRange struct {
	Lo, Hi uint16
}

// FullPortRange matches every port.
var FullPortRange = PortRange{0, 0xFFFF}

// Span widens the port range to a Span.
func (r PortRange) Span() Span {
	return Span{uint32(r.Lo), uint32(r.Hi)}
}

// Matches reports whether the port lies in the range.
func (r PortRange) Matches(p uint16) bool {
	return r.Lo <= p && p <= r.Hi
}

// String renders the range as "lo : hi" in the ClassBench style.
func (r PortRange) String() string {
	return fmt.Sprintf("%d : %d", r.Lo, r.Hi)
}

// ProtoMatch matches the 8-bit protocol field: either any value (Wildcard)
// or exactly Value.
type ProtoMatch struct {
	Wildcard bool
	Value    uint8
}

// Common IP protocol numbers used by the generators and examples.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// AnyProto matches every protocol value.
var AnyProto = ProtoMatch{Wildcard: true}

// Span widens the protocol match to a Span.
func (m ProtoMatch) Span() Span {
	if m.Wildcard {
		return Span{0, 0xFF}
	}
	return PointSpan(uint32(m.Value))
}

// Matches reports whether the protocol value matches.
func (m ProtoMatch) Matches(p uint8) bool {
	return m.Wildcard || m.Value == p
}

// String renders the match in ClassBench value/mask notation.
func (m ProtoMatch) String() string {
	if m.Wildcard {
		return "0x00/0x00"
	}
	return fmt.Sprintf("0x%02X/0xFF", m.Value)
}

// Span returns the value range of the rule in dimension d.
func (r *Rule) Span(d Dim) Span {
	switch d {
	case DimSrcIP:
		return r.SrcIP.Span()
	case DimDstIP:
		return r.DstIP.Span()
	case DimSrcPort:
		return r.SrcPort.Span()
	case DimDstPort:
		return r.DstPort.Span()
	case DimProto:
		return r.Proto.Span()
	}
	panic(fmt.Sprintf("rules: invalid dimension %d", int(d)))
}

// Box returns the rule's full 5-dimensional box.
func (r *Rule) Box() Box {
	var b Box
	for d := 0; d < NumDims; d++ {
		b[d] = r.Span(Dim(d))
	}
	return b
}

// Matches reports whether the header satisfies all five fields of the rule.
func (r *Rule) Matches(h Header) bool {
	return r.SrcIP.Matches(h.SrcIP) &&
		r.DstIP.Matches(h.DstIP) &&
		r.SrcPort.Matches(h.SrcPort) &&
		r.DstPort.Matches(h.DstPort) &&
		r.Proto.Matches(h.Proto)
}

// String renders the rule in the textual rule format (see Parse).
func (r *Rule) String() string {
	return fmt.Sprintf("@%s\t%s\t%s\t%s\t%s\t%s",
		r.SrcIP, r.DstIP, r.SrcPort, r.DstPort, r.Proto, r.Action)
}

// RuleSet is an ordered set of rules. Index order is priority order: the
// lowest-indexed matching rule wins.
type RuleSet struct {
	// Name labels the set in reports (e.g. "CR04").
	Name string
	// Rules holds the rules in priority order.
	Rules []Rule
}

// NewRuleSet builds a named rule set from rules already in priority order.
func NewRuleSet(name string, rs []Rule) *RuleSet {
	return &RuleSet{Name: name, Rules: rs}
}

// Len returns the number of rules.
func (s *RuleSet) Len() int {
	return len(s.Rules)
}

// Boxes returns every rule's box, in rule order.
func (s *RuleSet) Boxes() []Box {
	boxes := make([]Box, len(s.Rules))
	for i := range s.Rules {
		boxes[i] = s.Rules[i].Box()
	}
	return boxes
}

// Match performs reference first-match classification by scanning rules in
// priority order. It returns the matched rule index, or -1 if none match.
// Every classifier in this repository must agree with Match on every header.
func (s *RuleSet) Match(h Header) int {
	for i := range s.Rules {
		if s.Rules[i].Matches(h) {
			return i
		}
	}
	return -1
}

// Classifier is the lookup contract every classifier in the repository
// implements, declared once here so the serving layers (engine, update,
// flowcache) and the tools agree on it: Classify returns the index of the
// first rule matching h, exactly as RuleSet.Match would, or -1.
type Classifier interface {
	Classify(h Header) int
}

// BatchClassifier adds the batched fast path: ClassifyBatch classifies
// hs[i] into out[i] for every i, with exactly the answers Classify would
// give. out must be at least as long as hs; only out[:len(hs)] is written
// and neither slice is retained. Serving layers detect it dynamically, so
// tree classifiers can walk a batch level-synchronously (every packet's
// pointer chase at one level before any packet advances to the next) and a
// classifier without it is served by a per-packet loop.
type BatchClassifier interface {
	Classifier
	ClassifyBatch(hs []Header, out []int)
}

// Validate checks structural invariants: prefix lengths within 0..32,
// non-inverted port ranges, and a non-empty set.
func (s *RuleSet) Validate() error {
	if len(s.Rules) == 0 {
		return fmt.Errorf("rules: rule set %q is empty", s.Name)
	}
	for i := range s.Rules {
		r := &s.Rules[i]
		if r.SrcIP.Len > 32 || r.DstIP.Len > 32 {
			return fmt.Errorf("rules: rule %d: prefix length out of range", i)
		}
		if r.SrcPort.Lo > r.SrcPort.Hi {
			return fmt.Errorf("rules: rule %d: inverted source port range", i)
		}
		if r.DstPort.Lo > r.DstPort.Hi {
			return fmt.Errorf("rules: rule %d: inverted destination port range", i)
		}
	}
	return nil
}

// FormatIP renders a 32-bit address in dotted-quad notation.
func FormatIP(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (uint32, error) {
	var b [4]int
	n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &b[0], &b[1], &b[2], &b[3])
	if err != nil || n != 4 {
		return 0, fmt.Errorf("rules: invalid IPv4 address %q", s)
	}
	var v uint32
	for _, x := range b {
		if x < 0 || x > 255 {
			return 0, fmt.Errorf("rules: invalid IPv4 octet in %q", s)
		}
		v = v<<8 | uint32(x)
	}
	return v, nil
}
