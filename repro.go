// Package repro is the public API of this reproduction of "Towards
// Optimized Packet Classification Algorithms for Multi-Core Network
// Processors" (Qi et al., ICPP 2007).
//
// It exposes four layers:
//
//   - Rules and packets: the 5-tuple rule model, a ClassBench-style text
//     format, synthetic generators for the paper's FW01–CR04 rule sets,
//     and seeded packet traces.
//   - Classifiers: ExpCuts (the paper's contribution), the HiCuts and HSM
//     baselines, the RFC extension, and reference linear search. Every
//     classifier answers Classify exactly like priority linear search.
//   - The NP model: classifiers serialize into word-addressed SRAM images
//     and record per-packet access programs; SimulateThroughput replays
//     them on a deterministic model of the Intel IXP2850 (microengines,
//     hardware threads, QDR SRAM channels).
//   - Experiments: drivers that regenerate every table and figure of the
//     paper's evaluation (see internal/experiments via cmd/pcbench, and
//     EXPERIMENTS.md for recorded results).
//
// Quick start:
//
//	rs, _ := repro.StandardRuleSet("CR04")
//	tree, _ := repro.NewExpCuts(rs, repro.ExpCutsConfig{})
//	match := tree.Classify(repro.Header{SrcIP: 0x0A000001, Proto: repro.ProtoTCP})
package repro

import (
	"io"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/flowcache"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/memlayout"
	"repro/internal/npsim"
	"repro/internal/nptrace"
	"repro/internal/pipeline"
	"repro/internal/pktgen"
	"repro/internal/rfc"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/update"
	"repro/internal/wire"
)

// Core rule and packet types.
type (
	// Header is a decoded 5-tuple packet header.
	Header = rules.Header
	// Rule is one classification rule; see the rules package for field
	// semantics.
	Rule = rules.Rule
	// RuleSet is an ordered rule list; index order is priority order.
	RuleSet = rules.RuleSet
	// Prefix is an IPv4 prefix match.
	Prefix = rules.Prefix
	// PortRange is an inclusive port range.
	PortRange = rules.PortRange
	// ProtoMatch matches the protocol field exactly or as a wildcard.
	ProtoMatch = rules.ProtoMatch
	// Action is a rule disposition (permit, deny, traffic classes).
	Action = rules.Action
	// Trace is a generated packet trace.
	Trace = pktgen.Trace
)

// Common protocol numbers and rule actions, re-exported for examples and
// applications.
const (
	ProtoICMP = rules.ProtoICMP
	ProtoTCP  = rules.ProtoTCP
	ProtoUDP  = rules.ProtoUDP

	ActionPermit = rules.ActionPermit
	ActionDeny   = rules.ActionDeny
)

// Classifier is the behaviour every packet classifier in this library
// shares: first-match classification (−1 for no match), a name for
// reports, and the serialized SRAM footprint.
type Classifier interface {
	Name() string
	Classify(h Header) int
	MemoryBytes() int
}

// TracedClassifier additionally records the per-packet SRAM access program
// the NP simulator replays.
type TracedClassifier interface {
	Classifier
	Program(h Header) nptrace.Program
}

// Interface conformance checks for every classifier.
var (
	_ TracedClassifier = (*ExpCuts)(nil)
	_ TracedClassifier = (*HiCuts)(nil)
	_ TracedClassifier = (*HSM)(nil)
	_ TracedClassifier = (*RFC)(nil)
	_ TracedClassifier = (*HyperCuts)(nil)
	_ TracedClassifier = (*Linear)(nil)
)

// Classifier types and their configurations.
type (
	// ExpCuts is the paper's classifier: fixed-stride explicit cuttings
	// with HABS/CPA space aggregation.
	ExpCuts = expcuts.Tree
	// ExpCutsConfig configures ExpCuts (stride w, HABS width v, sharing
	// mode, SRAM channels). The zero value is the paper's configuration.
	ExpCutsConfig = expcuts.Config
	// HiCuts is the decision-tree baseline with binth leaves.
	HiCuts = hicuts.Tree
	// HiCutsConfig configures HiCuts; the zero value matches the paper
	// (binth = 8, spfac = 4).
	HiCutsConfig = hicuts.Config
	// HSM is the field-independent hierarchical space mapping baseline.
	HSM = hsm.Classifier
	// HSMConfig configures HSM.
	HSMConfig = hsm.Config
	// HyperCuts is the multi-dimensional-cutting extension baseline.
	HyperCuts = hypercuts.Tree
	// HyperCutsConfig configures HyperCuts.
	HyperCutsConfig = hypercuts.Config
	// RFC is the Recursive Flow Classification extension.
	RFC = rfc.Classifier
	// RFCConfig configures RFC.
	RFCConfig = rfc.Config
	// Linear is the reference linear-search classifier.
	Linear = linear.Classifier
)

// NewExpCuts builds the paper's classifier over the rule set.
func NewExpCuts(rs *RuleSet, cfg ExpCutsConfig) (*ExpCuts, error) {
	return expcuts.New(rs, cfg)
}

// NewHiCuts builds the HiCuts baseline.
func NewHiCuts(rs *RuleSet, cfg HiCutsConfig) (*HiCuts, error) {
	return hicuts.New(rs, cfg)
}

// NewHSM builds the HSM baseline.
func NewHSM(rs *RuleSet, cfg HSMConfig) (*HSM, error) {
	return hsm.New(rs, cfg)
}

// NewHyperCuts builds the HyperCuts extension baseline.
func NewHyperCuts(rs *RuleSet, cfg HyperCutsConfig) (*HyperCuts, error) {
	return hypercuts.New(rs, cfg)
}

// NewRFC builds the RFC extension classifier.
func NewRFC(rs *RuleSet, cfg RFCConfig) (*RFC, error) {
	return rfc.New(rs, cfg)
}

// NewLinear builds the reference linear-search classifier.
func NewLinear(rs *RuleSet) *Linear {
	return linear.New(rs)
}

// Rule-set construction and I/O.

// NewRuleSet builds a named rule set from rules in priority order.
func NewRuleSet(name string, rs []Rule) *RuleSet {
	return rules.NewRuleSet(name, rs)
}

// ParseRuleSet reads the ClassBench-style textual rule format.
func ParseRuleSet(name string, r io.Reader) (*RuleSet, error) {
	return rules.Parse(name, r)
}

// StandardRuleSet generates one of the paper's seven named rule sets
// (FW01–FW03, CR01–CR04) — deterministic synthetic equivalents of the
// evaluation sets (see DESIGN.md for the substitution rationale).
func StandardRuleSet(name string) (*RuleSet, error) {
	return rulegen.Standard(name)
}

// StandardRuleSetNames lists the seven set names in the paper's order.
func StandardRuleSetNames() []string {
	return rulegen.StandardNames()
}

// RuleSetKind selects a synthetic rule-set family for GenerateRuleSet.
type RuleSetKind = rulegen.Kind

// Synthetic rule-set families.
const (
	FirewallRules   = rulegen.Firewall
	CoreRouterRules = rulegen.CoreRouter
	RandomRules     = rulegen.Random
)

// GenerateRuleSet produces a deterministic synthetic rule set.
func GenerateRuleSet(kind RuleSetKind, size int, seed int64) (*RuleSet, error) {
	return rulegen.Generate(rulegen.Config{Kind: kind, Size: size, Seed: seed})
}

// GenerateTrace produces a deterministic packet trace over the rule set;
// matchFraction is the share of headers sampled from rule boxes.
func GenerateTrace(rs *RuleSet, count int, seed int64, matchFraction float64) (*Trace, error) {
	return pktgen.Generate(rs, pktgen.Config{Count: count, Seed: seed, MatchFraction: matchFraction})
}

// NP simulation.
type (
	// NPConfig is the IXP2850 model configuration; the zero value (or
	// DefaultNPConfig) is the paper's platform at 71 threads.
	NPConfig = npsim.Config
	// NPResult reports a simulation run.
	NPResult = npsim.Result
	// Headroom is the per-channel SRAM bandwidth share available to
	// classification.
	Headroom = memlayout.Headroom
	// AppConfig maps the full packet application onto the NP.
	AppConfig = pipeline.AppConfig
)

// DefaultNPConfig is the paper's platform: 1.4 GHz MEs, 71 threads, four
// QDR SRAM channels.
func DefaultNPConfig() NPConfig {
	return npsim.DefaultConfig()
}

// PaperHeadroom is the Table 4 bandwidth headroom of the full application.
var PaperHeadroom = memlayout.PaperHeadroom

// SimulateThroughput records access programs for the headers and replays
// them on the NP model, returning the simulated classification throughput.
func SimulateThroughput(cl TracedClassifier, headers []Header, cfg NPConfig, packets int) (NPResult, error) {
	progs := make([]nptrace.Program, len(headers))
	for i, h := range headers {
		progs[i] = cl.Program(h)
	}
	return npsim.Run(cfg, progs, packets)
}

// DefaultAppConfig is the paper's full application mapping (Table 3).
func DefaultAppConfig() AppConfig {
	return pipeline.DefaultAppConfig()
}

// SimulateApplication runs the classifier inside the full application with
// the multiprocessing mapping (the paper's configuration).
func SimulateApplication(cl TracedClassifier, headers []Header, app AppConfig, packets int) (NPResult, error) {
	progs := make([]nptrace.Program, len(headers))
	for i, h := range headers {
		progs[i] = cl.Program(h)
	}
	return pipeline.RunMultiprocessing(app, progs, packets)
}

// Concurrent classification on the host (internal/engine): flow-affinity
// shards, one goroutine each, with sequence-numbered, order-preserving
// result delivery — the software analogue of §3.2's
// multithreading-with-packet-ordering.
type (
	// EngineConfig configures the concurrent classification engine.
	EngineConfig = engine.Config
	// EngineResult is one classified packet with its arrival sequence.
	EngineResult = engine.Result
	// EngineStats reports an engine run.
	EngineStats = engine.Stats
)

// Lookuper is the minimal lookup interface the engine and flow cache
// accept: any Classifier qualifies, and so do wrappers like UpdateManager
// and FlowCache themselves.
type Lookuper interface {
	Classify(h Header) int
}

// RunEngine classifies headers on the engine's shards, emitting results
// in arrival order when cfg.PreserveOrder is set.
func RunEngine(cl Lookuper, cfg EngineConfig, headers []Header, emit func(EngineResult)) (EngineStats, error) {
	return engine.Run(cl, cfg, headers, emit)
}

// Wire-format helpers (internal/wire): 64-byte Ethernet/IPv4 frames.

// BuildFrame serializes a header into a minimum-size Ethernet/IPv4 frame.
func BuildFrame(h Header) []byte { return wire.BuildFrame(h) }

// ParseFrame recovers the 5-tuple from an Ethernet/IPv4 frame, verifying
// the IPv4 header checksum.
func ParseFrame(f []byte) (Header, error) { return wire.ParseFrame(f) }

// Dynamic updates (internal/update): the authoritative rule list with
// atomic, RCU-style generation swaps — lookups stay wait-free while a new
// classifier generation is built off the fast path.
type (
	// UpdateManager owns a rule list and its live classifier generation.
	UpdateManager = update.Manager
	// UpdateOp is one insert or delete against the rule list.
	UpdateOp = update.Op
)

// NewUpdateManager wraps a rule set with dynamic-update support; the
// builder constructs each generation (e.g. close over NewExpCuts).
func NewUpdateManager(rs *RuleSet, build func(*RuleSet) (Classifier, error)) (*UpdateManager, error) {
	return update.NewManager(rs, func(rs *RuleSet) (update.Classifier, error) {
		return build(rs)
	})
}

// InsertRuleAt builds an insert op at the given priority position.
func InsertRuleAt(pos int, r Rule) UpdateOp { return update.InsertAt(pos, r) }

// DeleteRuleAt builds a delete op for the given priority position.
func DeleteRuleAt(pos int) UpdateOp { return update.DeleteAt(pos) }

// FlowCache is a bounded exact-match, set-associative cache in front of a
// classifier (internal/flowcache); results are identical, repeats skip
// the lookup.
type FlowCache = flowcache.Cache

// NewFlowCache wraps the classifier with a flow cache of the given
// capacity.
func NewFlowCache(cl Lookuper, capacity int) (*FlowCache, error) {
	return flowcache.New(cl, capacity)
}
