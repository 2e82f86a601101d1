package rulegen

import (
	"fmt"

	"repro/internal/rules"
)

// StandardName identifies one of the paper's seven named rule sets.
type StandardName string

// The seven rule sets of the paper's evaluation (§6.1), in the order its
// figures present them. Sizes for the FW and smaller CR sets are not given
// in the paper; we use plausible values growing roughly geometrically and
// match the one published size exactly (CR04 = 1945 rules).
var standardConfigs = []Config{
	{Kind: Firewall, Size: 85, Seed: 0xF001, Name: "FW01"},
	{Kind: Firewall, Size: 160, Seed: 0xF002, Name: "FW02"},
	{Kind: Firewall, Size: 310, Seed: 0xF003, Name: "FW03"},
	{Kind: CoreRouter, Size: 460, Seed: 0xC001, Name: "CR01"},
	{Kind: CoreRouter, Size: 920, Seed: 0xC002, Name: "CR02"},
	{Kind: CoreRouter, Size: 1530, Seed: 0xC003, Name: "CR03"},
	{Kind: CoreRouter, Size: 1945, Seed: 0xC004, Name: "CR04"},
}

// StandardNames lists the seven set names in presentation order.
func StandardNames() []string {
	names := make([]string, len(standardConfigs))
	for i, c := range standardConfigs {
		names[i] = c.Name
	}
	return names
}

// StandardConfig resolves a set name — standard (FW01…CR04) or large
// preset (ACL1_1K…ACL1_1M) — to its generation config without building
// the set. Callers that stream rules (pcgen at 100k–1M) use this to avoid
// materializing the whole set before the first byte is written.
func StandardConfig(name string) (Config, bool) {
	for _, c := range standardConfigs {
		if c.Name == name {
			return c, true
		}
	}
	return Large(name)
}

// Standard generates the named standard rule set (FW01…CR04), or one of
// the production-scale presets (ACL1_1K…ACL1_1M). The large presets resolve
// here so every command-line `-ruleset` flag accepts them, but they stay
// out of StandardNames: the paper-table drivers print exactly seven rows.
func Standard(name string) (*rules.RuleSet, error) {
	for _, c := range standardConfigs {
		if c.Name == name {
			return Generate(c)
		}
	}
	if c, ok := Large(name); ok {
		return Generate(c)
	}
	return nil, fmt.Errorf("rulegen: unknown standard rule set %q (have %v and large presets %v)", name, StandardNames(), LargeNames())
}
