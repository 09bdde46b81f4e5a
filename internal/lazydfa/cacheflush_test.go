package lazydfa_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lazydfa"
	"repro/internal/rapidgen"
)

// lazyVariants are the matcher configurations every differential test
// runs on net: byte caps of 2 and 3 states that force per-state eviction
// on almost every intern, the default cap, and each of those with the
// prefilter forced on (default where facts exist) and off.
func lazyVariants(tb testing.TB, net *automata.Network) map[string]*lazydfa.Options {
	cap3 := lazydfa.CapBytes(tb, net, 3)
	return map[string]*lazydfa.Options{
		"cap2":             {MaxCacheBytes: 1},
		"cap2-noprefilter": {MaxCacheBytes: 1, DisablePrefilter: true},
		"cap3":             {MaxCacheBytes: cap3},
		"cap3-noprefilter": {MaxCacheBytes: cap3, DisablePrefilter: true},
		"adaptive":         {},
		"adaptive-nopf":    {DisablePrefilter: true},
	}
}

// tinyCap reports whether a lazyVariants entry is one of the evicting caps.
func tinyCap(name string) bool { return strings.HasPrefix(name, "cap") }

// TestCacheEvictionBoundaries runs the lazy-DFA matcher at the tightest
// legal state-cache sizes — where eviction and lazy in-edge repair fire on
// almost every interned state — over counter-heavy generated programs,
// comparing every report against the bitset reference simulator, with the
// prefilter forced on and off.
func TestCacheEvictionBoundaries(t *testing.T) {
	cfg := rapidgen.DefaultConfig()
	cfg.MaxCounters = 2
	g := rapidgen.NewWithConfig(31, cfg)

	evictions := 0
	lazyTiers := 0
	for i := 0; i < 25; i++ {
		p := g.Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("program %d does not load: %v", i, err)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("program %d does not compile: %v", i, err)
		}
		sim, err := automata.NewFastSimulator(res.Network)
		if err != nil {
			t.Fatalf("program %d: fast simulator: %v", i, err)
		}
		inputs := rapidgen.Inputs(p, 5)

		for name, opts := range lazyVariants(t, res.Network) {
			m, err := lazydfa.New(res.Network, opts)
			if err != nil {
				t.Fatalf("program %d %s: %v", i, name, err)
			}
			if m.HasLazyTier() {
				lazyTiers++
			}
			for _, input := range inputs {
				want := reportKeys(sim.Clone().Run(input))
				got := lazyKeys(m.Run(input))
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Errorf("program %d %s input %q: lazy %v, bitset %v\n%s",
						i, name, input, got, want, p.Source)
				}
			}
			evictions += m.Evictions()
			if m.Demotions() != 0 {
				t.Errorf("program %d %s: whole-cache flush under per-state eviction", i, name)
			}
		}
	}
	if lazyTiers == 0 {
		t.Error("no generated program produced a lazy (counter-free) tier; the cache was never exercised")
	}
	if evictions == 0 {
		t.Error("no eviction occurred at the minimum cache size; boundary untested")
	}
}

// TestPaperBenchmarkParity runs all five paper benchmarks through every
// lazy-matcher variant (tiny evicting caches, default cap, prefilter
// on/off) against the FastSimulator oracle, asserting identical
// (offset, code) report sets and that the tiny caches evicted.
func TestPaperBenchmarkParity(t *testing.T) {
	const streamBytes = 1 << 15
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src, args := b.RAPID(b.DefaultInstances)
			prog, err := core.Load(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Compile(args, nil)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := automata.NewFastSimulator(res.Network)
			if err != nil {
				t.Fatal(err)
			}
			input := b.Input(rand.New(rand.NewSource(97)), streamBytes)
			want := reportKeys(sim.Clone().Run(input))
			for name, opts := range lazyVariants(t, res.Network) {
				m, err := lazydfa.New(res.Network, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Two passes: cold cache, then warm (or post-demotion).
				for pass := 0; pass < 2; pass++ {
					got := lazyKeys(m.Run(input))
					if fmt.Sprint(want) != fmt.Sprint(got) {
						t.Fatalf("%s pass %d: %d lazy reports vs %d oracle reports",
							name, pass, len(got), len(want))
					}
				}
				if tinyCap(name) && m.HasLazyTier() && m.Evictions() == 0 {
					t.Errorf("%s: the tiny cache never evicted", name)
				}
			}
		})
	}
}

func reportKeys(rs []automata.Report) map[[2]int]bool {
	m := map[[2]int]bool{}
	for _, r := range rs {
		m[[2]int{r.Offset, r.Code}] = true
	}
	return m
}

func lazyKeys(rs []lazydfa.Report) map[[2]int]bool {
	m := map[[2]int]bool{}
	for _, r := range rs {
		m[[2]int{r.Offset, r.Code}] = true
	}
	return m
}

// TestAdaptiveBudgetGrows checks the budget doubles away from its 64-state
// start when the working set does not fit — Gappy's runs to tens of
// thousands of states — instead of thrashing at the start size, and that
// the growth absorbs the working set without demotion.
func TestAdaptiveBudgetGrows(t *testing.T) {
	net, b := benchNetwork(t, "Gappy")
	m, err := lazydfa.New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheBudget() != 64 {
		t.Fatalf("initial budget = %d, want 64", m.CacheBudget())
	}
	input := b.Input(rand.New(rand.NewSource(17)), 1<<16)
	sim, err := automata.NewFastSimulator(net)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(lazyKeys(m.Run(input))), fmt.Sprint(reportKeys(sim.Run(input))); got != want {
		t.Fatal("growing run diverged from the reference")
	}
	if m.CacheBudget() <= 64 || m.CachedStates() <= 64 {
		t.Fatalf("budget never grew past 64: budget %d, %d states, %d evictions", m.CacheBudget(), m.CachedStates(), m.Evictions())
	}
	if m.Demoted() {
		t.Fatal("budget growth should have absorbed the working set without demotion")
	}
}
