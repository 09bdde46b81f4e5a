package rapid

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

// TestEngineMatchesSimulatorOnBenchmarks is the paper-benchmark half of the
// lazy-DFA cross-check property: on all five benchmark apps the engine's
// report set equals both the reference simulator's and the fast bitset
// simulator's. Brill and MOTOMATA contain counters, so this also exercises
// the hybrid fallback on real designs.
func TestEngineMatchesSimulatorOnBenchmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src, args := b.RAPID(b.DefaultInstances)
			prog, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			design, err := prog.Compile(args...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := design.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			small, err := design.NewEngine(WithMaxCacheBytes(capBytes(t, design, 16)), WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			runner, err := design.NewRunner()
			if err != nil {
				t.Fatal(err)
			}
			input := b.Input(rng, 2048)
			want, err := design.RunBytes(input) // reference simulator
			if err != nil {
				t.Fatal(err)
			}
			wantSet := reportSet(want)
			if fast := reportSet(mustRunBytes(t, runner, input)); !reflect.DeepEqual(fast, wantSet) {
				t.Fatalf("fast simulator diverged from reference")
			}
			got, err := eng.Run(context.Background(), input)
			if err != nil {
				t.Fatal(err)
			}
			if gotSet := reportSet(got); !reflect.DeepEqual(gotSet, wantSet) {
				t.Fatalf("engine report set %v != simulator %v", gotSet, wantSet)
			}
			gotSmall, err := small.Run(context.Background(), input)
			if err != nil {
				t.Fatal(err)
			}
			if smallSet := reportSet(gotSmall); !reflect.DeepEqual(smallSet, wantSet) {
				t.Fatalf("cache-bound engine diverged (tiers %s)", small.Tiers())
			}
			if strings.HasPrefix(small.Tiers(), "lazy-dfa") && reg.Counter("rapid_lazydfa_cache_evictions_total", "").Value() == 0 {
				t.Fatalf("the 16-state cache never evicted (tiers %s)", small.Tiers())
			}
		})
	}
}

// capBytes returns the WithMaxCacheBytes value that caps design's lazy-DFA
// cache at states states, reading the per-state estimate off a warmed
// engine.
func capBytes(t *testing.T, design *Design, states int) int64 {
	t.Helper()
	eng, err := design.NewEngine(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), []byte{0}); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.States == 0 {
		return 1 // no lazy tier: the cap is never consulted
	}
	return int64(states) * (st.Bytes / int64(st.States))
}

// TestEngineRunBatchOrder checks RunBatch returns results in input order,
// identical to stream-at-a-time execution, across a multi-worker pool.
func TestEngineRunBatchOrder(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() != 8 {
		t.Fatalf("workers = %d", eng.Workers())
	}
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]byte, 37)
	for i := range inputs {
		in := make([]byte, 100+rng.Intn(400))
		for j := range in {
			in[j] = byte('a' + rng.Intn(3))
		}
		inputs[i] = in
	}
	got, err := eng.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(got), len(inputs))
	}
	for i, input := range inputs {
		want, err := eng.Run(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reportSet(got[i]), reportSet(want)) {
			t.Fatalf("stream %d out of order or wrong: %v != %v", i, got[i], want)
		}
	}
	// Repeated batches on warm pools stay stable.
	again, err := eng.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !reflect.DeepEqual(reportSet(got[i]), reportSet(again[i])) {
			t.Fatalf("warm batch diverged on stream %d", i)
		}
	}
}

// TestEngineRunBatchCancel checks cancellation surfaces an error.
func TestEngineRunBatchCancel(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := make([][]byte, 16)
	for i := range inputs {
		inputs[i] = make([]byte, 1<<17)
	}
	if _, err := eng.RunBatch(ctx, inputs); err == nil {
		t.Fatal("cancelled batch should error")
	}
}

// TestEngineRunRecords checks the framed-record path: per-record parallel
// execution with offsets rebased to stream coordinates matches a
// whole-stream run for record-independent designs.
func TestEngineRunRecords(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	records := []string{"xxabcx", "abc", "bca", "aabcabc", "zzz"}
	stream := FrameStrings(records...)
	want, err := design.RunBytes(stream)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunRecords(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("records = %d, want %d", len(got), len(records))
	}
	var merged []Report
	for i, rr := range got {
		if rr.Index != i {
			t.Fatalf("record %d has index %d", i, rr.Index)
		}
		merged = append(merged, rr.Reports...)
	}
	if !reflect.DeepEqual(reportSet(merged), reportSet(want)) {
		t.Fatalf("record reports %v != whole-stream %v", reportSet(merged), reportSet(want))
	}
}

// TestEngineReportSites checks the engine resolves report sites like the
// other backends.
func TestEngineReportSites(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("ab"))
	eng, err := design.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.Run(context.Background(), []byte("xabx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 || reports[0].Site == "" {
		t.Fatalf("engine lost report sites: %v", reports)
	}
}

// TestEngineCounterDesign checks an all-counter design (no lazy tier) still
// runs through the engine, including batches.
func TestEngineCounterDesign(t *testing.T) {
	const src = `
network (String s) {
  Counter cnt;
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    cnt.count();
    cnt >= 2;
    report;
  }
}`
	design := mustDesign(t, src, Str("ab"))
	eng, err := design.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tiers() != "bitset" {
		t.Fatalf("tiers = %q, want bitset", eng.Tiers())
	}
	input := []byte("abxabxab")
	want, err := design.RunBytes(input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reportSet(got), reportSet(want)) {
		t.Fatalf("engine %v != simulator %v", reportSet(got), reportSet(want))
	}
}

// BenchmarkEngineBatch measures multi-stream scaling: the same byte volume
// through Engine.Run one stream at a time versus RunBatch across the
// worker pool. On multi-core hosts the batch path approaches
// workers × single-stream throughput; BENCH_throughput.json records the
// measured ratio.
func BenchmarkEngineBatch(b *testing.B) {
	design, err := mustProgramBench(slidingSrc).Compile(Str("abc"))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const streams, streamBytes = 32, 1 << 15
	inputs := make([][]byte, streams)
	for i := range inputs {
		in := make([]byte, streamBytes)
		for j := range in {
			in[j] = byte('a' + rng.Intn(3))
		}
		inputs[i] = in
	}
	for _, workers := range []int{1, 8} {
		eng, err := design.NewEngine(WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(streams * streamBytes))
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunBatch(context.Background(), inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustProgramBench(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// TestEngineRunBatchSettledParity checks the settled batch path returns
// the same per-stream reports as RunBatch, with nil per-stream errors.
func TestEngineRunBatchSettledParity(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	inputs := make([][]byte, 23)
	for i := range inputs {
		in := make([]byte, 50+rng.Intn(200))
		for j := range in {
			in[j] = byte('a' + rng.Intn(3))
		}
		inputs[i] = in
	}
	want, err := eng.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := eng.RunBatchSettled(context.Background(), inputs)
	if len(got) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(got), len(inputs))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("stream %d: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual(reportSet(got[i].Reports), reportSet(want[i])) {
			t.Fatalf("stream %d diverged from RunBatch", i)
		}
	}
	if res := eng.RunBatchSettled(context.Background(), nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

// TestEngineRunBatchSettledCancel checks cancellation settles per-stream
// errors carrying the stream index instead of aborting the whole batch.
func TestEngineRunBatchSettledCancel(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = make([]byte, 1<<17)
	}
	results := eng.RunBatchSettled(ctx, inputs)
	if len(results) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(results), len(inputs))
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("stream %d settled without an error under a cancelled context", i)
		}
		if want := fmt.Sprintf("stream %d", i); !strings.Contains(r.Err.Error(), want) {
			t.Fatalf("stream %d error %q does not name its stream", i, r.Err)
		}
	}
}

// TestEngineCacheSurvivesGC checks the engine's lazy-DFA cache outlives
// garbage collection: once a pure-STE design is warm on an input, the same
// input run again after two GCs (which empty every sync.Pool) materializes
// no transitions at all.
func TestEngineCacheSurvivesGC(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	reg := telemetry.NewRegistry()
	eng, err := design.NewEngine(WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tiers() != "lazy-dfa" {
		t.Fatalf("tiers = %q, want a pure lazy-dfa design", eng.Tiers())
	}
	fills := reg.Counter("rapid_lazydfa_cache_fills_total", "")
	rng := rand.New(rand.NewSource(3))
	input := make([]byte, 1<<14)
	for i := range input {
		input[i] = "abcx"[rng.Intn(4)]
	}
	run := func() uint64 {
		t.Helper()
		before := fills.Value()
		if _, err := eng.Run(context.Background(), input); err != nil {
			t.Fatal(err)
		}
		return fills.Value() - before
	}
	// Warm until a run fills nothing: the prefilter may switch itself off
	// during the first runs, which changes the transitions a run steps.
	for i := 0; run() != 0; i++ {
		if i == 5 {
			t.Fatal("the cache never settled on a repeated input")
		}
	}
	runtime.GC()
	runtime.GC()
	if n := run(); n != 0 {
		t.Fatalf("the run after GC filled %d transitions; the warm cache should have survived", n)
	}
}

// hybridANML is two sliding STE matchers, which run on the lazy DFA, next
// to a counter component, which runs on the bitset tier. (Compiled RAPID
// whenevers all hang off the shared record-separator STE, so they form one
// component and cannot split.)
const hybridANML = `<anml version="1.0"><automata-network id="hybrid">
<state-transition-element id="a0" symbol-set="[a]" start="all-input"><activate-on-match element="a1"/></state-transition-element>
<state-transition-element id="a1" symbol-set="[b]"><activate-on-match element="a2"/></state-transition-element>
<state-transition-element id="a2" symbol-set="[c]"><report-on-match reportcode="0"/></state-transition-element>
<state-transition-element id="b0" symbol-set="[b]" start="all-input"><activate-on-match element="b1"/></state-transition-element>
<state-transition-element id="b1" symbol-set="[c]"><activate-on-match element="b2"/></state-transition-element>
<state-transition-element id="b2" symbol-set="[a]"><report-on-match reportcode="1"/></state-transition-element>
<state-transition-element id="c0" symbol-set="[a]" start="all-input"><activate-on-match element="cnt:cnt"/></state-transition-element>
<state-transition-element id="c1" symbol-set="[r]" start="all-input"><activate-on-match element="cnt:rst"/></state-transition-element>
<state-transition-element id="c2" symbol-set="[z]" start="all-input"><activate-on-match element="and"/></state-transition-element>
<counter id="cnt" target="2" at-target="latch"><activate-on-target element="and"/></counter>
<and id="and"><report-on-high reportcode="2"/></and>
</automata-network></anml>`

// TestEngineConcurrentHammer runs 8 goroutines of Run and RunBatchSettled
// on one engine and checks every result against the reference simulator,
// in the three regimes where walkers contend for the shared cache: an
// 8-state cap on Exact that evicts while other walkers read but stays far
// below the demotion threshold (ARM's working set thrashes past it at any
// cap below its size), a 2-state cap under which one walker demotes the
// design mid-stream while the others run, and a counter design whose
// hybrid split runs a bitset tier next to a 5-state lazy cache that evicts
// without demoting.
func TestEngineConcurrentHammer(t *testing.T) {
	benchCase := func(name string) (*Design, func(*rand.Rand, int) []byte) {
		b := bench.ByName(name)
		src, args := b.RAPID(b.DefaultInstances)
		return mustDesign(t, src, args...), b.Input
	}
	cases := []struct {
		name      string
		design    func() (*Design, func(*rand.Rand, int) []byte)
		capStates int
		tiers     string
		demotes   bool
	}{
		{"evicting", func() (*Design, func(*rand.Rand, int) []byte) { return benchCase("Exact") },
			8, "lazy-dfa", false},
		{"demoting", func() (*Design, func(*rand.Rand, int) []byte) { return benchCase("Gappy") },
			2, "lazy-dfa", true},
		{"hybrid", func() (*Design, func(*rand.Rand, int) []byte) {
			design, err := LoadANML([]byte(hybridANML))
			if err != nil {
				t.Fatal(err)
			}
			return design, func(rng *rand.Rand, n int) []byte {
				in := make([]byte, n)
				for i := range in {
					in[i] = "abcrz"[rng.Intn(5)]
				}
				return in
			}
		}, 5, "lazy-dfa+bitset", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			design, gen := tc.design()
			reg := telemetry.NewRegistry()
			eng, err := design.NewEngine(WithMaxCacheBytes(capBytes(t, design, tc.capStates)), WithWorkers(4), WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			if eng.Tiers() != tc.tiers {
				t.Fatalf("tiers = %q, want %q", eng.Tiers(), tc.tiers)
			}
			rng := rand.New(rand.NewSource(21))
			inputs := make([][]byte, 8)
			want := make([][][2]int, len(inputs))
			for i := range inputs {
				inputs[i] = gen(rng, 2*4096+rng.Intn(4096))
				ref, err := design.RunBytes(inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = reportSet(ref)
			}
			check := func(i int, got []Report, err error) {
				if err != nil {
					t.Errorf("input %d: %v", i, err)
				} else if !reflect.DeepEqual(reportSet(got), want[i]) {
					t.Errorf("input %d: %d reports, reference %d", i, len(reportSet(got)), len(want[i]))
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 2; round++ {
						i := (g + round) % len(inputs)
						got, err := eng.Run(context.Background(), inputs[i])
						check(i, got, err)
						lo := (g + 3*round) % (len(inputs) - 2)
						for k, r := range eng.RunBatchSettled(context.Background(), inputs[lo:lo+3]) {
							check(lo+k, r.Reports, r.Err)
						}
					}
				}()
			}
			wg.Wait()
			if reg.Counter("rapid_lazydfa_cache_evictions_total", "").Value() == 0 {
				t.Fatal("the cache never evicted; the contended path went untested")
			}
			demotions := reg.Counter("rapid_lazydfa_demotions_total", "").Value()
			if tc.demotes {
				if !eng.CacheStats().Demoted || demotions != 1 {
					t.Fatalf("design should have demoted exactly once: demoted=%v demotions=%d", eng.CacheStats().Demoted, demotions)
				}
			} else if demotions != 0 {
				t.Fatalf("the cache should have evicted without demoting, got %d demotions", demotions)
			}
		})
	}
}
