// Command servebench is the repository's end-to-end serving benchmark. One
// process runs a gateway in front of two serve replicas over loopback
// HTTP, mounts RAPID designs on them, drives /v1/match traffic from a
// seeded generator, checks every response against the paper benchmarks'
// CPU oracles, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run). Run it from the repository root through run.sh:
//
//	bash servebench/run.sh --workload match-small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it print each
// metric with its unit and sample count; a fuller record of the run, and
// the traced run's spans, go under --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: match-small, match-large-gc or reload-under-load")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "servebench"), "directory for run records, span traces and scratch artifact caches")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil {
		err = run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the fuller account of a run written under --out.
type record struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Result     result            `json:"result"`
	Samples    map[string]int    `json:"samples"`
	Moves      map[string]string `json:"moves,omitempty"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Problems   []string          `json:"problems,omitempty"`
	// Latencies are the untraced run's open-loop latencies in ms, in
	// completion order.
	Latencies []float64 `json:"open_latencies_ms,omitempty"`
	// Mounts are the ApplyManifest durations in ms, in mount order.
	Mounts []string `json:"mounts,omitempty"`
}

func run(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool, out string) error {
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	r, err := newRunner(ctx, w, seed, dur, tmp, traced)
	if err != nil {
		return err
	}
	var m *measured
	if traced {
		m, err = r.traced(ctx)
	} else {
		m, err = r.untraced(ctx)
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	res := result{
		Correct:   m.load.counts[outcomeMismatch] == 0,
		Attempted: m.load.attempted(),
		Failed:    m.load.failed(),
		Metrics:   map[string]metric{},
	}
	rec := record{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: dur.Seconds(), Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Samples: m.samples, Mismatches: r.client.mismatches, Problems: r.client.problems,
		Latencies: m.open,
	}
	for k, ms := range r.mounts {
		rec.Mounts = append(rec.Mounts, fmt.Sprintf("%s %.1f", r.mounted[len(w.designs)+k].name, ms))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		rec.Moves = map[string]string{}
	}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-30s %14.4f %-10s", d.name, v, d.unit)
		if n, ok := m.samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if traced {
			rec.Moves[d.name] = d.moves
			line += "  moves " + d.moves
		}
		fmt.Println(line)
	}
	if !traced {
		// Printed but kept out of the result line: on a shared 2-core
		// machine a neighbour's load moved p90 by up to 27% and p99 by up
		// to 70% between runs, more than any bound a regression gate can
		// allow.
		for _, name := range []string{"p90_ms", "p99_ms"} {
			fmt.Printf("%-30s %14.4f %-10s n=%d (not in the result line)\n", name, m.values[name], "ms", m.samples[name])
		}
		fmt.Printf("%-30s %14.4f %-10s n=%d\n", "error_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)
	}
	fmt.Printf("requests: attempted=%d failed=%d (refused=%d, oracle-mismatched=%d)\n",
		res.Attempted, res.Failed, m.load.counts[outcomeRefused], m.load.counts[outcomeMismatch])
	for _, msg := range r.client.mismatches {
		fmt.Fprintln(os.Stderr, "servebench: oracle mismatch:", msg)
	}
	for _, msg := range r.client.problems {
		fmt.Fprintln(os.Stderr, "servebench: failed request:", msg)
	}
	rec.Result = res

	kind := "e2e"
	if traced {
		kind = "trace"
		if err := writeSpans(filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed)), m.spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("%s-seed%d-%s.json", w.name, seed, kind)), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
