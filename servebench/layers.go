package main

import (
	"context"
	"fmt"
	"runtime/metrics"

	rapid "repro"
	"repro/internal/anml"
	"repro/internal/automata"
	"repro/internal/telemetry"
)

// metricDef names one reported metric. moves says which end-to-end
// metric a per-layer metric should move, and on which workload.
type metricDef struct{ name, unit, moves string }

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "p50_ms", unit: "ms"},
	{name: "peak_rps", unit: "1/s"},
	{name: "mount_p50_ms", unit: "ms"},
	{name: "peak_heap_mb", unit: "MiB"},
}

var perLayer = []metricDef{
	{"gateway.self_p50_ms", "ms", "p50_ms on match-small"},
	{"gateway.self_p99_ms", "ms", "p99_ms on match-small"},
	{"gateway.cache_hit_ratio", "ratio", "p50_ms and peak_rps on match-small"},
	{"gateway.failover_legs", "count", "error_frac on every workload"},
	{"serve.handler_p50_ms", "ms", "p50_ms on match-small"},
	{"serve.handler_p99_ms", "ms", "p99_ms on match-small"},
	{"serve.wait_ms_mean", "ms", "p50_ms on match-small"},
	{"serve.batch_size_mean", "count", "peak_rps on match-small"},
	{"serve.rejections", "count", "error_frac on every workload"},
	{"serve.mount_ms", "ms", "mount_p50_ms on reload-under-load"},
	{"engine.stream_ms_mean", "ms", "p50_ms and p90_ms on match-large-gc"},
	{"engine.mb_s", "MB/s", "p50_ms and p90_ms on match-large-gc"},
	{"engine.build_ms", "ms", "mount_p50_ms and setup_s"},
	{"lazydfa.fills_per_mib", "count/MiB", "p90_ms on match-large-gc"},
	{"lazydfa.evictions_per_mib", "count/MiB", "p90_ms on match-large-gc"},
	{"lazydfa.demotions", "count", "p90_ms on match-large-gc"},
	{"lazydfa.prefilter_skip_ratio", "ratio", "p90_ms on match-large-gc"},
	{"runtime.gc_cycles", "count", "p90_ms and peak_heap_mb on match-large-gc"},
	{"runtime.gc_cpu_frac", "ratio", "p90_ms and peak_heap_mb on match-large-gc"},
	{"lang.parse_ms", "ms", "mount_p50_ms on reload-under-load, setup_s"},
	{"codegen.compile_ms", "ms", "mount_p50_ms on reload-under-load, setup_s"},
	{"automata.optimize_ms", "ms", "mount_p50_ms on reload-under-load, setup_s"},
	{"place.place_ms", "ms", "mount_p50_ms on reload-under-load, setup_s"},
	{"place.stamp_ratio", "ratio", "mount_p50_ms on reload-under-load, setup_s"},
	{"artifact.marshal_ms", "ms", "mount_p50_ms on reload-under-load, setup_s"},
	{"gen.late_p99_ms", "ms", "none: how late the open-loop generator ran"},
	{"trace.overhead_ratio", "ratio", "none: traced p50_ms over untraced p50_ms"},
	{"error_frac", "ratio", "none: failed, refused and oracle-mismatched requests over attempted"},
}

// The compile-pipeline spans of the replay, one per public entry point.
var replayPhases = []struct{ span, metric string }{
	{"lang.parse", "lang.parse_ms"},
	{"codegen.compile", "codegen.compile_ms"},
	{"automata.optimize", "automata.optimize_ms"},
	{"place.place", "place.place_ms"},
	{"engine.build", "engine.build_ms"},
	{"artifact.marshal", "artifact.marshal_ms"},
}

// traced measures the per-layer metrics. The open-loop phase runs as four
// chunks at the workload's rate, alternately untraced and traced, so the
// tracing overhead compares like with like. The hot-mount stream runs
// beside them, as in the untraced run; idle mounts come in one batch after
// them. Last, every design the fleet mounted is replayed through the
// public compile calls, each inside its own span.
func (r *runner) traced(ctx context.Context) (*measured, error) {
	m := &measured{values: map[string]float64{}, samples: map[string]int{}}
	m.load.add(r.warm)
	chunk := r.dur / 4
	wait := func() error { return nil }
	if r.w.hotMounts {
		wait = r.hotMounts(ctx, r.dur)
	}
	before, rt0 := readCounters(r.fleet.reg), readRuntime()
	var plain, traced phase
	for k := 0; k < 4; k++ {
		r.tr.on.Store(k%2 == 1)
		p := openLoop(ctx, r.w.rate, int(r.w.rate*chunk.Seconds()), r.conns, r.prep(streamChunk+k), r.client.send)
		if k%2 == 1 {
			traced.add(p)
		} else {
			plain.add(p)
		}
	}
	after, rt1 := readCounters(r.fleet.reg), readRuntime()
	r.tr.on.Store(true)
	err := wait()
	if err == nil && !r.w.hotMounts {
		err = r.idleMounts(rounds * idleMountsPerRound)
	}
	var stamped, components int
	if err == nil {
		stamped, components, err = r.replay()
	}
	r.tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	m.load.add(&plain)
	m.load.add(&traced)

	spans := r.tr.snapshot()
	link(spans, "gateway", "serve")
	m.spans = spans
	v, n := m.values, m.samples
	set := func(name string, value float64, samples int) {
		v[name] = value
		n[name] = samples
	}

	self := selfTimes(spans, "gateway")
	set("gateway.self_p50_ms", quantile(self, 0.5), len(self))
	set("gateway.self_p99_ms", quantile(self, 0.99), len(self))
	handler := durations(spans, "serve")
	set("serve.handler_p50_ms", quantile(handler, 0.5), len(handler))
	set("serve.handler_p99_ms", quantile(handler, 0.99), len(handler))
	var mounts []float64
	for _, s := range spans {
		if s.Name == "serve.apply_manifest" && s.Parent < 0 { // a mount on the live fleet
			mounts = append(mounts, s.ms())
		}
	}
	set("serve.mount_ms", median(mounts), len(mounts))
	for _, p := range replayPhases {
		d := durations(spans, p.span)
		set(p.metric, mean(d), len(d))
	}
	set("place.stamp_ratio", ratio(float64(stamped), float64(components)), components)

	c := after.sub(before)
	hits, misses := c.value("rapid_gateway_cache_hits_total"), c.value("rapid_gateway_cache_misses_total")
	v["gateway.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["gateway.failover_legs"] = c.value("rapid_gateway_failovers_total")
	stream := c.mean("rapid_backend_stream_duration_us") / 1000
	v["serve.wait_ms_mean"] = c.mean("rapid_serve_request_duration_us")/1000 - stream
	v["serve.batch_size_mean"] = c.mean("rapid_serve_batch_size")
	v["serve.rejections"] = c.value("rapid_serve_admission_rejections_total")
	v["engine.stream_ms_mean"] = stream
	engineBytes := c.value("rapid_backend_bytes_total")
	v["engine.mb_s"] = ratio(engineBytes, c.sum("rapid_backend_stream_duration_us")) // bytes/µs = MB/s
	mib := engineBytes / (1 << 20)
	v["lazydfa.fills_per_mib"] = ratio(c.value("rapid_lazydfa_cache_fills_total"), mib)
	v["lazydfa.evictions_per_mib"] = ratio(c.value("rapid_lazydfa_cache_evictions_total"), mib)
	v["lazydfa.demotions"] = c.value("rapid_lazydfa_demotions_total")
	v["lazydfa.prefilter_skip_ratio"] = ratio(c.value("rapid_lazydfa_prefilter_skipped_bytes_total"), engineBytes)
	v["runtime.gc_cycles"] = rt1.gcCycles - rt0.gcCycles
	v["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)

	var all phase
	all.add(&plain)
	all.add(&traced)
	set("gen.late_p99_ms", quantile(all.late, 0.99), len(all.late))
	set("trace.overhead_ratio", ratio(median(traced.latencies), median(plain.latencies)), len(traced.latencies))
	v["error_frac"] = ratio(float64(m.load.failed()), float64(m.load.attempted()))
	return m, nil
}

// replay runs every mounted design through the public compile pipeline
// (Parse, Compile, OptimizeForDevice, EnsurePlaced through one shared
// placement cache as a replica would, NewEngine, MarshalArtifact), each
// call inside a span, and counts stamped and placed components.
func (r *runner) replay() (stamped, components int, err error) {
	cache := rapid.NewPlacementCache()
	for _, d := range r.mounted {
		root := r.tr.start("replay", 0, -1, 1)
		s, c, err := r.replayOne(root, d, cache)
		r.tr.end(root)
		if err != nil {
			return 0, 0, fmt.Errorf("replay %s: %w", d.name, err)
		}
		stamped += s
		components += c
	}
	return stamped, components, nil
}

func (r *runner) replayOne(root int, d design, cache *rapid.PlacementCache) (stamped, components int, err error) {
	src, args := d.program()
	var prog *rapid.Program
	var des, opt *rapid.Design
	steps := []func() error{
		func() (err error) { prog, err = rapid.Parse(src); return err },
		func() (err error) { des, err = prog.Compile(args...); return err },
		func() error { opt = des.OptimizeForDevice(); return nil },
		func() error { _, err := des.EnsurePlaced(cache); return err },
		func() error { _, err := des.NewEngine(); return err },
		func() error { _, err := des.MarshalArtifact(); return err },
	}
	for i, step := range steps {
		if err := r.tr.timed(replayPhases[i].span, root, 1, step); err != nil {
			return 0, 0, err
		}
	}
	pl, err := des.PlaceAndRoute() // reuses the placement made above
	if err != nil {
		return 0, 0, err
	}
	doc, err := opt.ANML()
	if err != nil {
		return 0, 0, err
	}
	net, err := anml.Unmarshal(doc)
	if err != nil {
		return 0, 0, err
	}
	top, err := net.Freeze()
	if err != nil {
		return 0, 0, err
	}
	return pl.Stamped, len(automata.Components(top, nil)), nil
}

// counters sums a telemetry registry's series by metric name: counters
// and gauges by value, histograms by observation count, with histogram
// sums under name+"#sum".
type counters map[string]float64

func readCounters(reg *telemetry.Registry) counters {
	c := counters{}
	for _, m := range reg.Snapshot().Metrics {
		for _, s := range m.Series {
			c[m.Name] += s.Value
			if m.Kind == telemetry.KindHistogram {
				c[m.Name+"#sum"] += float64(s.Sum)
			}
		}
	}
	return c
}

func (c counters) sub(base counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

func (c counters) value(name string) float64 { return c[name] }
func (c counters) sum(name string) float64   { return c[name+"#sum"] }

// mean is a histogram's mean observation. The program's histograms have
// power-of-two buckets, so only Sum/Count means are exact.
func (c counters) mean(name string) float64 { return ratio(c.sum(name), c.value(name)) }

// runtimeStats are the Go runtime's cumulative GC counters.
type runtimeStats struct{ gcCycles, gcCPU, totalCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}
