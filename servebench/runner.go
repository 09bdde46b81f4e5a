package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

const (
	// setupReps is how many times an untraced run sets the fleet up; it
	// reports the median set-up time.
	setupReps = 9
	// warmup is the untimed closed-loop phase after set-up that fills the
	// engines' lazy-DFA caches and the gateway's connection pools.
	warmup = 1500 * time.Millisecond
	// rounds is how many times an untraced run cycles through its phases
	// (open loop, closed loop, idle mounts). The machine's speed drifts
	// over seconds, so each metric is sampled at every point of the run
	// instead of in one stretch of it.
	rounds = 12
	// idleMountsPerRound is how many designs the workloads without a
	// hot-mount stream mount, one at a time, on the idle fleet each round.
	idleMountsPerRound = 6
	// hotMountEvery spaces the reload-under-load mount stream.
	hotMountEvery = 500 * time.Millisecond
)

// Streams of request indices, one per kind of phase, so no phase replays
// another's inputs and the gateway cache sees only the workload's own
// repeats. The rounds of an untraced run continue their stream's indices.
const (
	streamWarmup = iota
	streamOpen
	streamClosed
	streamChunk // traced-run open-loop chunks use streamChunk+k
)

// runner owns one run's fleet, generator and client.
type runner struct {
	w       *workload
	seed    int64
	dur     time.Duration
	conns   int
	src     source
	tr      *tracer
	fleet   *fleet
	client  *client
	setups  []float64 // seconds
	stream  []design  // the designs mounts take, in order
	mounted []design
	mounts  []float64 // ms per ApplyManifest of one design
	warm    *phase
}

// newRunner sets the fleet up reps times, keeping the last, and warms it.
func newRunner(ctx context.Context, w *workload, seed int64, dur time.Duration, tmp string, traced bool) (*runner, error) {
	src, err := w.newSource(seed, w.designs)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, seed: seed, dur: dur, conns: runtime.NumCPU(), src: src, mounted: slices.Clone(w.designs)}
	mounts := rounds * idleMountsPerRound
	if w.hotMounts {
		mounts = max(rounds*mountsIn(dur*3/4/rounds), mountsIn(dur))
	}
	r.stream = mountStream(seed, mounts)
	reps := setupReps
	if traced {
		r.tr = newTracer()
		r.tr.on.Store(true)
		reps = 1
	}
	specs := make([]serve.DesignSpec, len(w.designs))
	for i, d := range w.designs {
		specs[i] = d.spec()
	}
	for k := 0; k < reps; k++ {
		runtime.GC()
		dir, err := os.MkdirTemp(tmp, "fleet-")
		if err != nil {
			return nil, err
		}
		f, took, err := startFleet(ctx, dir, specs, r.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, took.Seconds())
		if k < reps-1 {
			if err := f.close(); err != nil {
				return nil, err
			}
			continue
		}
		r.fleet = f
	}
	if traced {
		r.tr.on.Store(false)
	}
	for deadline := time.Now().Add(10 * time.Second); !r.fleet.allReady(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("set-up: replicas never all probed ready")
		}
	}
	r.client = newClient(r.fleet.url, r.conns)
	r.warm = closedLoop(ctx, warmup, r.conns, r.prep(streamWarmup), r.client.send)
	return r, nil
}

func (r *runner) close() error {
	if r.client != nil {
		r.client.hc.CloseIdleConnections()
	}
	return r.fleet.close()
}

func (r *runner) prep(stream int) func(int) *request {
	return func(i int) *request {
		if r.w.coldEngine {
			runtime.GC()
			runtime.GC()
		}
		return r.src.prep(stream, i)
	}
}

// prepFrom is prep(stream) with request indices starting at from.
func (r *runner) prepFrom(stream, from int) func(int) *request {
	prep := r.prep(stream)
	return func(i int) *request { return prep(from + i) }
}

// mount mounts the next design of the mount stream on replica k mod
// replicaCount of the live fleet, k counting mounts from 0, and records
// how long ApplyManifest took. It returns the replica and the design.
func (r *runner) mount() (int, design, error) {
	k := len(r.mounts)
	if k >= len(r.stream) {
		return 0, design{}, fmt.Errorf("mount stream of %d designs exhausted", len(r.stream))
	}
	d, i := r.stream[k], k%replicaCount
	took, err := r.fleet.mount(i, d.spec())
	if err != nil {
		return 0, design{}, fmt.Errorf("mount %s: %w", d.name, err)
	}
	r.mounts = append(r.mounts, float64(took.Nanoseconds())/1e6)
	r.mounted = append(r.mounted, d)
	return i, d, nil
}

// mountOnce mounts the next design of the mount stream and unmounts it
// again (untimed), so every mount lands on a replica serving only the
// workload's own designs and the fleet's heap does not grow with the
// number of mounts.
func (r *runner) mountOnce() error {
	i, d, err := r.mount()
	if err != nil {
		return err
	}
	if err := r.fleet.unmount(i, d.name); err != nil {
		return fmt.Errorf("unmount %s: %w", d.name, err)
	}
	return nil
}

// idleMounts mounts n designs one after another on the idle fleet, each
// from a collected heap, so that garbage left by the traffic phases or the
// previous mount does not decide how much GC work a mount pays for.
func (r *runner) idleMounts(n int) error {
	for ; n > 0; n-- {
		runtime.GC()
		if err := r.mountOnce(); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// hotMounts starts the hot-mount stream in the background: one mount (and
// unmount) every hotMountEvery from now until span has passed, on
// alternating replicas. The returned function waits for it.
func (r *runner) hotMounts(ctx context.Context, span time.Duration) func() error {
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for k := 0; time.Duration(k)*hotMountEvery < span; k++ {
			if !sleepUntil(ctx, start.Add(time.Duration(k)*hotMountEvery)) {
				err = ctx.Err()
				return
			}
			if err = r.mountOnce(); err != nil {
				return
			}
		}
	}()
	return func() error { wg.Wait(); return err }
}

// mountsIn is how many mounts hotMounts starts over span.
func mountsIn(span time.Duration) int {
	return int((span + hotMountEvery - 1) / hotMountEvery)
}

// measured is what a run reports.
type measured struct {
	load    phase // every request of the run, warm-up included
	values  map[string]float64
	samples map[string]int
	spans   []span
	open    []float64 // untraced open-loop latencies, ms
}

// untraced measures the end-to-end metrics over rounds rounds, each an
// open-loop phase at the workload's rate (with the hot-mount stream
// running, for reload-under-load), then a closed-loop phase at conns
// connections, then (for the other workloads) idleMountsPerRound idle
// mounts. Three quarters of the measured time go to the open loop.
func (r *runner) untraced(ctx context.Context) (*measured, error) {
	m := &measured{values: map[string]float64{}, samples: map[string]int{}}
	m.load.add(r.warm)
	openDur := r.dur * 3 / 4 / rounds
	closedDur := r.dur/rounds - openDur
	// sent is how many open-loop requests the first k rounds send, so the
	// rounds together send rate × 3/4 of the measured time.
	sent := func(k int) int { return int(r.w.rate * openDur.Seconds() * float64(k)) }
	var open, closed phase
	var heap, rps []float64
	for k := 0; k < rounds; k++ {
		wait := func() error { return nil }
		if r.w.hotMounts {
			wait = r.hotMounts(ctx, openDur)
		}
		sampler := startHeapSampler()
		open.add(openLoop(ctx, r.w.rate, sent(k+1)-sent(k), r.conns, r.prepFrom(streamOpen, sent(k)), r.client.send))
		heap = append(heap, sampler.stop()...)
		err := wait()
		c := closedLoop(ctx, closedDur, r.conns, r.prepFrom(streamClosed, closed.attempted()), r.client.send)
		// Completions per second of connection time: the closed loop keeps
		// every connection busy until its deadline, after which each
		// finishes its last request while the others may already be idle;
		// that idle tail is not throughput the fleet lacked.
		rps = append(rps, float64(c.counts[outcomeOK])/(c.busy.Seconds()/float64(r.conns)))
		closed.add(c)
		if err == nil && !r.w.hotMounts {
			err = r.idleMounts(idleMountsPerRound)
		}
		if err != nil {
			return nil, err
		}
	}
	m.load.add(&open)
	m.load.add(&closed)
	m.open = open.latencies

	m.values["setup_s"] = median(r.setups)
	m.samples["setup_s"] = len(r.setups)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
		m.values[q.name] = windowedQuantile(open.latencies, q.q)
		m.samples[q.name] = len(open.latencies)
	}
	// The median round, so that outside load on the machine during a few
	// rounds does not move it.
	m.values["peak_rps"] = median(rps)
	m.samples["peak_rps"] = closed.counts[outcomeOK]
	m.values["mount_p50_ms"] = median(r.mounts)
	m.samples["mount_p50_ms"] = len(r.mounts)
	// The peak over the open loop: the median, over windows equal parts of
	// the sampling time, of each part's largest sample.
	m.values["peak_heap_mb"] = windowedQuantile(heap, 1)
	m.samples["peak_heap_mb"] = len(heap)
	return m, nil
}

// heapSampler samples the Go heap in use every 5 ms while it runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var mib []float64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			mib = append(mib, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stopc:
				h.done <- mib
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the samples, in MiB.
func (h *heapSampler) stop() []float64 {
	close(h.stopc)
	return <-h.done
}

// client sends /v1/match requests through the gateway over at most conns
// keep-alive connections and checks each response against the oracle.
type client struct {
	url string
	hc  *http.Client

	mu         sync.Mutex
	mismatches []string
	problems   []string
}

// maxNotes bounds how many failure descriptions a run keeps.
const maxNotes = 20

func newClient(url string, conns int) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: t, Timeout: time.Minute}}
}

func (c *client) note(list *[]string, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(*list) < maxNotes {
		*list = append(*list, fmt.Sprintf(format, args...))
	}
}

// send performs req, calling received once the response body is drained,
// and classifies the result. Gateway cache hits are checked like any
// other response.
func (c *client) send(req *request, received func()) outcome {
	resp, err := c.hc.Post(c.url+"/v1/match", "application/json", bytes.NewReader(req.body))
	if err != nil {
		c.note(&c.problems, "transport: %v", err)
		return outcomeFailed
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	received()
	if err != nil {
		c.note(&c.problems, "reading response: %v", err)
		return outcomeFailed
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		c.note(&c.problems, "refused %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return outcomeRefused
	default:
		c.note(&c.problems, "status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return outcomeFailed
	}
	got, err := reportOffsets(body)
	if err != nil {
		c.note(&c.mismatches, "undecodable response: %v", err)
		return outcomeMismatch
	}
	if want := distinctSorted(req.want()); !slices.Equal(got, want) {
		c.note(&c.mismatches, "%s (cache %s): %d offsets, oracle expects %d",
			bodyDesign(req.body), resp.Header.Get("X-Rapid-Cache"), len(got), len(want))
		return outcomeMismatch
	}
	return outcomeOK
}

// reportOffsets decodes a /v1/match response into its distinct report
// offsets in increasing order.
func reportOffsets(body []byte) ([]int, error) {
	var resp struct {
		Reports []struct {
			Offset int `json:"offset"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make([]int, len(resp.Reports))
	for i, r := range resp.Reports {
		out[i] = r.Offset
	}
	return distinctSorted(out), nil
}

// distinctSorted returns the distinct values of xs in increasing order.
func distinctSorted(xs []int) []int {
	out := append([]int{}, xs...)
	sort.Ints(out)
	k := 0
	for i, x := range out {
		if i == 0 || x != out[k-1] {
			out[k] = x
			k++
		}
	}
	return out[:k]
}

// bodyDesign extracts the design name from a request body for messages.
func bodyDesign(body []byte) string {
	s := string(body)
	if i := strings.Index(s, `"design":"`); i >= 0 {
		s = s[i+len(`"design":"`):]
		if j := strings.IndexByte(s, '"'); j >= 0 {
			return s[:j]
		}
	}
	return "?"
}
