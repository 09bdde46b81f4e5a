package main

import (
	"encoding/base64"
	"fmt"
	"math/rand"
	"slices"

	rapid "repro"
	"repro/internal/bench"
	"repro/internal/lang/value"
	"repro/internal/serve"
)

// design is one mounted RAPID design: a paper benchmark's program over n
// of its pattern instances, starting at instance lo. Designs with lo = 0
// are the ones traffic reaches, checked against the benchmark's oracle.
type design struct {
	name  string
	b     *bench.Benchmark
	lo, n int
}

// program returns the design's RAPID source and network arguments.
func (d design) program() (string, []rapid.Value) {
	src, args := d.b.RAPID(d.lo + d.n)
	if d.lo > 0 {
		args[0] = args[0].(value.Array)[d.lo:]
	}
	return src, args
}

func (d design) spec() serve.DesignSpec {
	src, args := d.program()
	return serve.DesignSpec{Name: d.name, Source: src, Args: args}
}

func variant(b *bench.Benchmark, n int) design {
	return design{name: fmt.Sprintf("%s-%d", b.Name, n), b: b, n: n}
}

// request is one prepared /v1/match call and the report offsets the
// oracle expects for it.
type request struct {
	body []byte
	want func() []int
}

// source generates a workload's requests. prep must be deterministic in
// (seed, stream, i) so that a run's inputs depend only on its seed.
type source interface {
	prep(stream, i int) *request
}

// workload is one traffic mix.
type workload struct {
	name, why string
	designs   []design
	// rate is the open-loop arrival rate, requests/s.
	rate float64
	// hotMounts makes the open-loop phase run concurrently with the mount
	// stream; otherwise mounts run in their own phase on an idle fleet.
	hotMounts bool
	// coldEngine runs two garbage collections before each request is sent,
	// which empties the engines' sync.Pool of lazy-DFA clones (a pooled
	// object survives one collection), so every request starts from a cold
	// clone, as it does after a collection in production.
	coldEngine bool
	// newSource builds the request generator once the seed is known.
	newSource func(seed int64, designs []design) (source, error)
}

// smallDesigns are the rule designs match-small and reload-under-load
// spread across the replicas. The MOTOMATA variants carry counters, which
// keeps the engine's counter/bitset fallback tier under measure.
func smallDesigns() []design {
	return []design{
		variant(bench.Exact(), 4), variant(bench.Exact(), 12), variant(bench.Exact(), 24),
		variant(bench.ARM(), 4), variant(bench.ARM(), 12),
		variant(bench.Motomata(), 2), variant(bench.Motomata(), 6), variant(bench.Motomata(), 12),
	}
}

var workloads = []*workload{
	{
		name:    "match-small",
		why:     "1 KiB matches on 8 small Exact/ARM/MOTOMATA designs, 25% repeats: gateway, response cache, JSON, admission and batch window dominate; the engine is ~13% of p50",
		designs: smallDesigns(),
		rate:    300,
		newSource: func(seed int64, ds []design) (source, error) {
			return &smallSource{seed: seed, designs: ds, size: 1 << 10, repeat: 0.25}, nil
		},
	},
	{
		name:       "match-large-gc",
		why:        "256 KiB unique bodies on Brill, each after a GC: the engine dominates and re-determinizes from a cold lazy-DFA clone",
		designs:    []design{variant(bench.Brill(), bench.Brill().DefaultInstances)},
		rate:       2,
		coldEngine: true,
		newSource: func(seed int64, ds []design) (source, error) {
			return newChunkSource(seed, ds[0], 16, 16<<10)
		},
	},
	{
		name:      "reload-under-load",
		why:       "match-small traffic while Exact and Gappy variants hot-mount through ApplyManifest: compile layers share the 2 cores with matches",
		designs:   smallDesigns(),
		rate:      250,
		hotMounts: true,
		newSource: func(seed int64, ds []design) (source, error) {
			return &smallSource{seed: seed, designs: ds, size: 1 << 10, repeat: 0.25}, nil
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// chunkPoolSeed seeds the record pool chunkSource draws bodies from.
const chunkPoolSeed = 1

// rngFor derives request i's generator of one stream from the run seed
// (splitmix64 finalizer), so every phase draws fresh, reproducible inputs.
func rngFor(seed int64, stream, i int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ z>>31)))
}

// matchBody encodes a /v1/match request for input on the named design.
func matchBody(name string, input []byte) []byte {
	enc := base64.StdEncoding
	body := make([]byte, 0, len(name)+enc.EncodedLen(len(input))+40)
	body = append(body, `{"design":"`...)
	body = append(body, name...)
	body = append(body, `","input_base64":"`...)
	body = enc.AppendEncode(body, input)
	return append(body, `"}`...)
}

// smallSource sends fresh ~size-byte inputs to a uniformly chosen design;
// a repeat fraction of requests resends one of the last 16 bodies, which
// the gateway's response cache can answer.
type smallSource struct {
	seed    int64
	designs []design
	size    int
	repeat  float64
}

func (s *smallSource) prep(stream, i int) *request {
	rng := rngFor(s.seed, stream, i)
	if i >= 2 && rng.Float64() < s.repeat {
		return s.prep(stream, i-2-rng.Intn(min(16, i-1)))
	}
	d := s.designs[rng.Intn(len(s.designs))]
	input := d.b.Input(rng, s.size)
	return &request{body: matchBody(d.name, input), want: func() []int { return d.b.Oracle(input, d.n) }}
}

// chunkSource assembles every body from a seeded sequence of chunks drawn
// from a pool of separator-led records, so bodies are unique while the
// oracle runs once per chunk: no rule context spans the separator, so a
// body's expected offsets are its chunks' offsets shifted by position.
// newChunkSource checks that identity against the oracle on a whole body.
//
// The pool is the same for every seed; the seed picks and orders each
// body's chunks. How much lazy-DFA work a body costs depends on which
// records the pool holds: with a pool drawn from the seed, the mean scan
// time of a run's bodies differed by up to 20% between seeds.
type chunkSource struct {
	seed    int64
	design  design
	chunks  [][]byte
	offsets [][]int
	perBody int
}

func newChunkSource(seed int64, d design, perBody, chunkSize int) (*chunkSource, error) {
	s := &chunkSource{seed: seed, design: d, perBody: perBody}
	rng := rngFor(chunkPoolSeed, -1, 0)
	for k := 0; k < perBody; k++ {
		c := d.b.Input(rng, chunkSize-1)
		if c[0] != bench.Separator || len(c) != chunkSize {
			return nil, fmt.Errorf("%s input does not start with a separator record", d.b.Name)
		}
		s.chunks = append(s.chunks, c)
		s.offsets = append(s.offsets, d.b.Oracle(c, d.n))
	}
	input, want := s.assemble(rngFor(seed, -1, 1))
	if got := d.b.Oracle(input, d.n); !slices.Equal(got, want) {
		return nil, fmt.Errorf("%s oracle is not separable at records: %d offsets on the whole body, %d by chunk", d.b.Name, len(got), len(want))
	}
	return s, nil
}

func (s *chunkSource) assemble(rng *rand.Rand) ([]byte, []int) {
	var input []byte
	var want []int
	for k := 0; k < s.perBody; k++ {
		c := rng.Intn(len(s.chunks))
		for _, off := range s.offsets[c] {
			want = append(want, off+len(input))
		}
		input = append(input, s.chunks[c]...)
	}
	return input, want
}

func (s *chunkSource) prep(stream, i int) *request {
	input, want := s.assemble(rngFor(s.seed, stream, i))
	return &request{body: matchBody(s.design.name, input), want: func() []int { return want }}
}

// mountStream is the sequence of designs the benchmark mounts on a live
// fleet: count Exact and Gappy macro-family variants, alternating, in a
// seeded order. Each variant is a window of consecutive pattern instances
// one further along than the last of its family, so every mount compiles a
// new program whose components mostly stamp from shapes placed before.
// The set depends only on count, so every seed mounts the same designs.
// Gappy windows hold 4 instances, where a mount costs about as much as an
// Exact one at 48; at 32 instances a Gappy mount takes over a second,
// leaving too few mounts in a run for a steady median.
func mountStream(seed int64, count int) []design {
	out := make([]design, 0, count)
	for k := 0; k < count; k++ {
		d := design{b: bench.Exact(), lo: 1 + k/2, n: 48}
		if k%2 == 1 {
			d = design{b: bench.Gappy(), lo: 1 + k/2, n: 4}
		}
		d.name = fmt.Sprintf("hot-%s-%d-%d", d.b.Name, d.lo, d.n)
		out = append(out, d)
	}
	rng := rngFor(seed, -2, 0)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
