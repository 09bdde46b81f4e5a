package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"repro/internal/bench"
)

func decodeInput(t *testing.T, body []byte) []byte {
	t.Helper()
	var req struct {
		InputBase64 string `json:"input_base64"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	in, err := base64.StdEncoding.DecodeString(req.InputBase64)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSmallSourceIsSeededAndRepeats(t *testing.T) {
	a := &smallSource{seed: 1, designs: smallDesigns(), size: 256, repeat: 0.25}
	b := &smallSource{seed: 1, designs: smallDesigns(), size: 256, repeat: 0.25}
	c := &smallSource{seed: 2, designs: smallDesigns(), size: 256, repeat: 0.25}
	bodies := map[string]bool{}
	const n = 400
	for i := 0; i < n; i++ {
		ra, rb := a.prep(streamOpen, i), b.prep(streamOpen, i)
		if !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("request %d differs between two sources with one seed", i)
		}
		if i == 0 && bytes.Equal(ra.body, c.prep(streamOpen, 0).body) {
			t.Fatal("seeds 1 and 2 drew the same first request")
		}
		bodies[string(ra.body)] = true
	}
	// About a quarter of requests repeat an earlier body.
	if repeats := n - len(bodies); repeats < n/8 || repeats > n*3/8 {
		t.Fatalf("%d of %d requests repeat, want about %d", repeats, n, n/4)
	}
	if bytes.Equal(a.prep(streamOpen, 5).body, a.prep(streamClosed, 5).body) {
		t.Fatal("two phases drew the same request")
	}
}

func TestSmallSourceOracleMatchesDesign(t *testing.T) {
	s := &smallSource{seed: 3, designs: smallDesigns(), size: 512}
	r := s.prep(streamOpen, 0)
	name := bodyDesign(r.body)
	var d design
	for _, x := range s.designs {
		if x.name == name {
			d = x
		}
	}
	if d.b == nil {
		t.Fatalf("body names unknown design %q", name)
	}
	if want := d.b.Oracle(decodeInput(t, r.body), d.n); !slices.Equal(r.want(), want) {
		t.Fatalf("want() = %v, oracle says %v", r.want(), want)
	}
}

func TestChunkSourceComposesOracle(t *testing.T) {
	d := variant(bench.Brill(), 40)
	s, err := newChunkSource(7, d, 6, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := s.prep(streamOpen, i)
		in := decodeInput(t, r.body)
		if len(in) != 6*2048 {
			t.Fatalf("body input is %d bytes, want %d", len(in), 6*2048)
		}
		if want := d.b.Oracle(in, d.n); !slices.Equal(r.want(), want) {
			t.Fatalf("request %d: composed offsets (%d) differ from the oracle on the whole body (%d)", i, len(r.want()), len(want))
		}
	}
	if bytes.Equal(s.prep(streamOpen, 0).body, s.prep(streamOpen, 1).body) {
		t.Fatal("two requests drew the same body")
	}
}

func TestMountStreamSameSetEverySeed(t *testing.T) {
	names := func(seed int64) []string {
		var out []string
		programs := map[string]bool{}
		for _, d := range mountStream(seed, 12) {
			out = append(out, d.name)
			src, args := d.program()
			key := src
			for _, a := range args {
				key += a.String()
			}
			if programs[key] {
				t.Fatalf("seed %d mounts one program twice (%s)", seed, d.name)
			}
			programs[key] = true
		}
		return out
	}
	a, b := names(1), names(2)
	if slices.Equal(a, b) {
		t.Fatal("seeds 1 and 2 mount in the same order")
	}
	sort.Strings(a)
	sort.Strings(b)
	if !slices.Equal(a, b) {
		t.Fatalf("seeds mount different sets:\n%v\n%v", a, b)
	}
}
