package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 0, Name: "gateway", Start: 0, End: 10 * ms, Parent: -1},
		// Two overlapping children cover [2,7) ms once, not 3+4 ms.
		{ID: 1, Name: "serve", Start: 2 * ms, End: 5 * ms, Parent: 0},
		{ID: 2, Name: "serve", Start: 4 * ms, End: 7 * ms, Parent: 0},
		// A child running past its parent counts only inside it.
		{ID: 3, Name: "gateway", Start: 20 * ms, End: 30 * ms, Parent: -1},
		{ID: 4, Name: "serve", Start: 28 * ms, End: 35 * ms, Parent: 3},
		// No children: self time is the whole span.
		{ID: 5, Name: "gateway", Start: 40 * ms, End: 41 * ms, Parent: -1},
	}
	got := selfTimes(spans, "gateway")
	want := []float64{5, 8, 1}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("selfTimes[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLink(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "gateway", Req: 7, Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "gateway", Req: 7, Start: 200, End: 300, Parent: -1}, // a repeat of the same body
		{ID: 2, Name: "gateway", Req: 8, Start: 0, End: 100, Parent: -1},
		{ID: 3, Name: "serve", Req: 7, Start: 210, End: 290, Parent: -1},
		{ID: 4, Name: "serve", Req: 8, Start: 10, End: 90, Parent: -1},
		{ID: 5, Name: "serve", Req: 9, Start: 10, End: 90, Parent: -1}, // no gateway span
	}
	link(spans, "gateway", "serve")
	for id, want := range map[int]int{3: 1, 4: 2, 5: -1} {
		if spans[id].Parent != want {
			t.Errorf("span %d parent = %d, want %d", id, spans[id].Parent, want)
		}
	}
}

func TestTracerWrap(t *testing.T) {
	tr := newTracer()
	var seen string
	h := tr.wrap("serve", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			b, _ := io.ReadAll(r.Body)
			seen = string(b)
		}
	}))
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader(`{"design":"d"}`))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	post() // tracer off: nothing recorded
	tr.on.Store(true)
	post()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/readyz", nil))
	spans := tr.snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1 (only traced POST /v1/match)", len(spans))
	}
	if seen != `{"design":"d"}` {
		t.Errorf("handler saw body %q after the wrapper read it", seen)
	}
	if s := spans[0]; s.Name != "serve" || s.Req != bodyID([]byte(`{"design":"d"}`)) || s.End < s.Start {
		t.Errorf("span = %+v", s)
	}
	if durations(spans, "serve")[0] < 0 {
		t.Error("negative duration")
	}
	var nilTracer *tracer
	if nilTracer.wrap("x", h) == nil || nilTracer.start("x", 0, -1, 0) != -1 {
		t.Error("nil tracer is not a no-op")
	}
}

func TestDurations(t *testing.T) {
	spans := []span{{Name: "m", Start: 0, End: 6e6}, {Name: "x", Start: 0, End: 1e6}, {Name: "m", Start: 1e6, End: 3e6}}
	if got := durations(spans, "m"); len(got) != 2 || got[0] != 6 || got[1] != 2 {
		t.Errorf("durations = %v, want [6 2]", got)
	}
}
