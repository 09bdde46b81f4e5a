package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark timed around a call into a layer.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	// Req identifies the request a span served: a hash of its body, which
	// the gateway forwards to the replica unchanged. 0 for non-request
	// spans.
	Req uint64 `json:"req,omitempty"`
	// Items is how many designs a mount or replay span covered.
	Items int `json:"items,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, and on records only while switched on, so one fleet can serve
// traced and untraced phases alternately.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// start opens a span and returns its ID, or -1 when inactive.
func (t *tracer) start(name string, req uint64, parent, items int) int {
	if !t.active() {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Req: req, Items: items, Start: now, End: now})
	return id
}

// end closes span id; -1 is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, items int, fn func() error) error {
	id := t.start(name, 0, parent, items)
	defer t.end(id)
	return fn()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap records a span named name around every POST /v1/match that h
// serves, identified by the hash of its body. A nil tracer returns h.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() || r.Method != http.MethodPost || r.URL.Path != "/v1/match" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id := t.start(name, bodyID(body), -1, 0)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// bodyID is the request ID the trace correlates gateway and replica spans
// by. The benchmark makes every body unique except deliberate repeats,
// which the gateway answers from its cache without a replica span.
func bodyID(body []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return h.Sum64()
}

// link makes each span named child the child of the span named parent
// that carries the same request ID and encloses it in time.
func link(spans []span, parent, child string) {
	byReq := map[uint64][]int{}
	for i, s := range spans {
		if s.Name == parent {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != child {
			continue
		}
		for _, p := range byReq[c.Req] {
			if spans[p].Start <= c.Start && c.End <= spans[p].End {
				c.Parent = spans[p].ID
				break
			}
		}
	}
}

// selfTimes returns, in ms, each span named name minus the part of its
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span, name string) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(s, children[s.ID]))/1e6)
	}
	return out
}

// covered returns the length of the union of kids' intervals clipped to
// p's interval.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// durations returns the durations, in ms, of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
