package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer is a sender double: every call takes delay, and it records
// the requests seen and the peak concurrency.
type fakeServer struct {
	delay    time.Duration
	inflight atomic.Int32
	peak     atomic.Int32
	mu       sync.Mutex
	seen     []int
}

func (f *fakeServer) send(i int, received func()) outcome {
	n := f.inflight.Add(1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
	time.Sleep(f.delay)
	f.inflight.Add(-1)
	received()
	f.mu.Lock()
	f.seen = append(f.seen, i)
	f.mu.Unlock()
	if i%10 == 9 {
		return outcomeRefused
	}
	return outcomeOK
}

func identity(i int) int { return i }

func TestOpenLoopSendsEveryRequestOnceWithinConns(t *testing.T) {
	f := &fakeServer{delay: 2 * time.Millisecond}
	p := openLoop(context.Background(), 1000, 50, 2, identity, f.send)
	if p.attempted() != 50 || len(f.seen) != 50 {
		t.Fatalf("attempted %d, server saw %d; want 50", p.attempted(), len(f.seen))
	}
	seen := map[int]bool{}
	for _, i := range f.seen {
		seen[i] = true
	}
	if len(seen) != 50 {
		t.Fatalf("requests sent more than once: %d distinct of 50", len(seen))
	}
	if f.peak.Load() > 2 {
		t.Fatalf("peak concurrency %d exceeds 2 connections", f.peak.Load())
	}
	if p.counts[outcomeRefused] != 5 || p.failed() != 5 || len(p.latencies) != 45 {
		t.Fatalf("counts %v, %d latencies; want 5 refused and 45 timed", p.counts, len(p.latencies))
	}
	if len(p.late) != 50 {
		t.Fatalf("%d lateness samples, want 50", len(p.late))
	}
}

// A server slower than the arrival rate builds a queue. Latency from the
// intended send time must grow with it, as it would for independent users;
// timing from the actual send would hide the queue (coordinated omission).
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	f := &fakeServer{delay: 10 * time.Millisecond}
	p := openLoop(context.Background(), 200, 20, 1, func(i int) int { return i * 10 }, f.send) // no refusals
	if len(p.latencies) != 20 {
		t.Fatalf("%d latencies, want 20", len(p.latencies))
	}
	// Request i is due at 5i ms and completes no earlier than 10(i+1) ms,
	// so the last waits at least 200-95 = 105 ms.
	if last := quantile(p.latencies, 1); last < 100 {
		t.Fatalf("max latency %.1f ms; queueing behind a slow server was not counted", last)
	}
	if p.elapsed < 190*time.Millisecond {
		t.Fatalf("phase took %v, faster than the server allows", p.elapsed)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	f := &fakeServer{}
	start := time.Now()
	p := openLoop(context.Background(), 100, 11, 2, identity, f.send)
	if took := time.Since(start); took < 100*time.Millisecond {
		t.Fatalf("11 requests at 100/s finished in %v, want ≥ 100ms", took)
	}
	if p.attempted() != 11 {
		t.Fatalf("attempted %d, want 11", p.attempted())
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fakeServer{}
	if p := openLoop(ctx, 1, 100, 2, identity, f.send); p.attempted() != 0 {
		t.Fatalf("cancelled phase sent %d requests", p.attempted())
	}
}

func TestClosedLoop(t *testing.T) {
	f := &fakeServer{delay: time.Millisecond}
	p := closedLoop(context.Background(), 50*time.Millisecond, 2, identity, f.send)
	if p.attempted() == 0 || p.attempted() != len(f.seen) {
		t.Fatalf("attempted %d, server saw %d", p.attempted(), len(f.seen))
	}
	if f.peak.Load() > 2 {
		t.Fatalf("peak concurrency %d exceeds 2", f.peak.Load())
	}
	if p.elapsed < 50*time.Millisecond {
		t.Fatalf("phase ended after %v, before its duration", p.elapsed)
	}
	// Each connection is busy for at most the phase and for at least the
	// server's delay on every request it sent.
	if p.busy > 2*p.elapsed || p.busy < time.Duration(p.attempted())*time.Millisecond {
		t.Fatalf("busy %v over %d requests in %v on 2 connections", p.busy, p.attempted(), p.elapsed)
	}
}

func TestPhaseAdd(t *testing.T) {
	a := &phase{latencies: []float64{1}, counts: [4]int{1, 0, 0, 0}, elapsed: time.Second}
	b := &phase{latencies: []float64{2}, late: []float64{0.5}, counts: [4]int{1, 1, 1, 1}, elapsed: time.Second, busy: time.Second}
	a.add(b)
	if a.attempted() != 5 || a.failed() != 3 || len(a.latencies) != 2 || len(a.late) != 1 || a.elapsed != 2*time.Second || a.busy != time.Second {
		t.Fatalf("merged phase %+v", a)
	}
}
