package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request.
type outcome int

const (
	outcomeOK       outcome = iota
	outcomeRefused          // 429 or 503: the fleet declined the request
	outcomeFailed           // transport error or another non-200 status
	outcomeMismatch         // 200 whose reports disagree with the oracle
)

// phase is what one open- or closed-loop phase observed.
type phase struct {
	// latencies are in ms, for requests that completed with outcomeOK.
	// Open-loop latency runs from the intended send time.
	latencies []float64
	// late is, per request, how far in ms the scheduler ran behind the
	// intended send time (open loop only).
	late    []float64
	counts  [4]int // by outcome
	elapsed time.Duration
	// busy is the connection time, summed over connections, spent
	// preparing and performing requests (closed loop only).
	busy time.Duration
}

func (p *phase) attempted() int { return p.counts[0] + p.counts[1] + p.counts[2] + p.counts[3] }
func (p *phase) failed() int    { return p.attempted() - p.counts[outcomeOK] }

// add merges q into p.
func (p *phase) add(q *phase) {
	p.latencies = append(p.latencies, q.latencies...)
	p.late = append(p.late, q.late...)
	for i := range p.counts {
		p.counts[i] += q.counts[i]
	}
	p.elapsed += q.elapsed
	p.busy += q.busy
}

// sender performs one request, calling received as soon as the response
// has been read and before checking it, and classifies the result.
type sender[R any] func(req R, received func()) outcome

// timedSend runs send and returns its outcome and completion time.
func timedSend[R any](send sender[R], req R) (outcome, time.Time) {
	var end time.Time
	o := send(req, func() { end = time.Now() })
	if end.IsZero() {
		end = time.Now()
	}
	return o, end
}

// openLoop sends n requests on a fixed schedule of intended send times,
// start + i/rate, through at most conns concurrent senders. prep builds
// request i a quarter interval before its send time — late enough that at
// a low rate the previous request has usually completed, early enough
// that prep's own work is done by the send; send performs it. A request
// whose sender is still busy waits, and that wait counts in its latency,
// so a stall delays every request due during it (no coordinated omission).
func openLoop[R any](ctx context.Context, rate float64, n, conns int,
	prep func(i int) R, send sender[R]) *phase {
	type due struct {
		req      R
		intended time.Time
	}
	// Sized to the number of sends: the scheduler never blocks on a busy
	// sender, so its lateness measures only its own timer slack.
	queue := make(chan due, n)
	res := &phase{late: make([]float64, 0, n)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				o, end := timedSend(send, d.req)
				lat := float64(end.Sub(d.intended).Nanoseconds()) / 1e6
				mu.Lock()
				res.counts[o]++
				if o == outcomeOK {
					res.latencies = append(res.latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	lead := interval / 4
	start := time.Now().Add(lead)
	for i := 0; i < n && sleepUntil(ctx, start.Add(time.Duration(i)*interval-lead)); i++ {
		req := prep(i)
		intended := start.Add(time.Duration(i) * interval)
		if !sleepUntil(ctx, intended) {
			break
		}
		res.late = append(res.late, float64(time.Since(intended).Nanoseconds())/1e6)
		queue <- due{req: req, intended: intended}
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// sleepUntil waits until t and reports whether ctx is still live.
func sleepUntil(ctx context.Context, t time.Time) bool {
	if d := time.Until(t); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	return ctx.Err() == nil
}

// closedLoop runs conns senders for dur, each sending its next request as
// soon as the previous one completes. Latency runs from the send.
func closedLoop[R any](ctx context.Context, dur time.Duration, conns int,
	prep func(i int) R, send sender[R]) *phase {
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	res := &phase{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				begin := time.Now()
				req := prep(int(next.Add(1) - 1))
				t0 := time.Now()
				o, end := timedSend(send, req)
				lat := float64(end.Sub(t0).Nanoseconds()) / 1e6
				mu.Lock()
				res.busy += end.Sub(begin)
				res.counts[o]++
				if o == outcomeOK {
					res.latencies = append(res.latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}
