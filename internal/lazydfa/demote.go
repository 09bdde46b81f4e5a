package lazydfa

import (
	"context"

	"repro/internal/automata"
)

// Adaptive budget controller (RE2's "is the DFA cache useless?" heuristic,
// adapted to per-state eviction). The budget grows on demand from its
// small initial size toward the byte-denominated cap as states intern
// (see stateCache.intern); eviction only begins at the cap. Walkers report
// each input chunk they finish to adapt; once the design has walked a
// CancelCheckInterval window (summed over all walkers), the eviction delta
// over that window is the thrash signal.
//
// Demotion fires when, at the cap, one eviction per demoteDenominator
// bytes is sustained for demoteWindows consecutive windows: the working
// set will never fit, and every cached transition is amortizing fewer
// than demoteDenominator bytes of walking, which the NFA bitset walk
// beats without the interning overhead. The design then drops the cache
// and every walker finishes on the bitset path, so no workload runs slower
// than the nfa-bitset tier beyond the detection window.
const (
	demoteDenominator = 8
	demoteWindows     = 4
)

// adapt adds a finished chunk of window bytes to the design's window and
// reports whether the design should demote now. Called with cache.mu held.
func (w *walker) adapt(window int) bool {
	c := w.m.cache
	c.missMu.Lock()
	defer c.missMu.Unlock()
	c.adaptBytes += window
	if c.adaptBytes < automata.CancelCheckInterval {
		return false
	}
	window, c.adaptBytes = c.adaptBytes, 0
	dE := c.evictions - c.lastEvictions
	c.lastEvictions = c.evictions
	if dE*demoteDenominator >= window && dE > 0 {
		c.thrashWindows++
		return c.thrashWindows >= demoteWindows
	}
	c.thrashWindows = 0
	return false
}

// demote flips the design to the NFA bitset walk permanently and releases
// the cache's memory, unless another walker got there first. The walker
// must not hold cache.mu; the other walkers see the flag when they next
// take it.
func (w *walker) demote() {
	c := w.m.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.demoted.Load() {
		return
	}
	c.missMu.Lock()
	c.releaseAll()
	c.missMu.Unlock()
	c.demoted.Store(true)
	w.stats.Demotions++
}

// runPure walks the pure-STE components on the NFA bitset recurrence,
// one shared-kernel step per symbol (the same step a cache miss takes).
// It continues a run from the configuration (enabled, first), base bytes
// into the stream: the start configuration for whole runs of a demoted
// design, or the walker's saved position at the demotion point.
func (w *walker) runPure(ctx context.Context, input []byte, out []Report, base int, first bool, enabled []uint64) ([]Report, error) {
	cfg := w.pureEnabled
	copy(cfg, enabled)
	for len(input) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		chunk := input
		if len(chunk) > automata.CancelCheckInterval {
			chunk = chunk[:automata.CancelCheckInterval]
		}
		for i, sym := range chunk {
			next, codes := w.step(cfg, first, sym)
			first = false
			for _, code := range codes {
				out = append(out, Report{Offset: base + i, Code: code})
			}
			cfg, w.nextBuf = next, cfg
		}
		base += len(chunk)
		input = input[len(chunk):]
	}
	w.pureEnabled = cfg
	return out, nil
}
