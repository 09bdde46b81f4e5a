// Package lazydfa executes automaton networks on the CPU through an
// on-the-fly (RE2-style) determinization: DFA states are NFA enabled-sets
// discovered as input is consumed, interned in a bounded cache, and reused
// across streams. Where internal/dfa's ahead-of-time subset construction
// aborts once the state space exceeds MaxStates, the lazy engine never
// aborts: when the cache is full it evicts one cold state at a time
// (second-chance clock), and when even eviction cannot keep up it demotes
// itself to an NFA bitset walk mid-stream, so no input ever runs slower
// than the nfa-bitset tier by more than the detection window.
//
// One Matcher holds one cache per design, shared by every goroutine that
// runs it (RE2's DFA layout): warm transitions are lock-free loads, so the
// states one stream discovers serve every later stream, on any goroutine,
// for as long as the Matcher lives.
//
// Three mechanisms carry the throughput:
//
//   - Transition rows are indexed by symbol equivalence group, not by raw
//     byte: a design distinguishing g of the 256 symbols stores g-entry
//     rows in one contiguous slab. Dense-report workloads whose state
//     working set runs to tens of thousands of states (Brill) walk a
//     cache-resident table instead of thrashing DRAM on 1 KiB rows.
//   - The state cache evicts per state with lazy in-edge repair: a
//     transition into an evicted state is reset to "unfilled" and
//     recomputes on demand, so a full cache costs one recomputation per
//     cold edge instead of a flush-and-restart of every hot state. The
//     budget starts small and doubles toward a byte-denominated cap as
//     states intern.
//   - A compile-time prefilter (automata.ExtractPrefilter) identifies the
//     rest configuration and the byte set that can advance it; while the
//     DFA sits in the rest state the input is scanned with bytes.IndexByte
//     instead of stepped byte-by-byte, and the skip disables itself when
//     measured dead runs are too short to pay for the scan.
//
// Every NFA step the tier takes — a cache miss, or the bitset walk after
// demotion — runs the shared kernel over the pure topology's
// automata.StepTables, the same tables FastSimulator and LaneSimulator
// read; the tier adds only its symbol-group map and prefilter facts.
//
// Designs containing counters or boolean gates are handled by a hybrid
// split: weakly-connected components made only of STEs run on the lazy
// DFA, while components containing special elements run on a cloned
// FastSimulator bitset path. Both halves see the same input stream, and
// their reports are merged in offset order.
package lazydfa

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
)

// Report is a report event produced by lazy-DFA execution. Reports are
// deduplicated by (offset, code): several NFA elements reporting the same
// code at one offset produce a single event, exactly as internal/dfa does.
type Report struct {
	Offset int
	Code   int
}

// Options bound the engine's memory use and select its heuristics.
type Options struct {
	// MaxCacheBytes caps the design's state cache, denominated in
	// estimated bytes of cache (rows, keys, configurations, in-edge
	// records). The cap bounds the design's one shared cache, whatever the
	// number of goroutines running it; the cap in states is derived per
	// design from its word and group counts, and is never below 2 states
	// (one state and its successor). The budget starts at 64 states and
	// doubles toward the cap while states intern. Default
	// DefaultMaxCacheBytes.
	MaxCacheBytes int64

	// DisablePrefilter turns off the rest-state byte skip even when the
	// design has usable prefilter facts. Used by differential tests to
	// force the stepped and skipped paths against each other.
	DisablePrefilter bool
}

const (
	// DefaultMaxCacheBytes bounds a design's state cache at 64 MiB. The
	// cache is shared by every goroutine running the design, so the bound
	// holds per design at any worker count. The paper workloads' largest
	// observed working sets (Brill and Gappy, ~37k states each) fit with
	// room to spare.
	DefaultMaxCacheBytes = 64 << 20

	// initialCachedStates is the budget's starting size.
	initialCachedStates = 64

	// maxPrefilterBytes is the widest live-byte set the prefilter will
	// scan for; beyond it, repeated bytes.IndexByte passes cost more than
	// stepping.
	maxPrefilterBytes = 4
)

type options struct {
	maxCacheBytes    int64
	disablePrefilter bool
}

func (o *Options) withDefaults() options {
	out := options{maxCacheBytes: DefaultMaxCacheBytes}
	if o == nil {
		return out
	}
	if o.MaxCacheBytes > 0 {
		out.maxCacheBytes = o.MaxCacheBytes
	}
	out.disablePrefilter = o.DisablePrefilter
	return out
}

// Stats counts one run's lazy-tier cache activity. Each run returns its
// own counts, so callers running one Matcher from many goroutines can
// attribute them exactly.
type Stats struct {
	// Fills is the number of transitions the run materialized on a cache
	// miss (one per (state, symbol-group) cell filled).
	Fills int
	// Evictions is the number of states the run evicted to make room.
	Evictions int
	// Demotions is 1 when the run demoted the design to the NFA bitset
	// walk, else 0.
	Demotions int
	// PrefilterSkipped is the number of input bytes the rest-state
	// prefilter skipped with vector scans instead of stepping.
	PrefilterSkipped int
}

// Matcher executes one design and is safe for concurrent use. All runs
// share the design's one DFA cache and its learned heuristics (the
// adaptive budget, the demotion decision, the prefilter verdict); each run
// borrows only cheap scratch — bitsets, a report-code buffer and, for
// hybrid designs, a bitset-simulator clone — from an internal pool.
type Matcher struct {
	prog *program                // lazy tier (nil when every component has specials)
	sim  *automata.FastSimulator // bitset tier prototype (nil for counter-free designs)

	cache *stateCache

	// prefilter starts true when the design has usable facts and flips
	// off permanently when measured dead runs are too short to pay for
	// the scan.
	prefilter atomic.Bool
	liveBytes []byte

	walkers sync.Pool // *walker

	// Lifetime totals of the runs' Stats.
	fills     atomic.Int64
	evictions atomic.Int64
	demotions atomic.Int64
	skipped   atomic.Int64
}

// walker is one run's scratch. Between runs it waits in the Matcher's
// pool; losing it to a GC costs a few small allocations, never the cache.
type walker struct {
	m *Matcher

	activeBuf   []uint64
	nextBuf     []uint64
	config      []uint64 // a missed state's configuration, decoded
	codesBuf    []int
	pureEnabled []uint64
	sim         *automata.FastSimulator

	// excl records whether the walker holds cache.mu exclusively (else
	// shared) while it walks.
	excl bool
	// The saved position: the configuration of the walker's current state
	// when it last let go of cache.mu, and the slot and generation it had,
	// so resume can revalidate the slot or re-intern the configuration.
	saved      []uint64
	savedFirst bool
	savedID    int32
	savedGen   uint32

	// Prefilter payoff window; the verdict it reaches is the design's.
	skipWindowN   int
	skipWindowLen int

	stats Stats
}

// New freezes the network (validating it), splits its topology into the
// counter-free and special component sets, and derives the lazy tier's
// symbol groups and prefilter facts. The step tables are the topology's
// shared StepTables, O(elements × alphabet) to build on first use; the
// DFA itself materializes during execution.
func New(n *automata.Network, opts *Options) (*Matcher, error) {
	o := opts.withDefaults()
	t, err := n.Freeze()
	if err != nil {
		return nil, fmt.Errorf("lazydfa: %w", err)
	}
	pure, special := automata.SplitSpecials(t)
	m := &Matcher{}
	if pure != nil {
		m.prog = compile(pure)
		m.cache = newStateCache(m.prog, cacheLimit(o, m.prog))
		if !o.disablePrefilter && m.prog.hasFacts && len(m.prog.liveBytes) <= maxPrefilterBytes {
			m.prefilter.Store(true)
			m.liveBytes = m.prog.liveBytes
		}
	}
	if special != nil {
		m.sim = special.NewFastSimulator()
	}
	if m.prog == nil && m.sim == nil {
		return nil, fmt.Errorf("lazydfa: design has no live components")
	}
	m.walkers.New = func() any { return m.newWalker() }
	return m, nil
}

func (m *Matcher) newWalker() *walker {
	w := &walker{m: m}
	if p := m.prog; p != nil {
		nw := p.tab.Words
		w.activeBuf = make([]uint64, nw)
		w.nextBuf = make([]uint64, nw)
		w.config = make([]uint64, nw)
		w.pureEnabled = make([]uint64, nw)
		w.saved = make([]uint64, nw)
	}
	if m.sim != nil {
		w.sim = m.sim.Clone()
	}
	return w
}

// cacheLimit converts the byte cap into the cache's hard cap in states,
// at least 2: the minimum that holds a state and its successor.
func cacheLimit(o options, p *program) int {
	limit := o.maxCacheBytes / int64(p.stateBytes)
	return int(min(max(limit, 2), int64(cellIDMask)))
}

// HasLazyTier reports whether any component runs on the lazy DFA.
func (m *Matcher) HasLazyTier() bool { return m.prog != nil }

// HasBitsetTier reports whether any component (one containing counters or
// gates) runs on the bitset simulator fallback.
func (m *Matcher) HasBitsetTier() bool { return m.sim != nil }

// CachedStates returns the number of DFA states currently interned. The
// cache persists across runs, so repeated streams reuse hot transitions.
func (m *Matcher) CachedStates() int {
	if m.cache == nil {
		return 0
	}
	m.cache.missMu.Lock()
	defer m.cache.missMu.Unlock()
	return m.cache.n
}

// CacheBytes estimates the design's cache memory: interned states times
// the per-state estimate MaxCacheBytes is denominated in.
func (m *Matcher) CacheBytes() int64 {
	if m.cache == nil {
		return 0
	}
	return int64(m.CachedStates()) * int64(m.prog.stateBytes)
}

// CacheBudget returns the cache's current state budget: where growth from
// the starting size has reached, at most the MaxCacheBytes cap in states.
func (m *Matcher) CacheBudget() int {
	if m.cache == nil {
		return 0
	}
	m.cache.missMu.Lock()
	defer m.cache.missMu.Unlock()
	return m.cache.max
}

// Fills returns how many transitions all runs have materialized on cache
// misses. Together with Evictions it is the cache-efficiency signal the
// telemetry layer surfaces.
func (m *Matcher) Fills() int { return int(m.fills.Load()) }

// Evictions returns how many single states the cache has evicted to make
// room.
func (m *Matcher) Evictions() int { return int(m.evictions.Load()) }

// PrefilterSkipped returns how many input bytes the rest-state prefilter
// skipped with vector scans instead of stepping.
func (m *Matcher) PrefilterSkipped() int { return int(m.skipped.Load()) }

// Demotions returns how many times the design demoted its lazy tier to
// the NFA bitset walk (at most once — demotion is sticky).
func (m *Matcher) Demotions() int { return int(m.demotions.Load()) }

// Demoted reports whether the lazy tier has demoted itself to the NFA
// bitset walk.
func (m *Matcher) Demoted() bool { return m.cache != nil && m.cache.demoted.Load() }

// Run executes the design over one input stream and returns the merged
// report events in (offset, code) order.
func (m *Matcher) Run(input []byte) []Report {
	out, _, _ := m.run(nil, input, nil)
	return out
}

// RunContext is Run with cooperative cancellation: input is processed in
// chunks and the run aborts with ctx.Err() once ctx is done, returning the
// reports produced so far.
func (m *Matcher) RunContext(ctx context.Context, input []byte) ([]Report, error) {
	out, _, err := m.run(ctx, input, nil)
	return out, err
}

// RunAppend is RunContext appending into dst (which may be nil), letting
// callers recycle report buffers across streams. It also returns the
// run's own cache activity.
func (m *Matcher) RunAppend(ctx context.Context, input []byte, dst []Report) ([]Report, Stats, error) {
	return m.run(ctx, input, dst)
}

func (m *Matcher) run(ctx context.Context, input []byte, out []Report) ([]Report, Stats, error) {
	w := m.walkers.Get().(*walker)
	defer m.walkers.Put(w)
	w.stats = Stats{}
	out, err := w.run(ctx, input, out)
	st := w.stats
	m.fills.Add(int64(st.Fills))
	m.evictions.Add(int64(st.Evictions))
	m.demotions.Add(int64(st.Demotions))
	m.skipped.Add(int64(st.PrefilterSkipped))
	return out, st, err
}

func (w *walker) run(ctx context.Context, input []byte, out []Report) ([]Report, error) {
	base := len(out)
	if w.m.prog != nil {
		var err error
		out, err = w.runLazy(ctx, input, out)
		if err != nil {
			return out, err
		}
	}
	if w.sim != nil {
		var raw []automata.Report
		var err error
		if ctx == nil {
			raw = w.sim.Run(input)
		} else {
			raw, err = w.sim.RunContext(ctx, input)
		}
		for _, r := range raw {
			out = append(out, Report{Offset: r.Offset, Code: r.Code})
		}
		if err != nil {
			return out, err
		}
		// The lazy tier emits reports already canonical (offset-ordered,
		// codes sorted and distinct per offset); merging in the simulator
		// tier requires a re-sort and dedup of the combined tail — unless
		// it is already canonical, the common case for pure-special
		// designs whose simulator emits in offset order.
		if !isCanonical(out[base:]) {
			tail := canonicalize(out[base:])
			out = out[:base+len(tail)]
		}
	}
	return out, nil
}

func isCanonical(rs []Report) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].Offset < rs[i-1].Offset ||
			(rs[i].Offset == rs[i-1].Offset && rs[i].Code <= rs[i-1].Code) {
			return false
		}
	}
	return true
}

// runLazy walks the lazy DFA over input, materializing transitions on
// demand. The per-symbol fast path is a single data-dependent load: the
// group-indexed row cell carries the successor id and a has-reports flag
// in one int32.
//
// The walker holds cache.mu shared for each CancelCheckInterval chunk, so
// eviction and demotion, which need it exclusively, wait at most one chunk
// per walker. A miss the cache has no room for takes mu exclusively for
// the rest of its chunk. Whenever the walker lets go of mu it saves its
// configuration, and on taking mu back it revalidates its state's slot by
// generation, re-interning the configuration if the slot was evicted.
func (w *walker) runLazy(ctx context.Context, input []byte, out []Report) ([]Report, error) {
	if len(input) == 0 {
		return out, nil
	}
	p, c := w.m.prog, w.m.cache
	ng := c.ngroups

	// Start from the start-of-data configuration: no enables, first
	// symbol pending. The cache is kept warm across runs, so resume is a
	// map hit on every stream after the first.
	clear(w.saved)
	w.savedFirst, w.savedID = true, -1
	c.mu.RLock()
	w.excl = false
	cur, ok := w.resume()
	if !ok {
		return w.handoff(ctx, input, out, 0)
	}
	base := 0
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				w.unlock()
				return out, err
			}
		}
		chunk := input
		if len(chunk) > automata.CancelCheckInterval {
			chunk = chunk[:automata.CancelCheckInterval]
		}
		rows := c.rows
		rest := w.restID()
		for i := 0; i < len(chunk); i++ {
			if i, cur = walkWarm(rows, &p.groupOf, ng, chunk, i, cur, rest); i == len(chunk) {
				break
			}
			if cur == rest {
				if n := w.skipDead(chunk[i:]); n > 0 {
					w.stats.PrefilterSkipped += n
					i += n
					if i >= len(chunk) {
						break
					}
				}
				rest = w.restID()
			}
			g := int(p.groupOf[chunk[i]])
			v := atomic.LoadInt32(&rows[int(cur)*ng+g])
			if v < 0 {
				if cur, v, ok = w.fill(cur, g, chunk[i]); !ok {
					return w.handoff(ctx, input[i:], out, base+i)
				}
				rows = c.rows
				rest = w.restID()
			}
			if v&cellReport != 0 {
				for _, code := range c.meta[cur].codesFor(int32(g)) {
					out = append(out, Report{Offset: base + i, Code: code})
				}
			}
			cur = v & cellIDMask
		}
		base += len(chunk)
		input = input[len(chunk):]
		w.save(cur)
		demote := w.adapt(len(chunk))
		w.unlock()
		if demote {
			// Carry the live NFA configuration into the bitset walk; the
			// cache memory goes back with the demotion.
			w.demote()
			return w.runPure(ctx, input, out, base, w.savedFirst, w.saved)
		}
		if len(input) == 0 {
			return out, nil
		}
		c.mu.RLock()
		w.excl = false
		if cur, ok = w.resume(); !ok {
			return w.handoff(ctx, input, out, base)
		}
	}
}

// fill handles a miss on (cur, g): it materializes the cell, taking
// cache.mu exclusively first when the cache has no room without growth or
// eviction. It returns the state the walker is now at (cur, or its
// configuration re-interned after the exclusive hand-over) and the cell
// value, or false when the design was demoted during the hand-over.
func (w *walker) fill(cur int32, g int, sym byte) (int32, int32, bool) {
	if v, ok := w.miss(cur, g, sym); ok {
		return cur, v, true
	}
	w.save(cur)
	w.lockExclusive()
	cur, ok := w.resume()
	if !ok {
		return -1, 0, false
	}
	v, _ := w.miss(cur, g, sym)
	return cur, v, true
}

// walkWarm advances cur over chunk from i through filled, report-free
// cells and returns the first position that needs runLazy's general path
// — the prefilter's rest state, an unfilled cell or a reporting one — with
// the state there, or len(chunk) once the chunk runs out. Its loop holds
// no calls, so the warm walk stays in registers.
func walkWarm(rows []int32, groupOf *[256]uint8, ng int, chunk []byte, i int, cur, rest int32) (int, int32) {
	for ; i < len(chunk) && cur != rest; i++ {
		v := atomic.LoadInt32(&rows[int(cur)*ng+int(groupOf[chunk[i]])])
		if uint32(v) >= uint32(cellReport) { // unfilled (negative) or reporting
			break
		}
		cur = v
	}
	return i, cur
}

// save records cur's configuration, slot and generation as the walker's
// saved position, before the walker lets go of cache.mu.
func (w *walker) save(cur int32) {
	st := w.m.cache.meta[cur]
	w.savedFirst = automata.DecodeConfigKey(w.saved, st.key)
	w.savedID = cur
	w.savedGen = st.gen
}

// resume returns the state of the saved position, the walker holding
// cache.mu: the saved slot when it still holds the configuration,
// otherwise the configuration re-interned — taking mu exclusively when
// that needs an eviction. It reports false when the design was demoted
// while the walker did not hold mu.
func (w *walker) resume() (int32, bool) {
	c := w.m.cache
	for {
		if c.demoted.Load() {
			return -1, false
		}
		if w.savedID >= 0 {
			if st := c.meta[w.savedID]; st.gen == w.savedGen {
				return w.savedID, true
			}
		}
		c.missMu.Lock()
		e0 := c.evictions
		id, ok := c.intern(w.saved, w.savedFirst, -1, w.excl)
		w.stats.Evictions += c.evictions - e0
		c.missMu.Unlock()
		if ok {
			return id, true
		}
		w.lockExclusive()
	}
}

// lockExclusive trades the walker's shared hold on cache.mu for an
// exclusive one. Other walkers may run structural operations in between,
// so the caller saves its position first and resumes after.
func (w *walker) lockExclusive() {
	w.m.cache.mu.RUnlock()
	w.m.cache.mu.Lock()
	w.excl = true
}

func (w *walker) unlock() {
	if w.excl {
		w.m.cache.mu.Unlock()
	} else {
		w.m.cache.mu.RUnlock()
	}
}

// handoff finishes a run whose design another walker demoted: it lets go
// of cache.mu and continues on the bitset walk from the saved position,
// base bytes into the stream.
func (w *walker) handoff(ctx context.Context, input []byte, out []Report, base int) ([]Report, error) {
	w.unlock()
	return w.runPure(ctx, input, out, base, w.savedFirst, w.saved)
}

// restID returns the state id the hot loop compares against to enter the
// prefilter skip: the rest configuration's slot, or -1 (never a state id)
// when the prefilter is off or the rest state is not interned.
func (w *walker) restID() int32 {
	if !w.m.prefilter.Load() {
		return -1
	}
	return w.m.cache.restID.Load()
}

// miss materializes the transition of state cur on symbol sym's
// equivalence group: it steps the NFA configuration, interns the successor
// (possibly evicting one cold state — never cur, which is pinned), fills
// the row cell, and records the in-edge so eviction of the successor can
// repair the cell lazily. The step runs before missMu is taken; if another
// walker filled the cell meanwhile, its value wins. miss reports false
// when the successor needs a slot the cache can only free by eviction and
// the walker holds cache.mu only shared.
func (w *walker) miss(cur int32, g int, sym byte) (int32, bool) {
	c := w.m.cache
	st := c.meta[cur]
	first := automata.DecodeConfigKey(w.config, st.key)
	next, codes := w.step(w.config, first, sym)
	c.missMu.Lock()
	defer c.missMu.Unlock()
	cell := &c.row(cur)[g]
	if v := atomic.LoadInt32(cell); v >= 0 {
		return v, true
	}
	e0 := c.evictions
	succ, ok := c.intern(next, false, cur, w.excl)
	if !ok {
		return 0, false
	}
	w.stats.Evictions += c.evictions - e0
	w.stats.Fills++
	v := succ
	if len(codes) > 0 {
		v |= cellReport
		st.setCodes(int32(g), codes)
	}
	c.noteInEdge(succ, cur, int32(g))
	st.ref = true
	atomic.StoreInt32(cell, v)
	return v, true
}

// step computes the successor configuration and report codes of the
// configuration (enabled, first) on sym with the shared step kernel. Both
// returned slices alias the walker's scratch buffers and must be copied
// before retention; enabled must not be the walker's nextBuf.
func (w *walker) step(enabled []uint64, first bool, sym byte) ([]uint64, []int) {
	tab := w.m.prog.tab
	codes := w.codesBuf[:0]
	if tab.Step(enabled, w.activeBuf, w.nextBuf, sym, first) {
		codes = tab.AppendCodes(codes, w.activeBuf)
		w.codesBuf = codes
	}
	return w.nextBuf, codes
}

// skipDead scans s for the first byte that can advance the rest
// configuration and returns the count of dead bytes before it (possibly
// the whole of s). With an empty live set the rest configuration is dead
// and the entire remainder is skipped. The walker keeps payoff statistics
// and disables the design's prefilter for good when the average dead run
// is too short to amortize the vector scan.
func (w *walker) skipDead(s []byte) int {
	live := w.m.liveBytes
	n := len(s)
	switch len(live) {
	case 0:
		return n
	case 1:
		if j := bytes.IndexByte(s, live[0]); j >= 0 {
			n = j
		}
	default:
		for _, b := range live {
			if j := bytes.IndexByte(s[:n], b); j >= 0 {
				n = j
			}
		}
	}
	w.skipWindowN++
	w.skipWindowLen += n
	if w.skipWindowN == 64 {
		if w.skipWindowLen < 64*8 {
			w.m.prefilter.Store(false)
		}
		w.skipWindowN, w.skipWindowLen = 0, 0
	}
	return n
}

// canonicalize sorts rs by (offset, code) and drops duplicates in place,
// returning the shortened slice.
func canonicalize(rs []Report) []Report {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Offset != rs[j].Offset {
			return rs[i].Offset < rs[j].Offset
		}
		return rs[i].Code < rs[j].Code
	})
	out := rs[:0]
	for i, r := range rs {
		if i == 0 || r != rs[i-1] {
			out = append(out, r)
		}
	}
	return out
}
