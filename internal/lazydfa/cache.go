package lazydfa

import (
	"sync"
	"sync/atomic"

	"repro/internal/automata"
)

// The state cache interns DFA states (NFA configurations) and owns the
// transition table. It is shared by every walker running the design, in
// the style of RE2's DFA: filled transition cells are read lock-free, a
// miss steps, interns and fills under one mutex, and the rare structural
// operations — growth of the table, eviction at the cap and demotion —
// take exclusive access.
//
// The table is one contiguous slab of int32 cells, ngroups per state, so
// the hot loop's transition is one load from one base pointer, exactly as
// in a single-threaded matcher. The slab only moves when it grows, and
// growth takes exclusive access: no walker is reading while cells move.
// Each growth adds half again, so a design that settles at s states grows
// the slab about log1.5(s/64) times in its lifetime and leaves at most a
// third of it unused. A cell packs the successor id with a has-reports
// flag so the hot loop's no-report path is a single load:
//
//	cellUnfilled (-1)  transition not yet materialized (or repaired away)
//	id | cellReport    stepping this (state, group) emits report codes
//	id                 plain transition
//
// Capacity pressure is handled per state with a second-chance clock: the
// hand sweeps slots, clearing reference bits, and reuses the first cold
// slot in place. Eviction repairs the victim's in-edges lazily — each
// recorded predecessor cell that still points at the victim is reset to
// cellUnfilled, so the transition recomputes on demand — and bumps the
// slot's generation so stale in-edge records (from an earlier occupant of
// either endpoint) are recognized and skipped, and so walkers that held
// the slot across the exclusive section know to re-intern their state.
// In-edge records are only kept once the cache has evicted: the first
// eviction builds them with one scan of the table, so a design whose
// working set fits never pays their memory (a third of a warm Brill
// cache).
//
// Locking. Walkers hold mu shared for each input chunk and read cells,
// report lists and restID without further locking. Every mutation happens
// under missMu; growth, eviction (slot reuse) and demotion additionally
// hold mu exclusively, which is what lets readers trust the slab and a
// state id (its configuration, key and row) for as long as they hold mu
// shared.

const (
	cellUnfilled = int32(-1)
	cellReport   = int32(1) << 30
	cellIDMask   = cellReport - 1
)

// groupCodes is the report-code list of one (state, symbol-group) edge.
// States rarely report on more than a couple of groups, so a small linear
// slice beats a map on both lookup and memory.
type groupCodes struct {
	group int32
	codes []int
}

// inEdge records "rows[from*ngroups+group] pointed at this state when
// from's generation was gen". Eviction follows these records to repair
// predecessors; a generation mismatch means the record is stale.
type inEdge struct {
	from  int32
	gen   uint32
	group int32
}

// state is one cache slot's metadata; its transition row lives in the
// cache's rows slab at [id*ngroups, (id+1)*ngroups).
type state struct {
	// key is the configuration (automata.AppendConfigKey);
	// DecodeConfigKey recovers it, so the state keeps no second copy.
	key string
	ref bool   // second-chance reference bit
	gen uint32 // bumped on eviction; validates inEdge records and walkers' saved ids
	// reps is replaced, never mutated, so walkers can read it while a
	// concurrent miss adds another group's codes.
	reps    atomic.Pointer[[]groupCodes]
	inEdges []inEdge
}

// setCodes records codes as the report list for group g, publishing a new
// list so lock-free readers never see one half-written.
func (st *state) setCodes(g int32, codes []int) {
	var reps []groupCodes
	if old := st.reps.Load(); old != nil {
		reps = make([]groupCodes, 0, len(*old)+1)
		for _, gc := range *old {
			if gc.group != g {
				reps = append(reps, gc)
			}
		}
	}
	reps = append(reps, groupCodes{group: g, codes: append([]int(nil), codes...)})
	st.reps.Store(&reps)
}

// codesFor returns the report codes of the state's group-g edge.
func (st *state) codesFor(g int32) []int {
	for _, gc := range *st.reps.Load() {
		if gc.group == g {
			return gc.codes
		}
	}
	return nil
}

type stateCache struct {
	mu     sync.RWMutex
	missMu sync.Mutex

	// rows and meta hold len(meta) slots; the first n are in use. Both are
	// replaced only under mu held exclusively.
	rows    []int32
	meta    []*state // nil past n
	n       int
	ngroups int

	ids map[string]int32

	max   int // current budget (grows on demand up to limit)
	limit int // hard cap

	hand      int
	evictions int
	// inEdges reports that states' in-edge records are kept (from the
	// first eviction on).
	inEdges bool

	// restID tracks where the prefilter's rest configuration currently
	// lives (-1 when not interned or evicted), so the hot loop can compare
	// state ids instead of keys.
	restKey string
	restID  atomic.Int32

	// Adaptive controller state (demote.go), per design.
	adaptBytes    int
	lastEvictions int
	thrashWindows int
	demoted       atomic.Bool

	keyBuf []byte
}

func newStateCache(p *program, limit int) *stateCache {
	c := &stateCache{
		ids:     make(map[string]int32),
		ngroups: p.ngroups,
		max:     min(initialCachedStates, limit),
		limit:   limit,
		restKey: p.restKey,
	}
	c.grow(c.max)
	c.restID.Store(-1)
	return c
}

// grow resizes the slab to hold slots states. The caller holds mu
// exclusively (or is constructing the cache).
func (c *stateCache) grow(slots int) {
	rows := make([]int32, slots*c.ngroups)
	copy(rows, c.rows)
	for i := len(c.rows); i < len(rows); i++ {
		rows[i] = cellUnfilled
	}
	meta := make([]*state, slots)
	copy(meta, c.meta)
	c.rows, c.meta = rows, meta
}

// row returns slot id's transition row.
func (c *stateCache) row(id int32) []int32 {
	return c.rows[int(id)*c.ngroups : (int(id)+1)*c.ngroups]
}

// intern returns the id of the configuration, copying it into a slot when
// new. The caller holds missMu, and holds mu exclusively when excl is set:
// only then may intern grow the slab or evict one cold state (never
// pinned, the walker's current state, or -1). Without excl, intern
// reports failure when it would need either, so the caller can take
// exclusive access and retry.
func (c *stateCache) intern(enabled []uint64, first bool, pinned int32, excl bool) (int32, bool) {
	c.keyBuf = automata.AppendConfigKey(c.keyBuf[:0], enabled, first)
	if id, ok := c.ids[string(c.keyBuf)]; ok { // no-alloc map probe
		c.meta[id].ref = true
		return id, true
	}
	if c.n >= c.max && c.max < c.limit {
		// Demand-driven budget growth: slots materialize organically, so
		// doubling the budget costs nothing until states actually intern,
		// and growing instead of evicting below the byte cap keeps slot
		// assignment in discovery order — eviction churn during a growth
		// phase would scatter hot states across the row slab and degrade
		// the warm walk's locality measurably.
		c.max *= 2
		if c.max > c.limit {
			c.max = c.limit
		}
	}
	var id int32
	var st *state
	switch {
	case c.n < len(c.meta) || c.n < c.max && excl:
		if c.n == len(c.meta) {
			c.grow(min(c.n+c.n/2, c.max))
		}
		id = int32(c.n)
		st = &state{}
		c.meta[id] = st
		c.n++
	case c.n >= c.max && excl:
		id = c.evict(pinned)
		st = c.meta[id]
	default:
		return -1, false
	}
	st.key = string(c.keyBuf)
	st.ref = true
	c.ids[st.key] = id
	if st.key == c.restKey {
		c.restID.Store(id)
	}
	return id, true
}

// evict runs the clock hand to a victim, releases it, and returns its slot
// for reuse. States with the reference bit get a second chance (the bit is
// cleared); after two full sweeps the next unpinned slot is taken
// unconditionally, which bounds the scan when everything is hot. The
// caller holds mu exclusively.
func (c *stateCache) evict(pinned int32) int32 {
	if !c.inEdges {
		c.buildInEdges()
	}
	for scanned := 0; ; scanned++ {
		if c.hand >= c.n {
			c.hand = 0
		}
		id := int32(c.hand)
		st := c.meta[c.hand]
		c.hand++
		if id == pinned {
			continue
		}
		if st.ref && scanned < 2*c.n {
			st.ref = false
			continue
		}
		c.release(id, st)
		return id
	}
}

// release detaches the victim: its key leaves the intern map, every live
// in-edge cell pointing at it is reset to cellUnfilled, its own row is
// cleared, and its generation is bumped so surviving records naming this
// slot are recognized as stale.
func (c *stateCache) release(id int32, st *state) {
	delete(c.ids, st.key)
	if id == c.restID.Load() {
		c.restID.Store(-1)
	}
	for _, e := range st.inEdges {
		if c.meta[e.from].gen != e.gen {
			continue
		}
		row := c.row(e.from)
		if v := row[e.group]; v >= 0 && v&cellIDMask == id {
			row[e.group] = cellUnfilled
		}
	}
	st.inEdges = st.inEdges[:0]
	st.reps.Store(nil)
	row := c.row(id)
	for i := range row {
		row[i] = cellUnfilled
	}
	st.gen++
	c.evictions++
}

// buildInEdges records every filled cell as an in-edge of its successor,
// starting the in-edge bookkeeping at the first eviction. The caller holds
// mu exclusively.
func (c *stateCache) buildInEdges() {
	c.inEdges = true
	for from := int32(0); from < int32(c.n); from++ {
		for g, v := range c.row(from) {
			if v >= 0 {
				c.noteInEdge(v&cellIDMask, from, int32(g))
			}
		}
	}
}

// noteInEdge records that from's row now points at succ, once in-edges
// are kept. When the record list fills its capacity past a threshold,
// stale records are compacted in place before growing, bounding the list
// at the live in-degree.
func (c *stateCache) noteInEdge(succ, from, group int32) {
	if !c.inEdges {
		return
	}
	st := c.meta[succ]
	if len(st.inEdges) >= 32 && len(st.inEdges) == cap(st.inEdges) {
		kept := st.inEdges[:0]
		for _, e := range st.inEdges {
			if c.meta[e.from].gen == e.gen {
				kept = append(kept, e)
			}
		}
		st.inEdges = kept
	}
	st.inEdges = append(st.inEdges, inEdge{from: from, gen: c.meta[from].gen, group: group})
}

// releaseAll drops the cache's storage wholesale. Used by demotion, which
// hands the memory back before the design switches to the bitset walk.
// The caller holds mu exclusively.
func (c *stateCache) releaseAll() {
	c.ids = nil
	c.meta = nil
	c.rows = nil
	c.n = 0
	c.restID.Store(-1)
	c.hand = 0
}
