package automata

import (
	"context"
	"fmt"
	"math/bits"
)

// FastSimulator is a throughput-oriented simulator: it reads the
// topology's StepTables — for every input symbol, the bitset of STEs
// accepting it, and for every element the sparse bitset of STEs its
// activation enables — so a cycle is a handful of word-wide AND/OR passes
// instead of per-element class tests, which mirrors how the physical
// device evaluates all columns of the memory array against the decoded
// row in parallel.
//
// The tables are built once per frozen Topology and shared with every
// other tier; all mutable execution state lives in one flat word slice
// plus the counter array, so construction after the first and Clone are a
// constant number of allocations regardless of design size.
//
// Semantics are identical to Simulator; the tests cross-check them.
type FastSimulator struct {
	t           *Topology
	tab         *StepTables
	hasSpecials bool

	// Mutable state: enabled, nextEnabled, and active are equal-length
	// subslices of the single backing allocation state.
	state       []uint64
	enabled     bitset
	nextEnabled bitset
	active      bitset
	counterVal  []int

	offset  int
	reports []Report
}

// NewFastSimulator freezes the network (validating it) and builds a fast
// simulator over its topology. The first simulator of a topology builds
// its StepTables, which is O(elements × alphabet); prefer the plain
// Simulator for one-shot runs of very large designs.
func NewFastSimulator(n *Network) (*FastSimulator, error) {
	t, err := n.Freeze()
	if err != nil {
		return nil, err
	}
	return t.NewFastSimulator(), nil
}

// NewFastSimulator builds a fast simulator over the frozen topology.
// Unlike the Network constructor it cannot fail: a Topology is valid by
// construction.
func (t *Topology) NewFastSimulator() *FastSimulator {
	s := &FastSimulator{
		t:           t,
		tab:         t.StepTables(),
		counterVal:  make([]int, t.Len()),
		hasSpecials: !t.Pure(),
	}
	s.allocState(t.Len())
	return s
}

// allocState carves the three mutable bitsets out of one backing slice.
func (s *FastSimulator) allocState(n int) {
	words := (n + 63) / 64
	s.state = make([]uint64, 3*words)
	s.enabled = bitset(s.state[0:words:words])
	s.nextEnabled = bitset(s.state[words : 2*words : 2*words])
	s.active = bitset(s.state[2*words : 3*words : 3*words])
}

// Topology returns the frozen topology the simulator executes.
func (s *FastSimulator) Topology() *Topology { return s.t }

// Reset returns the simulator to its initial configuration.
func (s *FastSimulator) Reset() {
	for i := range s.state {
		s.state[i] = 0
	}
	for i := range s.counterVal {
		s.counterVal[i] = 0
	}
	s.offset = 0
	s.reports = nil
}

// Reports returns the report events generated so far.
func (s *FastSimulator) Reports() []Report { return s.reports }

// Offset returns the number of symbols consumed so far.
func (s *FastSimulator) Offset() int { return s.offset }

// Clone returns an independent simulator for the same topology that shares
// its step tables but owns fresh mutable state. Cloning is a constant
// number of allocations, so servers can fan one design out across
// goroutines cheaply. The clone starts reset.
func (s *FastSimulator) Clone() *FastSimulator {
	c := &FastSimulator{
		t:           s.t,
		tab:         s.tab,
		hasSpecials: s.hasSpecials,
		counterVal:  make([]int, s.t.Len()),
	}
	c.allocState(s.t.Len())
	return c
}

// SimState is a checkpoint of a FastSimulator's mutable execution state,
// taken with Snapshot and reinstated with Restore. It captures the enable
// vector, counter values, stream offset, and report-log length, so a long
// stream interrupted by a transient fault can resume from the checkpoint
// instead of the beginning.
type SimState struct {
	enabled    bitset
	counterVal []int
	offset     int
	nreports   int
}

// Offset returns the stream offset at which the snapshot was taken.
func (st *SimState) Offset() int { return st.offset }

// Snapshot captures the simulator's current mutable state. The snapshot is
// independent of later stepping and may be restored any number of times.
func (s *FastSimulator) Snapshot() *SimState {
	st := &SimState{
		enabled:    newBitset(s.t.Len()),
		counterVal: make([]int, len(s.counterVal)),
		offset:     s.offset,
		nreports:   len(s.reports),
	}
	copy(st.enabled, s.enabled)
	copy(st.counterVal, s.counterVal)
	return st
}

// Restore reinstates a snapshot previously taken from this simulator (or a
// clone sharing its topology): execution state rewinds to the snapshot's
// offset and reports recorded after it are discarded.
func (s *FastSimulator) Restore(st *SimState) {
	copy(s.enabled, st.enabled)
	copy(s.counterVal, st.counterVal)
	s.active.reset()
	s.nextEnabled.reset()
	s.offset = st.offset
	if len(s.reports) > st.nreports {
		s.reports = s.reports[:st.nreports]
	}
}

// Step processes one input symbol.
func (s *FastSimulator) Step(symbol byte) {
	rep := s.tab.Activate(s.enabled, s.active, s.nextEnabled, symbol, s.offset == 0)
	if s.hasSpecials && s.evalSpecials() {
		rep = true
	}
	s.tab.Propagate(s.active, s.nextEnabled)
	if rep {
		for wi, x := range s.active {
			x &= s.tab.ReportBits[wi]
			for x != 0 {
				id := ElementID(wi*64 + bits.TrailingZeros64(x))
				s.reports = append(s.reports, Report{Offset: s.offset, Element: id, Code: s.t.ReportCode(id)})
				x &= x - 1
			}
		}
	}
	s.enabled, s.nextEnabled = s.nextEnabled, s.enabled
	s.offset++
}

// evalSpecials adds the active counters and gates to the active set, in
// combinational order, before it propagates. It reports whether any of
// them reports.
func (s *FastSimulator) evalSpecials() (rep bool) {
	t := s.t
	for _, id := range t.Specials() {
		switch t.Kind(id) {
		case KindCounter:
			countIn, resetIn := false, false
			for _, in := range t.Ins(id) {
				if !s.active.has(ElementID(in.Node)) {
					continue
				}
				switch in.Port {
				case PortCount:
					countIn = true
				case PortReset:
					resetIn = true
				}
			}
			switch {
			case resetIn:
				s.counterVal[id] = 0
			case countIn && s.counterVal[id] < t.Target(id):
				s.counterVal[id]++
			}
			if s.counterVal[id] >= t.Target(id) {
				s.active.set(id)
				rep = rep || t.Reports(id)
			}
		case KindGate:
			anyActive, allActive := false, true
			for _, in := range t.Ins(id) {
				if s.active.has(ElementID(in.Node)) {
					anyActive = true
				} else {
					allActive = false
				}
			}
			var out bool
			switch t.Op(id) {
			case GateAnd:
				out = allActive
			case GateOr:
				out = anyActive
			case GateNot, GateNor:
				out = !anyActive
			case GateNand:
				out = !allActive
			}
			if out {
				s.active.set(id)
				rep = rep || t.Reports(id)
			}
		}
	}
	return rep
}

// Run resets the simulator and processes the whole input.
func (s *FastSimulator) Run(input []byte) []Report {
	s.Reset()
	for _, b := range input {
		s.Step(b)
	}
	return s.Reports()
}

// CancelCheckInterval is the number of symbols simulators process between
// context-cancellation checks in the RunContext variants: long enough that
// the check is free on the hot path, short enough that cancellation is
// prompt (a chunk is microseconds of work).
const CancelCheckInterval = 4096

// RunContext resets the simulator and processes input in chunks of
// CancelCheckInterval symbols, checking ctx between chunks. On
// cancellation it returns the reports produced so far together with
// ctx.Err(); the simulator is left at the offset it reached, in a state
// Snapshot/Restore can still operate on.
func (s *FastSimulator) RunContext(ctx context.Context, input []byte) ([]Report, error) {
	s.Reset()
	for len(input) > 0 {
		if err := ctx.Err(); err != nil {
			return s.Reports(), err
		}
		chunk := input
		if len(chunk) > CancelCheckInterval {
			chunk = chunk[:CancelCheckInterval]
		}
		for _, b := range chunk {
			s.Step(b)
		}
		input = input[len(chunk):]
	}
	return s.Reports(), nil
}

// RunFast simulates the network over input using the precomputed fast
// path.
func (n *Network) RunFast(input []byte) ([]Report, error) {
	s, err := NewFastSimulator(n)
	if err != nil {
		return nil, fmt.Errorf("automata: %w", err)
	}
	return s.Run(input), nil
}
