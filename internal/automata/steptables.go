package automata

import (
	"math/bits"
	"sort"
)

// StepTables is the decoded STE memory image of a frozen topology: for
// every input symbol, the row of STEs whose class contains it, plus the
// start, enable and report wiring the step recurrence reads. The device
// decodes each symbol into one row of its STE array and tests every
// column against it in parallel (internal/ap); every CPU tier —
// FastSimulator, LaneSimulator, the lazy DFA and the ahead-of-time DFA
// builder — reads this one image instead of deriving its own.
//
// The tables are built once per topology, on first use, and are
// immutable: the slices must not be modified. All bitsets are Words
// uint64 words long, bit id&63 of word id>>6 standing for element id.
type StepTables struct {
	t *Topology

	// Words is the length of every bitset: (Len()+63)/64.
	Words int
	// Accept is the symbol-major acceptance table:
	// Accept[sym*Words:(sym+1)*Words] is the bitset of STEs whose class
	// contains sym.
	Accept []uint64
	// StartData and StartAll are the StartOfData and StartAllInput STEs.
	StartData []uint64
	StartAll  []uint64
	// OutMask[id] is the sparse bitset of STEs that element id enables
	// through PortIn edges: the nonzero words only.
	OutMask [][]MaskWord
	// ReportBits is the set of reporting elements.
	ReportBits []uint64
}

// MaskWord is one nonzero word of a sparse bitset.
type MaskWord struct {
	Word int
	Bits uint64
}

// StepTables returns the topology's step tables, building them on the
// first call. Safe for concurrent use; every call returns the same value.
func (t *Topology) StepTables() *StepTables {
	t.stepOnce.Do(func() { t.steps = newStepTables(t) })
	return t.steps
}

func newStepTables(t *Topology) *StepTables {
	n := t.Len()
	w := (n + 63) / 64
	st := &StepTables{
		t:          t,
		Words:      w,
		Accept:     make([]uint64, 256*w),
		StartData:  make([]uint64, w),
		StartAll:   make([]uint64, w),
		OutMask:    make([][]MaskWord, n),
		ReportBits: make([]uint64, w),
	}
	mask := make(bitset, w)
	for id := ElementID(0); id < ElementID(n); id++ {
		if t.Reports(id) {
			bitset(st.ReportBits).set(id)
		}
		mask.reset()
		for _, out := range t.Outs(id) {
			if to := ElementID(out.Node); out.Port == PortIn && t.Kind(to) == KindSTE {
				mask.set(to)
			}
		}
		for wi, x := range mask {
			if x != 0 {
				st.OutMask[id] = append(st.OutMask[id], MaskWord{Word: wi, Bits: x})
			}
		}
		if t.Kind(id) != KindSTE {
			continue
		}
		class := t.Class(id)
		wi, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
		for sym := 0; sym < 256; sym++ {
			if class.Contains(byte(sym)) {
				st.Accept[sym*w+wi] |= bit
			}
		}
		switch t.Start(id) {
		case StartOfData:
			bitset(st.StartData).set(id)
		case StartAllInput:
			bitset(st.StartAll).set(id)
		}
	}
	return st
}

// Step advances the configuration (enabled, first) by one symbol: active
// receives the STEs that match sym and next the enables they drive for
// the following symbol. It reports whether any active element reports.
// first selects the start-of-data context (the stream's first symbol).
// All three bitsets are Words long; next must not alias the others.
func (st *StepTables) Step(enabled, active, next []uint64, sym byte, first bool) bool {
	rep := st.Activate(enabled, active, next, sym, first)
	st.Propagate(active, next)
	return rep
}

// Activate is Step's first pass: in one sweep over the words it computes
// the active STEs, tests them against the report set and clears next. It
// reports whether any active element reports. Callers that evaluate
// counters and gates do so between Activate and Propagate.
func (st *StepTables) Activate(enabled, active, next []uint64, sym byte, first bool) bool {
	accept := st.Accept[int(sym)*st.Words:]
	startAll, startData, reports := st.StartAll, st.StartData, st.ReportBits
	var rep uint64
	for j := range active {
		a := enabled[j] | startAll[j]
		if first {
			a |= startData[j]
		}
		a &= accept[j]
		active[j] = a
		rep |= a & reports[j]
		next[j] = 0
	}
	return rep != 0
}

// Propagate ORs into next the enable masks of every active element.
func (st *StepTables) Propagate(active, next []uint64) {
	outMask := st.OutMask
	for wi, x := range active {
		for x != 0 {
			id := wi*64 + bits.TrailingZeros64(x)
			for _, mw := range outMask[id] {
				next[mw.Word] |= mw.Bits
			}
			x &= x - 1
		}
	}
}

// AppendCodes appends to dst the distinct report codes of the active
// reporting elements, in increasing order.
func (st *StepTables) AppendCodes(dst []int, active []uint64) []int {
	base := len(dst)
	for wi, x := range active {
		x &= st.ReportBits[wi]
		for x != 0 {
			id := ElementID(wi*64 + bits.TrailingZeros64(x))
			dst = append(dst, st.t.ReportCode(id))
			x &= x - 1
		}
	}
	codes := dst[base:]
	if len(codes) < 2 {
		return dst
	}
	sort.Ints(codes)
	n := 1
	for _, c := range codes[1:] {
		if c != codes[n-1] {
			codes[n] = c
			n++
		}
	}
	return dst[:base+n]
}

// AppendConfigKey serializes a configuration — an enable bitset plus the
// first-symbol flag — into buf as a map key for determinization. Keys are
// always nonempty, and keys of equal-length bitsets are equal exactly when
// the configurations are.
func AppendConfigKey(buf []byte, enabled []uint64, first bool) []byte {
	if first {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, w := range enabled {
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return buf
}

// DecodeConfigKey recovers a configuration from its key: the enable
// bitset into enabled (as long as the bitset the key was made from) and
// the first-symbol flag.
func DecodeConfigKey(enabled []uint64, key string) (first bool) {
	for i := range enabled {
		k := key[1+8*i : 9+8*i]
		enabled[i] = uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
			uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
	}
	return key[0] == 1
}
