package lazydfa

import (
	"repro/internal/automata"
)

// maskWord is one nonzero word of a sparse enable mask.
type maskWord struct {
	word int
	bits uint64
}

// program holds the immutable per-design tables the lazy tier steps with:
// per-symbol acceptance bitsets, start bitsets, sparse enable masks, report
// codes, the symbol-partition group map that keys the compressed transition
// rows, and the compile-time prefilter facts.
type program struct {
	nwords     int
	ngroups    int
	groupOf    [256]uint8 // symbol → equivalence group; rows are ngroups wide
	accept     [256][]uint64
	startData  []uint64
	startAll   []uint64
	outMask    [][]maskWord
	reportBits []uint64 // bitset over elements: which report
	reportCode []int

	// stateBytes estimates one cached state's memory (row cells, key,
	// configuration copy, in-edge records, struct overhead); it denominates
	// Options.MaxCacheBytes into a state-count cap.
	stateBytes int

	// Prefilter facts (automata.ExtractPrefilter). restKey is the config
	// key of the rest configuration ("" when no facts — keys are always
	// nonempty, so "" never collides); liveBytes is the byte set that can
	// move the automaton out of it, nil-able and possibly empty (a fully
	// anchored design whose rest configuration is dead).
	hasFacts  bool
	restKey   string
	liveBytes []byte
}

func compile(pure *automata.Topology) *program {
	n := pure.Len()
	p := &program{
		nwords:     (n + 63) / 64,
		startData:  make([]uint64, (n+63)/64),
		startAll:   make([]uint64, (n+63)/64),
		outMask:    make([][]maskWord, n),
		reportBits: make([]uint64, (n+63)/64),
		reportCode: make([]int, n),
	}
	part := automata.Partition(pure)
	p.ngroups = len(part.Representatives)
	for sym := 0; sym < 256; sym++ {
		p.groupOf[sym] = uint8(part.GroupOf[sym])
		p.accept[sym] = make([]uint64, p.nwords)
	}
	setBit := func(b []uint64, id automata.ElementID) { b[id>>6] |= 1 << (uint(id) & 63) }
	for id := automata.ElementID(0); id < automata.ElementID(n); id++ {
		if pure.Reports(id) {
			setBit(p.reportBits, id)
			p.reportCode[id] = pure.ReportCode(id)
		}
		mask := make([]uint64, p.nwords)
		for _, out := range pure.Outs(id) {
			if out.Port == automata.PortIn {
				setBit(mask, automata.ElementID(out.Node))
			}
		}
		for wi, w := range mask {
			if w != 0 {
				p.outMask[id] = append(p.outMask[id], maskWord{word: wi, bits: w})
			}
		}
		class := pure.Class(id)
		for sym := 0; sym < 256; sym++ {
			if class.Contains(byte(sym)) {
				setBit(p.accept[sym], id)
			}
		}
		switch pure.Start(id) {
		case automata.StartOfData:
			setBit(p.startData, id)
		case automata.StartAllInput:
			setBit(p.startAll, id)
		}
	}
	// Per-state memory: one int32 row cell per group, the interned key and
	// the configuration copy (8 bytes per word each, plus the key's flag
	// byte), an amortized in-edge record per row cell (16 bytes), and a
	// fixed allowance for the state struct, map entry, and slice headers.
	p.stateBytes = 4*p.ngroups + 16*p.nwords + 16*p.ngroups + 224

	if facts := automata.ExtractPrefilter(pure); facts != nil {
		p.hasFacts = true
		rest := make([]uint64, p.nwords)
		for _, id := range facts.Rest {
			setBit(rest, id)
		}
		p.restKey = string(appendConfigKey(nil, rest, false))
		p.liveBytes = facts.Live.Symbols()
	}
	return p
}

// appendConfigKey serializes a configuration (enable bitset plus the
// first-symbol flag) into buf as a cache key. Keys are always nonempty.
func appendConfigKey(buf []byte, enabled []uint64, first bool) []byte {
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

// decodeConfigKey recovers a configuration from its key: the enable
// bitset into enabled (len nwords) and the first-symbol flag.
func decodeConfigKey(enabled []uint64, key string) (first bool) {
	for i := range enabled {
		k := key[1+8*i : 9+8*i]
		enabled[i] = uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
			uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
	}
	return key[0] == 1
}
