package automata

import "fmt"

// Equivalence checking for counter-free networks: two designs are
// report-equivalent when, for every input stream, they report at exactly
// the same offsets. This is decidable for pure STE networks via a joint
// subset construction, and is how the optimization pipeline is verified
// beyond sampling.

// ErrHasSpecials is returned when a design contains counters or gates,
// whose unbounded state puts exact equivalence checking out of scope.
var ErrHasSpecials = fmt.Errorf("automata: equivalence checking requires counter- and gate-free designs")

// steOnly verifies the topology contains only STEs.
func steOnly(t *Topology) error {
	if !t.Pure() {
		return ErrHasSpecials
	}
	return nil
}

// Equivalent checks report-equivalence of two counter-free topologies. It
// returns nil when equivalent, or an error carrying a counterexample input
// on which exactly one of the designs reports.
func Equivalent(a, b *Topology) error {
	if err := steOnly(a); err != nil {
		return err
	}
	if err := steOnly(b); err != nil {
		return err
	}
	part := Partition(a, b)
	ta, tb := a.StepTables(), b.StepTables()
	activeA, activeB := make([]uint64, ta.Words), make([]uint64, tb.Words)

	// A joint configuration is the pair of enable bitsets; the first
	// symbol (empty witness) additionally enables start-of-data STEs.
	type pair struct {
		ea, eb  []uint64
		witness []byte
	}
	start := pair{ea: make([]uint64, ta.Words), eb: make([]uint64, tb.Words)}
	seen := map[string]bool{}
	queue := []pair{start}
	var key []byte
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		first := len(cur.witness) == 0
		for _, sym := range part.Representatives {
			na, nb := make([]uint64, ta.Words), make([]uint64, tb.Words)
			ra := ta.Step(cur.ea, activeA, na, sym, first)
			rb := tb.Step(cur.eb, activeB, nb, sym, first)
			w := append(append([]byte(nil), cur.witness...), sym)
			if ra != rb {
				return fmt.Errorf("automata: designs differ on input %q (offset %d): %q reports %v, %q reports %v",
					w, len(w)-1, a.Name, ra, b.Name, rb)
			}
			key = AppendConfigKey(AppendConfigKey(key[:0], na, false), nb, false)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			queue = append(queue, pair{ea: na, eb: nb, witness: w})
		}
	}
	return nil
}
