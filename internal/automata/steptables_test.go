package automata

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/charclass"
)

// randomStepNetwork builds a valid random network of n STEs with random
// classes, starts, reports and PortIn edges, plus (when specials is set)
// counters and gates wired combinationally acyclic: specials read only
// STEs and drive only STEs.
func randomStepNetwork(rng *rand.Rand, n int, specials bool) *Network {
	net := NewNetwork("step")
	stes := make([]ElementID, n)
	for i := range stes {
		var class charclass.Class
		for k := 1 + rng.Intn(4); k > 0; k-- {
			class.Add(byte(rng.Intn(256)))
		}
		if rng.Intn(10) == 0 {
			class = charclass.Range('a', 'z')
		}
		start := StartKind(rng.Intn(3))
		if i == 0 {
			start = StartAllInput
		}
		stes[i] = net.AddSTE(class, start)
		if rng.Intn(5) == 0 {
			net.SetReport(stes[i], rng.Intn(4))
		}
	}
	for range stes {
		net.Connect(stes[rng.Intn(n)], stes[rng.Intn(n)], PortIn)
	}
	if !specials {
		return net
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		c := net.AddCounter(1 + rng.Intn(3))
		net.Connect(stes[rng.Intn(n)], c, PortCount)
		if rng.Intn(2) == 0 {
			net.Connect(stes[rng.Intn(n)], c, PortReset)
		}
		net.Connect(c, stes[rng.Intn(n)], PortIn)
		if rng.Intn(2) == 0 {
			net.SetReport(c, rng.Intn(4))
		}
		g := net.AddGate(GateOp(rng.Intn(5)))
		net.Connect(stes[rng.Intn(n)], g, PortIn)
		if net.Element(g).Op != GateNot {
			net.Connect(stes[rng.Intn(n)], g, PortIn)
		}
		net.Connect(g, stes[rng.Intn(n)], PortIn)
	}
	return net
}

// TestStepTables checks the shared tables against a per-element
// derivation from the topology accessors, on networks below, at and above
// one 64-bit word, with and without counters and gates.
func TestStepTables(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		size := []int{1, 5, 63, 64, 65, 130}[trial%6]
		top := randomStepNetwork(rng, size, trial%2 == 1).MustFreeze()
		st := top.StepTables()
		ln := top.Len()
		if want := (ln + 63) / 64; st.Words != want {
			t.Fatalf("trial %d: Words = %d, want %d", trial, st.Words, want)
		}
		has := func(b []uint64, id int) bool { return b[id>>6]>>(uint(id)&63)&1 != 0 }
		for id := 0; id < ln; id++ {
			e := ElementID(id)
			ste := top.Kind(e) == KindSTE
			for sym := 0; sym < 256; sym++ {
				want := ste && top.Class(e).Contains(byte(sym))
				if got := has(st.Accept[sym*st.Words:], id); got != want {
					t.Fatalf("trial %d: accept[%d] element %d = %v, want %v", trial, sym, id, got, want)
				}
			}
			if got, want := has(st.StartData, id), ste && top.Start(e) == StartOfData; got != want {
				t.Fatalf("trial %d: startData element %d = %v, want %v", trial, id, got, want)
			}
			if got, want := has(st.StartAll, id), ste && top.Start(e) == StartAllInput; got != want {
				t.Fatalf("trial %d: startAll element %d = %v, want %v", trial, id, got, want)
			}
			if got, want := has(st.ReportBits, id), top.Reports(e); got != want {
				t.Fatalf("trial %d: report element %d = %v, want %v", trial, id, got, want)
			}
			wantMask := make([]uint64, st.Words)
			for _, out := range top.Outs(e) {
				if out.Port == PortIn && top.Kind(ElementID(out.Node)) == KindSTE {
					wantMask[out.Node>>6] |= 1 << (uint(out.Node) & 63)
				}
			}
			gotMask := make([]uint64, st.Words)
			for _, mw := range st.OutMask[id] {
				if mw.Bits == 0 || gotMask[mw.Word] != 0 {
					t.Fatalf("trial %d: element %d mask has a zero or repeated word %v", trial, id, st.OutMask[id])
				}
				gotMask[mw.Word] = mw.Bits
			}
			for wi := range wantMask {
				if gotMask[wi] != wantMask[wi] {
					t.Fatalf("trial %d: element %d mask word %d = %#x, want %#x", trial, id, wi, gotMask[wi], wantMask[wi])
				}
			}
		}
	}
}

// TestConcurrentStepTables: goroutines racing on a fresh topology's first
// StepTables call all get the one table set.
func TestConcurrentStepTables(t *testing.T) {
	top := randomStepNetwork(rand.New(rand.NewSource(5)), 100, true).MustFreeze()
	got := make([]*StepTables, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = top.StepTables()
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		if st == nil || st != got[0] {
			t.Fatalf("goroutine %d got tables %p, goroutine 0 got %p", i, st, got[0])
		}
	}
}
