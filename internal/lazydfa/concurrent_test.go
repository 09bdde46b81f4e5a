package lazydfa_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lazydfa"
)

func benchNetwork(t *testing.T, name string) (*automata.Network, *bench.Benchmark) {
	t.Helper()
	b := bench.ByName(name)
	src, args := b.RAPID(b.DefaultInstances)
	prog, err := core.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Compile(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Network, b
}

// TestConcurrentCacheBytesBound checks MaxCacheBytes bounds the design's
// cache, not each goroutine's: at every worker count, the estimated cache
// bytes sampled while the workers fill it never exceed the cap.
func TestConcurrentCacheBytesBound(t *testing.T) {
	const capBytes = 1 << 20
	net, b := benchNetwork(t, "Gappy")
	rng := rand.New(rand.NewSource(41))
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = b.Input(rng, 1<<14)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, err := lazydfa.New(net, &lazydfa.Options{MaxCacheBytes: capBytes})
			if err != nil {
				t.Fatal(err)
			}
			var done atomic.Bool
			var peak int64
			sampled := make(chan struct{})
			go func() {
				defer close(sampled)
				for !done.Load() {
					peak = max(peak, m.CacheBytes())
					runtime.Gosched()
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < len(inputs); i += workers {
						m.Run(inputs[i])
					}
				}()
			}
			wg.Wait()
			done.Store(true)
			<-sampled
			peak = max(peak, m.CacheBytes())
			if peak > capBytes {
				t.Fatalf("cache peaked at %d estimated bytes, over the %d-byte cap", peak, capBytes)
			}
			if peak < capBytes/2 {
				t.Fatalf("cache peaked at %d bytes; the working set should have pressed against the %d-byte cap", peak, capBytes)
			}
		})
	}
}

// TestConcurrentEvictionParity runs the ARM benchmark from 8 goroutines
// on one matcher per variant — tiny caches that evict on almost every
// intern while other goroutines read, and the default cap, with the
// prefilter on and off — and compares every run against the bitset
// reference simulator.
func TestConcurrentEvictionParity(t *testing.T) {
	net, b := benchNetwork(t, "ARM")
	rng := rand.New(rand.NewSource(43))
	inputs := make([][]byte, 8)
	want := make([]string, len(inputs))
	sim, err := automata.NewFastSimulator(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		inputs[i] = b.Input(rng, 3*automata.CancelCheckInterval+rng.Intn(1000))
		want[i] = fmt.Sprint(reportKeys(sim.Clone().Run(inputs[i])))
	}
	for name, opts := range lazyVariants(t, net) {
		t.Run(name, func(t *testing.T) {
			m, err := lazydfa.New(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 3; k++ {
						i := (g + k) % len(inputs)
						if got := fmt.Sprint(lazyKeys(m.Run(inputs[i]))); got != want[i] {
							t.Errorf("goroutine %d input %d diverged from the reference", g, i)
						}
					}
				}()
			}
			wg.Wait()
			if tinyCap(name) && m.Evictions() == 0 {
				t.Error("the tiny cache never evicted under concurrent walkers")
			}
		})
	}
}
