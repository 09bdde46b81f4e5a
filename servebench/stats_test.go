package main

import (
	"math"
	"slices"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{7}, 0.99) != 7 {
		t.Error("empty or single-element sample mishandled")
	}
	if median([]float64{1, 2, 3, 10}) != 2.5 {
		t.Error("median of an even sample is not the midpoint of the middle pair")
	}
}

func TestWindowedQuantile(t *testing.T) {
	var xs []float64
	for w := 0; w < windows; w++ {
		for i := 1; i <= 100; i++ {
			xs = append(xs, float64(i))
		}
	}
	// A burst of slow requests in one window moves the plain p99 but not
	// the median of the windows' p99s.
	for i := 0; i < 20; i++ {
		xs[100+i] = 1000
	}
	if got := windowedQuantile(xs, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("windowedQuantile = %v, want 99.01", got)
	}
	if quantile(xs, 0.99) != 1000 {
		t.Errorf("plain quantile = %v; the burst should set it", quantile(xs, 0.99))
	}
	if windowedQuantile([]float64{3, 1}, 0.5) != 2 {
		t.Error("samples shorter than the window count are not a plain quantile")
	}
	few := xs[:2*minPerWindow-1]
	if windowedQuantile(few, 0.5) != quantile(few, 0.5) {
		t.Error("a sample too small for two windows is not a plain quantile")
	}
}

func TestMeanAndRatio(t *testing.T) {
	if mean(nil) != 0 || mean([]float64{1, 2, 6}) != 3 {
		t.Error("mean")
	}
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
}

func TestDistinctSorted(t *testing.T) {
	in := []int{5, 1, 5, 3, 1}
	if got := distinctSorted(in); !slices.Equal(got, []int{1, 3, 5}) {
		t.Errorf("distinctSorted = %v", got)
	}
	if !slices.Equal(in, []int{5, 1, 5, 3, 1}) {
		t.Error("distinctSorted modified its input")
	}
	if got := distinctSorted(nil); len(got) != 0 {
		t.Errorf("distinctSorted(nil) = %v", got)
	}
}

func TestReportOffsets(t *testing.T) {
	got, err := reportOffsets([]byte(`{"design":"d","count":3,"reports":[{"offset":9,"code":1},{"offset":4,"code":2},{"offset":9,"code":3}]}`))
	if err != nil || !slices.Equal(got, []int{4, 9}) {
		t.Fatalf("reportOffsets = %v, %v", got, err)
	}
	if _, err := reportOffsets([]byte(`not json`)); err == nil {
		t.Fatal("undecodable body accepted")
	}
}
