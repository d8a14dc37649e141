package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.99, 39.7}, {-1, 10}, {2, 40},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should yield NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestQuartilesMatchPython pins quartiles to CPython's
// statistics.quantiles(xs, n=4), the definition the stability rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("single value: %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	var exact []float64
	for i := 1; i <= 20000; i++ {
		us := float64(i) * 0.37 // 0.37 µs .. 7.4 ms
		h.add(us)
		exact = append(exact, us)
	}
	for _, p := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := h.q(p), quantile(exact, p)
		if math.Abs(got-want) > 0.006*want {
			t.Errorf("q(%v) = %v, exact %v: more than 0.6%% off", p, got, want)
		}
	}
	var m histogram
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || !near(m.q(0.5), h.q(0.5)) {
		t.Errorf("merge: n %d, median %v vs %v", m.n, m.q(0.5), h.q(0.5))
	}
	var e histogram
	e.add(1e12) // past the last bucket: clamped, still counted
	if e.n != 1 || math.IsNaN(e.q(0.5)) || !math.IsNaN((&histogram{}).q(0.5)) {
		t.Error("overflow must clamp; an empty histogram yields NaN")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); !near(got, 0.1) {
		t.Errorf("lower-is-better rise: %v", got)
	}
	if got := worseBy(100, 110, "higher"); !near(got, -0.1) {
		t.Errorf("higher-is-better rise: %v", got)
	}
	if got := worseBy(0, 5, "lower"); got != 0 {
		t.Errorf("zero base: %v", got)
	}
}
