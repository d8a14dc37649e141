package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "R-7" definition NumPy and
// spreadsheets use). xs need not be sorted; it is not modified. An empty
// sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over an already sorted sample.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method: position q·(n+1), clamped to the sample). The
// benchmark's stability rule is stated in those terms, so -compare
// reports the same numbers. Fewer than two values yield that value three
// times (NaN when empty).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// CPython: j = k*m//4 clamped to [1, n-1], then delta = k*m - 4j
		// (after the clamp, so tiny samples extrapolate exactly as Python
		// does).
		n := len(s)
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run stability figure the bounds in BENCHMARK.json are set
// against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// histogram counts latencies in microseconds in log-spaced buckets 1%
// wide, so a quantile is within ±0.5% of the exact one and memory does not
// grow with the request count: a long run's peak RSS measures the server,
// not the load generator's samples.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histMin     = 0.1  // µs; bucket 0 also holds everything below
	histGrowth  = 1.01 // bucket i spans [histMin·1.01^i, histMin·1.01^(i+1))
	histBuckets = 2100 // up to about two minutes
)

var histLogGrowth = math.Log(histGrowth)

// add counts one latency in µs.
func (h *histogram) add(us float64) {
	i := 0
	if us > histMin {
		i = min(int(math.Log(us/histMin)/histLogGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// merge adds another histogram's counts.
func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// at is the k-th smallest latency (0-based): its bucket's geometric
// midpoint.
func (h *histogram) at(k uint64) float64 {
	var cum uint64
	for i, c := range h.counts {
		if cum += c; cum > k {
			return histMin * math.Pow(histGrowth, float64(i)+0.5)
		}
	}
	return math.NaN()
}

// q returns the p-quantile in µs, interpolating between closest ranks as
// quantile does; NaN when empty.
func (h *histogram) q(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	pos := math.Min(math.Max(p, 0), 1) * float64(h.n-1)
	lo := uint64(pos)
	v := h.at(lo)
	if frac := pos - float64(lo); frac > 0 && lo+1 < h.n {
		v += frac * (h.at(lo+1) - v)
	}
	return v
}

// qs returns several quantiles in µs.
func (h *histogram) qs(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = h.q(p)
	}
	return out
}
