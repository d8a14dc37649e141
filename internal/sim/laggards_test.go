package sim

import (
	"testing"

	"morphcache/internal/rng"
)

// scanLaggard is the linear scan the tournament replaces.
func scanLaggard(clock []uint64, end uint64) int {
	core := -1
	var minClock uint64
	for c := range clock {
		if clock[c] < end && (core < 0 || clock[c] < minClock) {
			core, minClock = c, clock[c]
		}
	}
	return core
}

// TestLaggardsMatchScan drives the tournament and the scan over random
// clocks drawn from a few values (so ties are common), with cores at and
// past the epoch end, for core counts that are and are not powers of two.
func TestLaggardsMatchScan(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{1, 2, 3, 5, 7, 8, 13, 16} {
		clock := make([]uint64, n)
		l := newLaggards(clock)
		for round := 0; round < 200; round++ {
			end := uint64(4 + r.Intn(6))
			for c := range clock {
				clock[c] = uint64(r.Intn(12))
			}
			l.reset(end)
			for step := 0; step < 50; step++ {
				want := scanLaggard(clock, end)
				if got := l.next(); got != want {
					t.Fatalf("n=%d round %d step %d clocks %v end %d: tournament %d, scan %d", n, round, step, clock, end, got, want)
				}
				if want < 0 {
					break
				}
				// Advance the laggard as the engine does, or move a random
				// core anywhere, past the end included.
				c := want
				if r.Intn(4) == 0 {
					c = r.Intn(n)
					clock[c] = uint64(r.Intn(12))
				} else {
					clock[c] += uint64(r.Intn(3))
				}
				l.update(c)
			}
		}
	}
}
