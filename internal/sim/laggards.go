package sim

import (
	"math"
	"math/bits"
)

// laggards picks the core the engine advances next: the lowest clock among
// the cores still inside the epoch, the lowest core on a tie. It is a
// tournament tree over (clock, core) in which a core at or past the epoch
// end plays as +∞. Each internal node holds the winner of the match between
// its children, so after one core's clock moves only the log2(cores)
// matches on its leaf-to-root path are replayed, instead of a scan of every
// core per reference. The left child always covers lower cores and wins
// ties, so a tie goes to the lowest core: the choice is exactly the scan's.
type laggards struct {
	clock  []uint64
	end    uint64
	leaves int // a power of two >= len(clock)
	// key[i] and core[i] are node i's winner: its clock, or done once it
	// reached the end, and its index. Leaves sit at [leaves, 2*leaves);
	// padding leaves are done. An active clock is below end, so below done.
	key  []uint64
	core []int
}

const done = math.MaxUint64

func newLaggards(clock []uint64) *laggards {
	leaves := 1
	for leaves < len(clock) {
		leaves <<= 1
	}
	return &laggards{clock: clock, leaves: leaves, key: make([]uint64, 2*leaves), core: make([]int, 2*leaves)}
}

// reset replays every match for an epoch ending at end.
func (t *laggards) reset(end uint64) {
	t.end = end
	for c := 0; c < t.leaves; c++ {
		t.key[t.leaves+c], t.core[t.leaves+c] = done, c
		if c < len(t.clock) {
			t.key[t.leaves+c] = t.leafKey(c)
		}
	}
	for i := t.leaves - 1; i >= 1; i-- {
		t.play(i)
	}
}

func (t *laggards) leafKey(c int) uint64 {
	if k := t.clock[c]; k < t.end {
		return k
	}
	return done
}

// play replays the match at internal node i. The borrow of right - left
// (1 iff the right key is lower) selects the winning child, so the outcome,
// which a branch predictor cannot learn, costs no branch.
func (t *laggards) play(i int) {
	w := 2 * i
	_, right := bits.Sub64(t.key[w+1], t.key[w], 0)
	w += int(right)
	t.key[i], t.core[i] = t.key[w], t.core[w]
}

// next returns the laggard core, or -1 once every core reached the end.
func (t *laggards) next() int {
	if t.key[1] != done {
		return t.core[1]
	}
	return -1
}

// update replays the matches above core c after its clock changed.
func (t *laggards) update(c int) {
	i := t.leaves + c
	t.key[i] = t.leafKey(c)
	for i >>= 1; i >= 1; i >>= 1 {
		t.play(i)
	}
}
