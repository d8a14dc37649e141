// Package cache implements the set-associative cache slice that every level
// of the hierarchy is built from.
//
// A Slice is one physical bank: Sets × Ways entries of 64-byte lines. The
// paper's topology reconfiguration never changes a slice — merging two
// n-way slices of size S produces a logically 2n-way cache of size 2S with
// the *same number of sets* (footnote 1 of the paper), so a merged group is
// simply the union, set by set, of its member slices. That union logic lives
// in internal/hierarchy; this package deliberately knows nothing about
// groups, levels, or inclusion.
//
// Two replacement policies are provided:
//
//   - true LRU via per-entry timestamps, which merge trivially across slices
//     (the paper: "In an ideal LRU implementation, we can merge the entries
//     according to time-stamps"), and
//   - tree pseudo-LRU (Robinson's generalized tree-LRU), the practical
//     policy the paper cites, whose per-slice trees are merged "in any
//     order" by the hierarchy's cross-slice victim rotor.
package cache

import (
	"fmt"
	"math/bits"

	"morphcache/internal/mem"
)

// Policy selects the replacement policy of a slice.
type Policy uint8

const (
	// LRU is true least-recently-used with per-entry timestamps.
	LRU Policy = iota
	// TreePLRU is binary-tree pseudo-LRU. Ways must be a power of two.
	TreePLRU
	// SRRIP is static re-reference interval prediction (2-bit RRPV):
	// insertions predict a long re-reference interval, hits promote to
	// near-immediate, and the victim is the first line predicted distant.
	// Included as an ablation point against the paper's LRU default.
	SRRIP
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TreePLRU:
		return "tree-plru"
	case SRRIP:
		return "srrip"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Entry is one cache line's bookkeeping state.
type Entry struct {
	Valid bool
	Dirty bool
	ASID  mem.ASID
	// Line is the full line address (tag and index bits together); keeping
	// the whole address makes back-invalidation and inclusion checks direct.
	Line mem.Line
	// LastUse is the slice-local logical time of the most recent touch,
	// maintained for the LRU policy and for cross-slice victim selection in
	// merged groups.
	LastUse uint64
}

// Stats counts slice-local events. Counters accumulate until Reset.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Inserts   uint64
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// Config sizes a slice.
type Config struct {
	// SizeBytes is the slice capacity in bytes.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// Policy selects the replacement policy.
	Policy Policy
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	lines := c.SizeBytes / mem.LineSize
	if c.Ways <= 0 || lines <= 0 || lines%c.Ways != 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", c))
	}
	return lines / c.Ways
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("cache: non-positive size %d", c.SizeBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive ways %d", c.Ways)
	}
	lines := c.SizeBytes / mem.LineSize
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache: %d ways over the 64-way limit (one occupancy bit per way)", c.Ways)
	}
	if c.Policy == TreePLRU && c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cache: tree-PLRU needs power-of-two ways, got %d", c.Ways)
	}
	return nil
}

// Clock is a logical timestamp source for LRU bookkeeping. Slices that can
// be merged into one group must share a Clock, otherwise their LastUse
// values are not comparable and cross-slice victim selection is
// meaningless.
type Clock struct{ now uint64 }

// Tick advances the clock and returns the new timestamp.
func (c *Clock) Tick() uint64 {
	c.now++
	return c.now
}

// Slice is one physical cache bank.
type Slice struct {
	sets    int
	ways    int
	setMask uint64
	policy  Policy
	entries []Entry // sets*ways, row-major by set
	// occ holds one occupancy bit per way of each set (bit w of occ[set] is
	// entries[set*ways+w].Valid), so free-way probes are a single mask and
	// TrailingZeros instead of a scan. Ways is capped at 64 to fit.
	occ []uint64
	// plru holds the tree-PLRU state, ways-1 bits per set packed into one
	// uint64 per set (sufficient for ways <= 64).
	plru []uint64
	// rrpv holds the 2-bit SRRIP re-reference prediction per entry.
	rrpv  []uint8
	clock *Clock
	stats Stats
	// disabled is the number of failed ways (fault injection): ways
	// [ways-disabled, ways) hold no data and are skipped by every lookup
	// and victim scan, shrinking effective associativity. Zero on a
	// healthy slice.
	disabled int
}

// New builds an empty slice from cfg. It panics on an invalid configuration;
// configurations are program constants, not user input.
func New(cfg Config) *Slice {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	s := &Slice{
		sets:    sets,
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		policy:  cfg.Policy,
		entries: make([]Entry, sets*cfg.Ways),
		occ:     make([]uint64, sets),
		clock:   &Clock{},
	}
	if cfg.Policy == TreePLRU {
		s.plru = make([]uint64, sets)
	}
	if cfg.Policy == SRRIP {
		s.rrpv = make([]uint8, sets*cfg.Ways)
		for i := range s.rrpv {
			s.rrpv[i] = rrpvMax
		}
	}
	return s
}

// SRRIP constants: 2-bit RRPV, insert at "long" (max-1), promote to 0.
const (
	rrpvMax    = 3
	rrpvInsert = 2
)

// Sets returns the number of sets.
func (s *Slice) Sets() int { return s.sets }

// Ways returns the associativity.
func (s *Slice) Ways() int { return s.ways }

// EffectiveWays returns the associativity minus any fault-disabled ways.
func (s *Slice) EffectiveWays() int { return s.ways - s.disabled }

// DisabledWays returns the number of fault-disabled ways.
func (s *Slice) DisabledWays() int { return s.disabled }

// SetDisabledWays marks the top n ways of every set as failed. At least one
// way always survives (n is clamped to ways-1; negative n re-enables all).
// Entries resident in newly disabled ways are invalidated and returned so
// the hierarchy can propagate back-invalidations; the slice's eviction
// counter is not charged (the lines were lost, not replaced). Re-enabling
// ways returns nil — failed ways come back empty.
func (s *Slice) SetDisabledWays(n int) []Entry {
	if n < 0 {
		n = 0
	}
	if n > s.ways-1 {
		n = s.ways - 1
	}
	var dropped []Entry
	if n > s.disabled {
		for set := 0; set < s.sets; set++ {
			base := set * s.ways
			for w := s.ways - n; w < s.ways; w++ {
				if e := &s.entries[base+w]; e.Valid {
					dropped = append(dropped, *e)
					*e = Entry{}
					s.occ[set] &^= 1 << uint(w)
				}
			}
		}
	}
	s.disabled = n
	return dropped
}

// SizeBytes returns the capacity in bytes.
func (s *Slice) SizeBytes() int { return s.sets * s.ways * mem.LineSize }

// Stats returns a pointer to the slice's counters.
func (s *Slice) Stats() *Stats { return &s.stats }

// ShareClock makes the slice stamp LastUse from the given shared clock.
// All slices of one reconfigurable level must share a clock so that
// cross-slice LRU comparisons in merged groups are meaningful.
func (s *Slice) ShareClock(c *Clock) { s.clock = c }

// SetIndex maps a line address to its set. All slices of equal set count map
// a line to the same index, which is what makes union-of-sets merging work.
func (s *Slice) SetIndex(line mem.Line) int { return int(uint64(line) & s.setMask) }

// entry returns a pointer to (set, way).
func (s *Slice) entry(set, way int) *Entry { return &s.entries[set*s.ways+way] }

// Entry returns a copy of the entry at (set, way) for inspection.
func (s *Slice) Entry(set, way int) Entry { return *s.entry(set, way) }

// Lookup searches the line's set. It returns the way index on a hit and -1
// on a miss. It does not touch replacement state or counters; callers that
// model a real access should use Access or follow up with Touch.
func (s *Slice) Lookup(asid mem.ASID, line mem.Line) int {
	set := s.SetIndex(line)
	base := set * s.ways
	for m := s.occ[set] & (1<<uint(s.ways-s.disabled) - 1); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		e := &s.entries[base+w]
		if e.ASID == asid && e.Line == line {
			return w
		}
	}
	return -1
}

// Touch records a use of (set, way): bumps the LRU timestamp and steers the
// PLRU tree away from the way.
func (s *Slice) Touch(set, way int) {
	e := s.entry(set, way)
	e.LastUse = s.clock.Tick()
	switch s.policy {
	case TreePLRU:
		s.plruTouch(set, way)
	case SRRIP:
		s.rrpv[set*s.ways+way] = 0
	}
}

// Access performs a full lookup-and-touch, updating hit/miss counters.
// It returns the way on a hit, -1 on a miss.
func (s *Slice) Access(asid mem.ASID, line mem.Line, write bool) int {
	w := s.Lookup(asid, line)
	if w < 0 {
		s.stats.Misses++
		return -1
	}
	s.stats.Hits++
	set := s.SetIndex(line)
	s.Touch(set, w)
	if write {
		s.entry(set, w).Dirty = true
	}
	return w
}

// FreeWay returns the index of the first invalid way in the line's set, or
// -1 if the set is full (one mask-and-count on the occupancy bits).
func (s *Slice) FreeWay(line mem.Line) int {
	set := s.SetIndex(line)
	free := ^s.occ[set] & (1<<uint(s.ways-s.disabled) - 1)
	if free == 0 {
		return -1
	}
	return bits.TrailingZeros64(free)
}

// VictimWay returns the way the replacement policy would evict from the
// line's set, preferring invalid ways. The set must be non-empty of ways
// (always true). It does not evict.
func (s *Slice) VictimWay(line mem.Line) int {
	if w := s.FreeWay(line); w >= 0 {
		return w
	}
	set := s.SetIndex(line)
	switch s.policy {
	case TreePLRU:
		// The PLRU tree spans all physical ways, so with disabled ways it
		// can point at a dead leaf; fall back to the timestamp scan
		// (LastUse is maintained under every policy).
		if s.disabled == 0 {
			return s.plruVictim(set)
		}
	case SRRIP:
		return s.srripVictim(set)
	}
	base := set * s.ways
	victim, oldest := 0, s.entries[base].LastUse
	for w := 1; w < s.ways-s.disabled; w++ {
		if u := s.entries[base+w].LastUse; u < oldest {
			victim, oldest = w, u
		}
	}
	return victim
}

// Victim returns the way VictimWay would replace, the LastUse timestamp of
// its entry, and whether that entry is valid. Merged groups compare victim
// ages across member slices to approximate a union-wide LRU, then insert at
// the chosen way without finding it again.
func (s *Slice) Victim(line mem.Line) (way int, age uint64, valid bool) {
	w := s.VictimWay(line)
	e := s.entry(s.SetIndex(line), w)
	return w, e.LastUse, e.Valid
}

// SetDirty marks the entry at (set, way) dirty without touching replacement
// state or counters (used for writebacks propagating down the hierarchy).
func (s *Slice) SetDirty(set, way int) { s.entry(set, way).Dirty = true }

// InsertAt fills (set, way) with the line, returning the evicted entry (its
// Valid field reports whether anything was displaced). The inserted entry is
// touched.
func (s *Slice) InsertAt(set, way int, asid mem.ASID, line mem.Line, dirty bool) Entry {
	e := s.entry(set, way)
	old := *e
	if old.Valid {
		s.stats.Evictions++
	}
	*e = Entry{Valid: true, Dirty: dirty, ASID: asid, Line: line}
	s.occ[set] |= 1 << uint(way)
	s.stats.Inserts++
	s.Touch(set, way)
	if s.policy == SRRIP {
		// Insertions predict a long re-reference interval (the Touch above
		// set 0; override to the insertion prediction).
		s.rrpv[set*s.ways+way] = rrpvInsert
	}
	return old
}

// Insert places the line in its set, evicting per the replacement policy if
// the set is full, and returns the displaced entry.
func (s *Slice) Insert(asid mem.ASID, line mem.Line, dirty bool) Entry {
	set := s.SetIndex(line)
	return s.InsertAt(set, s.VictimWay(line), asid, line, dirty)
}

// Invalidate removes the line if present and returns the removed entry.
func (s *Slice) Invalidate(asid mem.ASID, line mem.Line) Entry {
	w := s.Lookup(asid, line)
	if w < 0 {
		return Entry{}
	}
	return s.InvalidateWay(s.SetIndex(line), w)
}

// InvalidateWay clears (set, way) and returns the prior entry.
func (s *Slice) InvalidateWay(set, way int) Entry {
	e := s.entry(set, way)
	old := *e
	*e = Entry{}
	s.occ[set] &^= 1 << uint(way)
	return old
}

// Flush invalidates every entry and returns the number of valid lines
// removed. Replacement metadata and counters are preserved.
func (s *Slice) Flush() int {
	n := 0
	for i := range s.entries {
		if s.entries[i].Valid {
			n++
			s.entries[i] = Entry{}
		}
	}
	for i := range s.occ {
		s.occ[i] = 0
	}
	return n
}

// ValidLines returns the number of valid entries.
func (s *Slice) ValidLines() int {
	n := 0
	for _, m := range s.occ {
		n += bits.OnesCount64(m)
	}
	return n
}

// ForEachValid calls fn for every valid entry, with its set and way.
// fn must not mutate the slice.
func (s *Slice) ForEachValid(fn func(set, way int, e Entry)) {
	for set := 0; set < s.sets; set++ {
		base := set * s.ways
		for w := 0; w < s.ways; w++ {
			if e := s.entries[base+w]; e.Valid {
				fn(set, w, e)
			}
		}
	}
}

// --- tree pseudo-LRU -------------------------------------------------------
//
// The tree is the classic complete binary tree over the ways: node 1 is the
// root, node i has children 2i and 2i+1, and leaves correspond to ways. A
// bit value of 0 means "the LRU side is the left subtree". On a touch, every
// node on the path to the touched way is pointed *away* from it; the victim
// is found by following the pointed-to sides from the root.

func (s *Slice) plruTouch(set, way int) {
	bits := s.plru[set]
	// Walk from the root toward the leaf for `way`, setting each node to
	// point away from the taken direction.
	node := 1
	span := s.ways
	lo := 0
	for span > 1 {
		half := span / 2
		bit := uint64(1) << uint(node)
		if way < lo+half {
			bits |= bit // LRU side is right
			node = 2 * node
			span = half
		} else {
			bits &^= bit // LRU side is left
			node = 2*node + 1
			lo += half
			span -= half
		}
	}
	s.plru[set] = bits
}

func (s *Slice) plruVictim(set int) int {
	bits := s.plru[set]
	node := 1
	span := s.ways
	lo := 0
	for span > 1 {
		half := span / 2
		if bits&(uint64(1)<<uint(node)) == 0 {
			node = 2 * node
			span = half
		} else {
			node = 2*node + 1
			lo += half
			span -= half
		}
	}
	return lo
}

// srripVictim finds the first way predicted "distant" (RRPV == max), aging
// the whole set until one appears.
func (s *Slice) srripVictim(set int) int {
	base := set * s.ways
	for {
		for w := 0; w < s.ways-s.disabled; w++ {
			if s.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := 0; w < s.ways-s.disabled; w++ {
			s.rrpv[base+w]++
		}
	}
}
