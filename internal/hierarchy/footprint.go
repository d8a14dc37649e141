package hierarchy

import "morphcache/internal/mem"

// Footprint signals for the MorphCache controller (§2.1–2.2).
//
// The controller consumes the *reuse demand* of each (core, slice): the set
// of unique lines the core referenced at that level at least twice in the
// current interval. This refines the paper's ACF in two ways that matter in
// a trace-driven setting:
//
//   - demand, not residency: a thrashing slice (working set ≫ capacity)
//     must read as highly utilized even though each line barely stays
//     resident, otherwise merge rule (i) can never see the starvation it is
//     supposed to relieve;
//   - two-touch filter: lines referenced exactly once (streams) exert no
//     capacity *utility* — giving them cache space returns nothing — so
//     they are excluded, mirroring the paper's observation that stale,
//     unreused data must not inflate the estimate.
//
// The hardware ACFV bit-vector of §2.1 (package acfv) approximates exactly
// this kind of set; Fig. 5 of the paper — reproduced by the fig5 experiment
// — quantifies how well small vectors track the true footprint. The
// simulator hands the controller the exact set (the paper's "oracle") so
// that policy quality is studied separately from estimator fidelity.
//
// Representation: the sets used to be map[mem.Line]uint8 values rebuilt
// from scratch every interval, which made markDemand (on the access path)
// and every epoch reset allocate. They are now generation-stamped
// open-addressing tables: a slot is live only when its gen equals the
// table's current generation, so ResetFootprints is one counter bump and
// the backing arrays are reused across intervals (grown geometrically to
// the high-water footprint, then allocation-free). Iteration order over a
// table is array order — deterministic — and every consumer below reduces
// to order-independent set cardinalities anyway.

// demandHash mixes a line address into a table index (same multiplicative
// scheme as presenceHash, without the ASID term: demand sets are per-core
// and cores do not mix address spaces within an interval).
func demandHash(line mem.Line) uint64 {
	h := uint64(line) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// lineTable is a set of lines with a touch count per line (saturating at
// 15). It is both a (core, slice) demand footprint and the scratch union set
// of the utilization/overlap signals below, two of which the System owns
// instead of allocating fresh maps on every controller query. The zero
// value is an empty table.
type lineTable struct {
	mask  uint64
	cells []lineCell
	cur   uint32 // current generation; cells with gen != cur are empty
	n     int    // live entries in the current generation
}

// lineCell is one 16-byte table slot, so a probe reads one cell.
type lineCell struct {
	line mem.Line
	gen  uint32
	cnt  uint8
}

// mark records one touch of the line in the current generation.
func (d *lineTable) mark(line mem.Line) {
	if d.cells == nil {
		d.grow(64)
	}
	i := demandHash(line) & d.mask
	for {
		c := &d.cells[i]
		if c.gen != d.cur {
			*c = lineCell{line: line, gen: d.cur, cnt: 1}
			d.n++
			if 4*d.n > 3*len(d.cells) {
				d.grow(2 * len(d.cells))
			}
			return
		}
		if c.line == line {
			if c.cnt < 15 {
				c.cnt++
			}
			return
		}
		i = (i + 1) & d.mask
	}
}

// has reports membership.
func (d *lineTable) has(line mem.Line) bool {
	if d.cells == nil {
		return false
	}
	i := demandHash(line) & d.mask
	for {
		c := &d.cells[i]
		if c.gen != d.cur {
			return false
		}
		if c.line == line {
			return true
		}
		i = (i + 1) & d.mask
	}
}

// size returns the number of lines in the table.
func (d *lineTable) size() int { return d.n }

// grow rehashes the live entries into a table of the given slot count.
func (d *lineTable) grow(slots int) {
	old, oldCur := d.cells, d.cur
	d.cells = make([]lineCell, slots)
	d.mask = uint64(slots - 1)
	d.cur = 1
	for _, c := range old {
		if c.gen != oldCur {
			continue
		}
		j := demandHash(c.line) & d.mask
		for d.cells[j].gen == d.cur {
			j = (j + 1) & d.mask
		}
		c.gen = 1
		d.cells[j] = c
	}
}

// reset empties the table without touching the backing array: cells
// stamped with older generations read as empty.
func (d *lineTable) reset() {
	if d.cells == nil {
		return
	}
	d.cur++
	if d.cur == 0 {
		// Generation counter wrapped (after 2^32 resets): clear the
		// stamps so stale cells cannot alias the new generation.
		for i := range d.cells {
			d.cells[i].gen = 0
		}
		d.cur = 1
	}
	d.n = 0
}

// forEach calls fn for every line touched at least thr times.
func (d *lineTable) forEach(thr uint8, fn func(mem.Line)) {
	for _, c := range d.cells {
		if c.gen == d.cur && c.cnt >= thr {
			fn(c.line)
		}
	}
}

// Reuse thresholds: a line belongs to a level's demand when the core
// touched it at this level at least this many times in the interval. L2
// marks fire only on L2 hits, so the threshold selects lines whose reuse is
// actually realized at L2 tempo; L3 marks fire on L3 hits and fills (i.e.,
// accesses that missed L2), so two touches there identify L3-tempo reuse —
// including the working set of a thrashing slice, which hits nowhere but
// keeps coming back. Once-touched lines (streams) never count anywhere.
const (
	l2ReuseThreshold = 2
	l3ReuseThreshold = 2
)

func reuseThreshold(l Level) uint8 {
	if l == L2 {
		return l2ReuseThreshold
	}
	return l3ReuseThreshold
}

func (s *System) markDemand(l Level, core, slice int, line mem.Line) {
	dd := s.demandL2
	if l == L3 {
		dd = s.demandL3
	}
	dd[core][slice].mark(line)
}

// ResetFootprints clears every footprint set; called once per
// reconfiguration interval so the sets track only the current interval's
// actively used data (§2.1). The backing tables are retained (generation
// bump), so steady-state epochs allocate nothing.
func (s *System) ResetFootprints() {
	for c := 0; c < s.p.Cores; c++ {
		for sl := 0; sl < s.p.Cores; sl++ {
			s.demandL2[c][sl].reset()
			s.demandL3[c][sl].reset()
		}
	}
}

func (s *System) sliceLines(l Level) int {
	if l == L2 {
		return s.l2Lines
	}
	return s.l3Lines
}

// sliceReused builds the union over cores of one slice's reused lines.
func (s *System) sliceReused(l Level, slice int, into *lineTable) {
	dd := s.demandL2
	if l == L3 {
		dd = s.demandL3
	}
	thr := reuseThreshold(l)
	for c := 0; c < s.p.Cores; c++ {
		dd[c][slice].forEach(thr, into.mark)
	}
}

// SliceUtilization returns the reuse demand of one slice as a fraction of
// its capacity — the signal compared against the MSAT bounds. Values above
// 1 mean the active working set exceeds the slice.
func (s *System) SliceUtilization(l Level, slice int) float64 {
	set := &s.scratchA
	set.reset()
	s.sliceReused(l, slice, set)
	if !s.flt.any {
		return float64(set.size()) / float64(s.sliceLines(l))
	}
	return float64(set.size()) / float64(s.effSliceLines(l, slice))
}

// SubsetUtilization returns the juxtaposed utilization of a set of slices
// (§2.2): total reuse demand over total capacity. With a whole group it is
// the group's utilization; with half a group it is the signal the split
// rule examines.
func (s *System) SubsetUtilization(l Level, slices []int) float64 {
	set := &s.scratchA
	set.reset()
	for _, sl := range slices {
		s.sliceReused(l, sl, set)
	}
	if !s.flt.any {
		return float64(set.size()) / (float64(len(slices)) * float64(s.sliceLines(l)))
	}
	capLines := 0
	for _, sl := range slices {
		capLines += s.effSliceLines(l, sl)
	}
	return float64(set.size()) / float64(capLines)
}

// GroupUtilization returns the utilization of a whole group.
func (s *System) GroupUtilization(l Level, group int) float64 {
	return s.SubsetUtilization(l, s.grouping(l).Members(group))
}

// overlapOf returns the fraction of the smaller set's members that both
// sets contain, 0 when either set is empty.
func overlapOf(sa, sb *lineTable) float64 {
	if sa.size() == 0 || sb.size() == 0 {
		return 0
	}
	small, big := sa, sb
	if sb.size() < sa.size() {
		small, big = sb, sa
	}
	common := 0
	small.forEach(1, func(line mem.Line) {
		if big.has(line) {
			common++
		}
	})
	return float64(common) / float64(small.size())
}

// SubsetOverlap returns the data-sharing signal between two slice sets at a
// level: the fraction of the smaller set's reuse demand that both sets
// reference. This is the "significant number of common 1s" test of merge
// rule (ii); the caller is responsible for the same-address-space check.
func (s *System) SubsetOverlap(l Level, a, b []int) float64 {
	sa, sb := &s.scratchA, &s.scratchB
	sa.reset()
	sb.reset()
	for _, sl := range a {
		s.sliceReused(l, sl, sa)
	}
	for _, sl := range b {
		s.sliceReused(l, sl, sb)
	}
	return overlapOf(sa, sb)
}

// GroupOverlap is SubsetOverlap over two existing groups.
func (s *System) GroupOverlap(l Level, ga, gb int) float64 {
	g := s.grouping(l)
	return s.SubsetOverlap(l, g.Members(ga), g.Members(gb))
}

// SlicesShareASID reports whether all listed cores run threads of one
// address space — the precondition of merge rule (ii). Cores map one-to-one
// to slices, so slice indices double as core ids.
func (s *System) SlicesShareASID(slices ...[]int) bool {
	ref := s.coreASID[slices[0][0]]
	for _, set := range slices {
		for _, c := range set {
			if s.coreASID[c] != ref {
				return false
			}
		}
	}
	return true
}

// coreReused collects one core's reused lines at a level across every slice
// its data lands in. This is the paper's per-thread ACF: "the set of unique
// cache lines referenced by that thread in that epoch" — independent of
// *where* a merged group placed the lines, which matters because the
// locality spill spreads a thread's working set across its group.
func (s *System) coreReused(l Level, core int, into *lineTable) {
	dd := s.demandL2
	if l == L3 {
		dd = s.demandL3
	}
	thr := reuseThreshold(l)
	for sl := 0; sl < s.p.Cores; sl++ {
		dd[core][sl].forEach(thr, into.mark)
	}
}

// CoresUtilization returns the combined reuse demand of a set of cores
// (threads) as a fraction of len(cores) slices of capacity — the per-thread
// ACF signal the controller's merge and split rules compare against the
// MSAT bounds. Under faults, the denominator counts only usable capacity
// (disabled ways excluded), and a corrupted monitor in the set saturates
// the reading to corruptUtilization — the garbage a stuck-at-1 ACFV feeds
// an unprotected controller.
func (s *System) CoresUtilization(l Level, cores []int) float64 {
	set := &s.scratchA
	set.reset()
	for _, c := range cores {
		s.coreReused(l, c, set)
	}
	if !s.flt.any {
		return float64(set.size()) / (float64(len(cores)) * float64(s.sliceLines(l)))
	}
	capLines, corrupt := 0, false
	for _, c := range cores {
		capLines += s.effSliceLines(l, c)
		corrupt = corrupt || s.MonitorCorrupt(c)
	}
	u := float64(set.size()) / float64(capLines)
	if corrupt && u < corruptUtilization {
		u = corruptUtilization
	}
	return u
}

// CoresOverlap returns the fraction of the smaller side's per-thread reuse
// demand that both sides reference — the data-sharing signal of merge rule
// (ii), computed per thread group. A corrupted monitor on either side reads
// full overlap (stuck-at-1 vectors intersect everywhere).
func (s *System) CoresOverlap(l Level, a, b []int) float64 {
	if s.flt.any {
		for _, set := range [][]int{a, b} {
			for _, c := range set {
				if s.MonitorCorrupt(c) {
					return 1
				}
			}
		}
	}
	sa, sb := &s.scratchA, &s.scratchB
	sa.reset()
	sb.reset()
	for _, c := range a {
		s.coreReused(l, c, sa)
	}
	for _, c := range b {
		s.coreReused(l, c, sb)
	}
	return overlapOf(sa, sb)
}
