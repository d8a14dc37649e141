package hierarchy

import (
	"fmt"
	"sort"
	"testing"

	"morphcache/internal/cache"
	"morphcache/internal/fault"
	"morphcache/internal/mem"
	"morphcache/internal/rng"
	"morphcache/internal/topology"
)

// The reference hierarchy below is a deliberately naive re-statement of the
// access semantics in access.go, reconfig.go and fault.go: Go maps of sets,
// per-set ways stamped from one clock per level (the least recent stamp is
// the LRU victim), and full scans of every L1 and slice wherever the real
// system consults its presence index, occupancy masks or group masks. It
// models LRU replacement only and ignores latency, bandwidth and footprints.

// refWay is one way of a reference cache.
type refWay struct {
	valid, dirty bool
	gl           mem.GlobalLine
	stamp        uint64
}

// refCache is one reference L1 or slice.
type refCache struct {
	sets, ways, disabled int
	clock                *uint64
	rows                 map[int][]refWay
}

func newRefCache(sizeBytes, ways int, clock *uint64) *refCache {
	return &refCache{sets: sizeBytes / mem.LineSize / ways, ways: ways, clock: clock, rows: map[int][]refWay{}}
}

func (c *refCache) setOf(line mem.Line) int { return int(uint64(line) % uint64(c.sets)) }

func (c *refCache) row(set int) []refWay {
	r, ok := c.rows[set]
	if !ok {
		r = make([]refWay, c.ways)
		c.rows[set] = r
	}
	return r
}

// find returns the way holding the line, or -1.
func (c *refCache) find(gl mem.GlobalLine) int {
	for w, e := range c.row(c.setOf(gl.Line)) {
		if e.valid && e.gl == gl {
			return w
		}
	}
	return -1
}

func (c *refCache) touch(set, w int) {
	*c.clock++
	c.row(set)[w].stamp = *c.clock
}

// victim returns the first invalid enabled way of the line's set, else the
// enabled way with the oldest stamp.
func (c *refCache) victim(line mem.Line) (way int, free bool) {
	r := c.row(c.setOf(line))
	live := c.ways - c.disabled
	for w := 0; w < live; w++ {
		if !r[w].valid {
			return w, true
		}
	}
	way = 0
	for w := 1; w < live; w++ {
		if r[w].stamp < r[way].stamp {
			way = w
		}
	}
	return way, false
}

// insert fills the way chosen by victim and returns its former content.
func (c *refCache) insert(gl mem.GlobalLine, dirty bool) refWay {
	set := c.setOf(gl.Line)
	w, _ := c.victim(gl.Line)
	r := c.row(set)
	old := r[w]
	r[w] = refWay{valid: true, dirty: dirty, gl: gl}
	c.touch(set, w)
	return old
}

func (c *refCache) remove(gl mem.GlobalLine) refWay {
	w := c.find(gl)
	if w < 0 {
		return refWay{}
	}
	r := c.row(c.setOf(gl.Line))
	old := r[w]
	r[w] = refWay{}
	return old
}

// refCounters are the System.Stats fields the oracle compares.
type refCounters struct {
	C2C, Writeback, CoherenceInv, LazyInv, InclusionInv, BackInv, Migrations uint64
}

// refSystem is the reference hierarchy.
type refSystem struct {
	chargeRemote bool
	l1, l2, l3   []*refCache
	topo         topology.Topology
	st           refCounters
}

func newRefSystem(p Params, topo topology.Topology) *refSystem {
	r := &refSystem{chargeRemote: p.ChargeRemote, topo: topo}
	var c1, c2, c3 uint64
	for i := 0; i < p.Cores; i++ {
		r.l1 = append(r.l1, newRefCache(p.L1SizeBytes, p.L1Ways, &c1))
		r.l2 = append(r.l2, newRefCache(p.L2SliceBytes, p.L2Ways, &c2))
		r.l3 = append(r.l3, newRefCache(p.L3SliceBytes, p.L3Ways, &c3))
	}
	return r
}

func (r *refSystem) level(l Level) []*refCache {
	if l == L2 {
		return r.l2
	}
	return r.l3
}

// group returns the members of the slice's group at the level, ascending.
func (r *refSystem) group(l Level, slice int) []int {
	g := r.topo.L2
	if l == L3 {
		g = r.topo.L3
	}
	return g.Members(g.GroupOf(slice))
}

// holders scans every slice of the level for the line.
func (r *refSystem) holders(l Level, gl mem.GlobalLine) []int {
	var out []int
	for i, c := range r.level(l) {
		if c.find(gl) >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// holdersIn lists the members of the slice's group that hold the line.
func (r *refSystem) holdersIn(l Level, slice int, gl mem.GlobalLine) []int {
	var out []int
	for _, m := range r.group(l, slice) {
		if r.level(l)[m].find(gl) >= 0 {
			out = append(out, m)
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// markDirty sets the dirty bit of the lowest-numbered copy of the line in
// the slice's group.
func (r *refSystem) markDirty(l Level, slice int, gl mem.GlobalLine) {
	if hs := r.holdersIn(l, slice, gl); len(hs) > 0 {
		c := r.level(l)[hs[0]]
		c.row(c.setOf(gl.Line))[c.find(gl)].dirty = true
	}
}

func (r *refSystem) access(core int, a mem.Access) (ServedBy, bool) {
	gl := a.Global()
	write := a.Kind == mem.Write
	l1 := r.l1[core]
	if w := l1.find(gl); w >= 0 {
		set := l1.setOf(gl.Line)
		l1.touch(set, w)
		if write {
			l1.row(set)[w].dirty = true
			r.writeInvalidate(core, gl)
		}
		return ByL1, false
	}
	if sl := r.findInGroup(L2, core, gl); sl >= 0 {
		c := r.l2[sl]
		set, w := c.setOf(gl.Line), c.find(gl)
		c.touch(set, w)
		if write {
			c.row(set)[w].dirty = true
		}
		remote := sl != core
		if remote && r.chargeRemote {
			r.migrate(L2, core, sl, gl)
		}
		r.fillL1(core, gl, write)
		if write {
			r.writeInvalidate(core, gl)
		}
		return ByL2, remote
	}
	if sl := r.findInGroup(L3, core, gl); sl >= 0 {
		c := r.l3[sl]
		c.touch(c.setOf(gl.Line), c.find(gl))
		remote := sl != core
		if remote && r.chargeRemote {
			r.migrate(L3, core, sl, gl)
		}
		r.fillGroup(L2, core, gl, write)
		r.fillL1(core, gl, write)
		if write {
			r.writeInvalidate(core, gl)
		}
		return ByL3, remote
	}
	served := ByMemory
	for _, h := range r.holders(L3, gl) {
		if !contains(r.group(L3, core), h) {
			served = ByC2C
		}
	}
	if served == ByC2C {
		r.st.C2C++
	}
	r.fillGroup(L3, core, gl, false)
	r.fillGroup(L2, core, gl, write)
	r.fillL1(core, gl, write)
	if write {
		r.writeInvalidate(core, gl)
	}
	return served, false
}

// findInGroup keeps the requester's own copy (else the lowest-numbered one)
// and lazily invalidates every other copy in the group.
func (r *refSystem) findInGroup(l Level, core int, gl mem.GlobalLine) int {
	hs := r.holdersIn(l, core, gl)
	if len(hs) == 0 {
		return -1
	}
	keep := hs[0]
	if contains(hs, core) {
		keep = core
	}
	for _, h := range hs {
		if h != keep {
			r.invalidateAt(l, h, gl, false)
			r.st.LazyInv++
		}
	}
	return keep
}

func (r *refSystem) invalidateAt(l Level, slice int, gl mem.GlobalLine, cascade bool) {
	e := r.level(l)[slice].remove(gl)
	if !e.valid {
		return
	}
	if l == L3 {
		if e.dirty {
			r.st.Writeback++
		}
		return
	}
	if cascade {
		r.backInvalidateL1(slice, gl)
	}
	if e.dirty {
		r.markDirty(L3, slice, gl)
	}
}

func (r *refSystem) backInvalidateL1(slice int, gl mem.GlobalLine) {
	for _, c := range r.group(L2, slice) {
		r.l1[c].remove(gl)
	}
}

func (r *refSystem) writeInvalidate(core int, gl mem.GlobalLine) {
	for c, l1 := range r.l1 {
		if c != core && l1.remove(gl).valid {
			r.st.CoherenceInv++
		}
	}
	for _, l := range []Level{L2, L3} {
		for _, h := range r.holders(l, gl) {
			if !contains(r.group(l, core), h) {
				r.st.CoherenceInv++
				r.invalidateAt(l, h, gl, l == L2)
			}
		}
	}
}

func (r *refSystem) fillL1(core int, gl mem.GlobalLine, dirty bool) {
	if old := r.l1[core].insert(gl, dirty); old.valid && old.dirty {
		r.markDirty(L2, core, old.gl)
	}
}

// fillGroup puts the line in the requester's slice and spills the displaced
// line to the member slice with a free way (first in member order) or, if
// none, the oldest victim older than the displaced line.
func (r *refSystem) fillGroup(l Level, core int, gl mem.GlobalLine, dirty bool) {
	victim := r.level(l)[core].insert(gl, dirty)
	if !victim.valid {
		return
	}
	if hs := r.holdersIn(l, core, victim.gl); len(hs) > 0 {
		if victim.dirty {
			r.markDirty(l, core, victim.gl)
		}
		return
	}
	target, age := -1, victim.stamp
	for _, m := range r.group(l, core) {
		if m == core {
			continue
		}
		c := r.level(l)[m]
		w, free := c.victim(victim.gl.Line)
		if free {
			target = m
			break
		}
		if s := c.row(c.setOf(victim.gl.Line))[w].stamp; s < age {
			target, age = m, s
		}
	}
	if target < 0 {
		r.evicted(l, core, victim)
		return
	}
	if old := r.level(l)[target].insert(victim.gl, victim.dirty); old.valid {
		r.evicted(l, target, old)
	}
}

func (r *refSystem) migrate(l Level, core, from int, gl mem.GlobalLine) {
	e := r.level(l)[from].remove(gl)
	if !e.valid {
		return
	}
	r.fillGroup(l, core, gl, e.dirty)
	r.st.Migrations++
}

// evicted applies the consequences of a line leaving a slice.
func (r *refSystem) evicted(l Level, slice int, e refWay) {
	if l == L2 {
		r.backInvalidateL1(slice, e.gl)
		if e.dirty {
			r.markDirty(L3, slice, e.gl)
		}
		return
	}
	// The L2 copies beneath the slice's L3 group.
	for _, m := range r.group(L3, slice) {
		if r.l2[m].find(e.gl) >= 0 {
			r.st.BackInv++
			r.invalidateAt(L2, m, e.gl, true)
		}
	}
	if e.dirty {
		r.st.Writeback++
	}
}

// sortedSets lists the sets the cache has touched, ascending.
func (c *refCache) sortedSets() []int {
	sets := make([]int, 0, len(c.rows))
	for set := range c.rows {
		sets = append(sets, set)
	}
	sort.Ints(sets)
	return sets
}

// validLines lists a cache's valid ways in set, then way, order.
func (c *refCache) validLines() []refWay {
	var out []refWay
	for _, set := range c.sortedSets() {
		for _, e := range c.rows[set] {
			if e.valid {
				out = append(out, e)
			}
		}
	}
	return out
}

func (r *refSystem) setTopology(topo topology.Topology) {
	r.topo = topo
	for sl, c := range r.l2 {
		for _, e := range c.validLines() {
			if len(r.holdersIn(L3, sl, e.gl)) == 0 {
				r.st.InclusionInv++
				r.invalidateAt(L2, sl, e.gl, true)
			}
		}
	}
	for core, c := range r.l1 {
		for _, e := range c.validLines() {
			if len(r.holdersIn(L2, core, e.gl)) == 0 {
				r.st.InclusionInv++
				c.remove(e.gl)
			}
		}
	}
}

// disableWays fails the top ways of every set of one slice, then runs the
// eviction consequences of the lost lines in set, then way, order.
func (r *refSystem) disableWays(l Level, slice, n int) {
	c := r.level(l)[slice]
	n += c.disabled
	if n > c.ways-1 {
		n = c.ways - 1
	}
	var dropped []refWay
	if n > c.disabled {
		for _, set := range c.sortedSets() {
			row := c.rows[set]
			for w := c.ways - n; w < c.ways; w++ {
				if row[w].valid {
					dropped = append(dropped, row[w])
					row[w] = refWay{}
				}
			}
		}
		c.disabled = n
	}
	for _, e := range dropped {
		r.evicted(l, slice, e)
	}
}

// compare checks every way of every real cache against the reference,
// then the compared counters.
func (r *refSystem) compare(s *System) error {
	for _, lv := range []struct {
		name string
		ref  []*refCache
		real func(int) *cache.Slice
	}{
		{"L1", r.l1, s.L1Cache},
		{"L2", r.l2, func(i int) *cache.Slice { return s.SliceCache(L2, i) }},
		{"L3", r.l3, func(i int) *cache.Slice { return s.SliceCache(L3, i) }},
	} {
		for i, rc := range lv.ref {
			real := lv.real(i)
			for set := 0; set < rc.sets; set++ {
				row := rc.row(set)
				for w := 0; w < rc.ways; w++ {
					e, want := real.Entry(set, w), row[w]
					if e.Valid != want.valid || e.Valid && (e.Dirty != want.dirty || e.ASID != want.gl.ASID || e.Line != want.gl.Line) {
						return fmt.Errorf("%s[%d] set %d way %d: got %+v, reference %+v", lv.name, i, set, w, e, want)
					}
				}
			}
		}
	}
	st := s.Stats()
	got := refCounters{st.C2C, st.Writeback, st.CoherenceInv, st.LazyInv, st.InclusionInv, st.BackInv, st.Migrations}
	if got != r.st {
		return fmt.Errorf("counters: got %+v, reference %+v", got, r.st)
	}
	return nil
}

// scriptTopology decodes a random valid topology: each slice takes an L3
// group label, and L2 groups split L3 groups by one more bit.
func scriptTopology(n int, next func() int) (topology.Topology, error) {
	l3, l2 := map[int][]int{}, map[int][]int{}
	for s := 0; s < n; s++ {
		b := next()
		g3 := b % n
		l3[g3] = append(l3[g3], s)
		l2[2*g3+(b/n)%2] = append(l2[2*g3+(b/n)%2], s)
	}
	groups := func(m map[int][]int) (topology.Grouping, error) {
		var gs [][]int
		for _, g := range m {
			gs = append(gs, g)
		}
		return topology.FromGroups(n, gs)
	}
	var t topology.Topology
	var err error
	if t.L2, err = groups(l2); err != nil {
		return t, err
	}
	t.L3, err = groups(l3)
	return t, err
}

// runHierarchyModel decodes a script from data and runs it on a real
// System and the reference in lockstep, failing on the first divergence.
func runHierarchyModel(t *testing.T, data []byte) {
	const maxOps = 400
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	hdr := next()
	p := Default(2 << (hdr % 2)) // 2 or 4 cores
	p.ChargeRemote = hdr&2 != 0
	p.L1Ways = 1 + next()%2
	p.L1SizeBytes = p.L1Ways * mem.LineSize << (next() % 2)
	p.L2Ways = 1 + next()%3
	p.L2SliceBytes = p.L2Ways * mem.LineSize << (next() % 2)
	p.L3Ways = 1 + next()%4
	p.L3SliceBytes = p.L3Ways * mem.LineSize << (next() % 3)
	lines := 1 + p.Cores*p.L3SliceBytes/mem.LineSize + next()%8
	topo, err := scriptTopology(p.Cores, next)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, topo)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSystem(p, topo)
	for op := 0; op < maxOps && len(data) > 0; op++ {
		b := next()
		var what string
		switch {
		case b%8 == 6:
			topo, err := scriptTopology(p.Cores, next)
			if err != nil {
				t.Fatal(err)
			}
			what = "topology " + topo.Spec()
			if err := s.SetTopology(topo); err != nil {
				t.Fatal(err)
			}
			ref.setTopology(topo)
		case b%8 == 7 && b&0x18 == 0:
			l, lv, slice, ways := L2, 2, next()%p.Cores, 1+next()%2
			if b&0x20 != 0 {
				l, lv = L3, 3
			}
			what = fmt.Sprintf("disable %d ways of %v slice %d", ways, l, slice)
			if err := s.ApplyFault(fault.Event{Kind: fault.WayDisable, Level: lv, Slice: slice, Ways: ways}); err != nil {
				t.Fatal(err)
			}
			ref.disableWays(l, slice, ways)
		default:
			core := next() % p.Cores
			a := mem.Access{Line: mem.Line(next() % lines), ASID: mem.ASID(1 + b>>7)}
			if b&8 != 0 {
				a.Kind = mem.Write
			}
			what = fmt.Sprintf("core %d %+v", core, a)
			res := s.Access(core, a, uint64(op)*100)
			served, remote := ref.access(core, a)
			if res.Served != served || res.Remote != remote {
				t.Fatalf("op %d (%s): served %v remote %v, reference %v remote %v", op, what, res.Served, res.Remote, served, remote)
			}
		}
		if err := s.CheckInclusion(); err != nil {
			t.Fatalf("op %d (%s): %v", op, what, err)
		}
		if err := ref.compare(s); err != nil {
			t.Fatalf("op %d (%s): %v", op, what, err)
		}
	}
}

// FuzzHierarchyModel runs fuzz-scripted accesses, reconfigurations and
// way-disable faults on small random configurations (2 or 4 cores, slices
// of one to four ways and sets) against the naive reference hierarchy. After
// every step the serving level and remote flag of an access, every way of
// every cache (line, address space, dirty bit) and the C2C, writeback,
// coherence, lazy, inclusion, back-invalidation and migration counters
// must agree, and CheckInclusion (which includes CheckPresence) must pass.
func FuzzHierarchyModel(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 1, 0, 2, 5, 0, 8, 0, 3, 9, 1, 3, 0, 0, 3, 8, 2, 5, 1, 5, 14, 1, 4, 0x88, 0, 4, 6, 1, 5, 2, 3, 7, 0, 1})
	f.Add([]byte{1, 0, 0, 1, 0, 2, 1, 0, 0, 0, 8, 1, 9, 8, 0, 9, 0, 1, 9, 0x87, 1, 1, 8, 1, 9, 0x27, 0, 1, 8, 0, 9})
	f.Add([]byte{2, 1, 1, 0, 1, 1, 7, 0, 0, 0, 0, 0, 3, 1, 8, 2, 1, 0, 3, 5, 9, 0, 6, 3, 7, 1, 2, 0, 14, 1, 5, 0x80, 2, 6})
	f.Fuzz(runHierarchyModel)
}

// TestHierarchyModelRandomScripts runs the oracle over pseudo-random
// scripts, so plain test runs exercise long interleavings without the
// fuzzing engine.
func TestHierarchyModelRandomScripts(t *testing.T) {
	r := rng.New(18)
	for i := 0; i < 60; i++ {
		data := make([]byte, 900)
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		t.Run(fmt.Sprint(i), func(t *testing.T) { runHierarchyModel(t, data) })
	}
}
