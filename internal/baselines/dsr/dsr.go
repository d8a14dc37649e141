// Package dsr implements the Dynamic Spill-Receive baseline (Qureshi, HPCA
// 2009) extended to both the L2 and L3 caches, the private-cache competitor
// of the paper's Fig. 17.
//
// Each level keeps per-core private slices. Every slice learns, by set
// dueling, whether it is better off as a *spiller* (its evictions are
// installed into another slice, giving it remote capacity) or a *receiver*
// (it accepts other slices' spills, donating capacity):
//
//   - A few sets of each slice always behave as a spiller, a few others
//     always as a receiver; a per-slice saturating counter (PSEL) tracks
//     which sample population misses less, and follower sets adopt the
//     winner.
//   - On a miss in the local slice, all peer slices are snooped; a hit in a
//     peer costs the remote (bus) latency, exactly like a merged-slice hit
//     in MorphCache.
//
// Like PIPP, DSR is topology-agnostic: it moves lines between fixed private
// slices rather than reshaping the hierarchy, and it manages the two levels
// independently (non-inclusive).
package dsr

import (
	"math/bits"

	"morphcache/internal/cache"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
)

// Options tunes the DSR mechanism.
type Options struct {
	// SampleEvery: in every window of this many sets, set 0 is an
	// always-spill sample and set SampleEvery/2 an always-receive sample.
	SampleEvery int
	// PSELMax bounds the saturating counter (starts at the midpoint).
	PSELMax int
}

// DefaultOptions returns the dueling constants.
func DefaultOptions() Options { return Options{SampleEvery: 32, PSELMax: 1024} }

// System is the two-level DSR hierarchy implementing sim.Target.
type System struct {
	cores    int
	p        hierarchy.Params
	opts     Options
	l1       []*cache.Slice
	l2, l3   *level
	coreASID []mem.ASID
}

// New builds the DSR system with Table 3 slice parameters.
func New(p hierarchy.Params, opts Options) *System {
	s := &System{cores: p.Cores, p: p, opts: opts, coreASID: make([]mem.ASID, p.Cores)}
	for i := 0; i < p.Cores; i++ {
		s.l1 = append(s.l1, cache.New(cache.Config{SizeBytes: p.L1SizeBytes, Ways: p.L1Ways, Policy: cache.LRU}))
	}
	remote := p.BusTiming.OverheadCPUCycles()
	s.l2 = newLevel(p.Cores, cache.Config{SizeBytes: p.L2SliceBytes, Ways: p.L2Ways, Policy: cache.LRU},
		p.L2LocalCycles, p.L2LocalCycles+remote, opts)
	s.l3 = newLevel(p.Cores, cache.Config{SizeBytes: p.L3SliceBytes, Ways: p.L3Ways, Policy: cache.LRU},
		p.L3LocalCycles, p.L3LocalCycles+remote, opts)
	return s
}

// Name implements sim.Target.
func (s *System) Name() string { return "DSR" }

// Cores implements sim.Target.
func (s *System) Cores() int { return s.cores }

// Spec implements sim.Target.
func (s *System) Spec() string { return "DSR(L2+L3)" }

// SetCoreASID implements sim.Target.
func (s *System) SetCoreASID(core int, asid mem.ASID) { s.coreASID[core] = asid }

// EndEpoch implements sim.Target (PSEL adapts continuously; nothing to do).
func (s *System) EndEpoch(int) (int, bool) { return 0, false }

// SpillerCount returns how many slices currently act as spillers at L2
// (diagnostics and tests).
func (s *System) SpillerCount() int {
	n := 0
	for i := 0; i < s.cores; i++ {
		if s.l2.isSpiller(i) {
			n++
		}
	}
	return n
}

// Access implements sim.Target.
func (s *System) Access(core int, a mem.Access, _ uint64) hierarchy.AccessResult {
	gl := a.Global()
	write := a.Kind == mem.Write
	lat := s.p.L1HitCycles
	if s.l1[core].Access(a.ASID, a.Line, write) >= 0 {
		if write {
			s.invalidateOtherL1s(core, gl)
		}
		return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByL1}
	}

	if cost, remote, ok := s.l2.access(core, gl, write); ok {
		lat += cost
		s.fillL1(core, a, write)
		if write {
			s.invalidateOtherL1s(core, gl)
		}
		return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByL2, Remote: remote}
	}

	if cost, remote, ok := s.l3.access(core, gl, false); ok {
		lat += cost
		s.l2.fill(core, gl, write)
		s.fillL1(core, a, write)
		if write {
			s.invalidateOtherL1s(core, gl)
		}
		return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByL3, Remote: remote}
	}

	lat += s.p.MemCycles
	s.l3.fill(core, gl, false)
	s.l2.fill(core, gl, write)
	s.fillL1(core, a, write)
	if write {
		s.invalidateOtherL1s(core, gl)
	}
	return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByMemory}
}

func (s *System) fillL1(core int, a mem.Access, write bool) {
	old := s.l1[core].Insert(a.ASID, a.Line, write)
	if old.Valid && old.Dirty {
		ogl := mem.GlobalLine{ASID: old.ASID, Line: old.Line}
		if !s.l2.setDirty(ogl) {
			s.l3.setDirty(ogl)
		}
	}
}

func (s *System) invalidateOtherL1s(core int, gl mem.GlobalLine) {
	for c := range s.l1 {
		if c != core {
			s.l1[c].Invalidate(gl.ASID, gl.Line)
		}
	}
	// A write also invalidates copies of the line in other slices at both
	// levels (replicated shared data or stale spills).
	s.l2.invalidateExcept(core, gl)
	s.l3.invalidateExcept(core, gl)
}

// --- one DSR level ----------------------------------------------------------

type level struct {
	slices []*cache.Slice
	// present.Get(line) is the bitmask of slices holding the line: the
	// hierarchy's fixed-size presence index, sized to the level's line
	// capacity. Only probed by key, so its layout cannot reorder anything.
	present       *hierarchy.PresenceIndex
	psel          []int // > mid: spilling wins
	opts          Options
	local, remote int
	nextReceiver  int
	sets          int
}

func newLevel(cores int, cfg cache.Config, local, remote int, opts Options) *level {
	lv := &level{
		present: hierarchy.NewPresenceIndex(cores * cfg.Sets() * cfg.Ways),
		psel:    make([]int, cores),
		opts:    opts,
		local:   local, remote: remote,
		sets: cfg.Sets(),
	}
	clock := &cache.Clock{}
	for i := 0; i < cores; i++ {
		sl := cache.New(cfg)
		sl.ShareClock(clock)
		lv.slices = append(lv.slices, sl)
		lv.psel[i] = opts.PSELMax / 2
	}
	return lv
}

// setRole classifies a set index: +1 always-spill sample, -1 always-receive
// sample, 0 follower.
func (lv *level) setRole(set int) int {
	m := set % lv.opts.SampleEvery
	switch m {
	case 0:
		return +1
	case lv.opts.SampleEvery / 2:
		return -1
	default:
		return 0
	}
}

func (lv *level) isSpiller(slice int) bool { return lv.psel[slice] > lv.opts.PSELMax/2 }

// access looks up the line for the core, snooping peers on a local miss.
// Returns (latency, remote?, hit?).
func (lv *level) access(core int, gl mem.GlobalLine, write bool) (int, bool, bool) {
	sl := lv.slices[core]
	if w := sl.Access(gl.ASID, gl.Line, write); w >= 0 {
		return lv.local, false, true
	}
	// Miss in the local slice: update the dueling counter by sample role.
	set := sl.SetIndex(gl.Line)
	switch lv.setRole(set) {
	case +1:
		// The spill-sample population missing argues against spilling.
		if lv.psel[core] > 0 {
			lv.psel[core]--
		}
	case -1:
		if lv.psel[core] < lv.opts.PSELMax {
			lv.psel[core]++
		}
	}
	// Snoop peers for a spilled or replicated copy.
	mask := lv.present.Get(gl) &^ (1 << uint(core))
	if mask != 0 {
		peer := bits.TrailingZeros32(mask)
		if w := lv.slices[peer].Access(gl.ASID, gl.Line, write); w >= 0 {
			return lv.remote, true, true
		}
	}
	return 0, false, false
}

// fill installs the line in the core's own slice; if the slice (or the
// sample role of the victim's set) is in spill mode, the victim is spilled
// to a receiver peer instead of being dropped.
func (lv *level) fill(core int, gl mem.GlobalLine, dirty bool) {
	// Retire the victim's key before registering the newcomer's (and below,
	// the receiver's displaced line before the spilled one): the index is
	// sized to the level's line capacity, and this order keeps its key count
	// within that bound at every step. A level holds at most one copy of a
	// line (fills follow a miss in every slice), so the keys are distinct
	// and the order is otherwise unobservable.
	old := lv.slices[core].Insert(gl.ASID, gl.Line, dirty)
	ogl := mem.GlobalLine{ASID: old.ASID, Line: old.Line}
	if old.Valid {
		lv.present.Clear(ogl, 1<<uint(core))
	}
	lv.present.Or(gl, 1<<uint(core))
	if !old.Valid {
		return
	}

	set := lv.slices[core].SetIndex(old.Line)
	spill := lv.isSpiller(core)
	switch lv.setRole(set) {
	case +1:
		spill = true
	case -1:
		spill = false
	}
	if !spill {
		return
	}
	if r, ok := lv.pickReceiver(core); ok {
		spilledOut := lv.slices[r].Insert(old.ASID, old.Line, old.Dirty)
		if spilledOut.Valid {
			lv.present.Clear(mem.GlobalLine{ASID: spilledOut.ASID, Line: spilledOut.Line}, 1<<uint(r))
		}
		lv.present.Or(ogl, 1<<uint(r))
	}
}

// pickReceiver round-robins over slices currently in receive mode.
func (lv *level) pickReceiver(except int) (int, bool) {
	n := len(lv.slices)
	for i := 0; i < n; i++ {
		r := (lv.nextReceiver + i) % n
		if r != except && !lv.isSpiller(r) {
			lv.nextReceiver = (r + 1) % n
			return r, true
		}
	}
	return 0, false
}

func (lv *level) setDirty(gl mem.GlobalLine) bool {
	for m := lv.present.Get(gl); m != 0; m &= m - 1 {
		sl := bits.TrailingZeros32(m)
		if w := lv.slices[sl].Lookup(gl.ASID, gl.Line); w >= 0 {
			lv.slices[sl].SetDirty(lv.slices[sl].SetIndex(gl.Line), w)
			return true
		}
	}
	return false
}

func (lv *level) invalidateExcept(core int, gl mem.GlobalLine) {
	for m := lv.present.Get(gl) &^ (1 << uint(core)); m != 0; m &= m - 1 {
		sl := bits.TrailingZeros32(m)
		lv.slices[sl].Invalidate(gl.ASID, gl.Line)
		lv.present.Clear(gl, 1<<uint(sl))
	}
}
