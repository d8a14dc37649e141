package dsr

import (
	"testing"

	"morphcache/internal/cache"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/sim"
	"morphcache/internal/workload"
)

func newLevelT() *level {
	cfg := cache.Config{SizeBytes: 64 * 64, Ways: 4, Policy: cache.LRU} // 16 sets x 4 ways
	return newLevel(4, cfg, 10, 25, DefaultOptions())
}

func TestSetRoles(t *testing.T) {
	lv := newLevelT()
	if lv.setRole(0) != 1 {
		t.Fatal("set 0 should be an always-spill sample")
	}
	if lv.setRole(lv.opts.SampleEvery/2) != -1 {
		t.Fatal("mid-window set should be an always-receive sample")
	}
	if lv.setRole(3) != 0 {
		t.Fatal("other sets are followers")
	}
}

func TestSpillToReceiver(t *testing.T) {
	lv := newLevelT()
	// Make slice 0 a spiller, everyone else receivers.
	lv.psel[0] = lv.opts.PSELMax
	for i := 1; i < 4; i++ {
		lv.psel[i] = 0
	}
	// Fill set 1 (a follower set) of slice 0, then overflow it.
	for i := 0; i < 5; i++ {
		gl := mem.GlobalLine{ASID: 1, Line: mem.Line(1 + i*16)}
		lv.fill(0, gl, false)
	}
	// The victim of the overflow must now live in some peer slice.
	victim := mem.GlobalLine{ASID: 1, Line: 1}
	if lv.present.Get(victim)&^1 == 0 {
		t.Fatalf("victim not spilled: mask %#x", lv.present.Get(victim))
	}
	// And a local miss finds it remotely at the remote latency.
	cost, remote, ok := lv.access(0, victim, false)
	if !ok || !remote || cost != 25 {
		t.Fatalf("remote spill hit: cost=%d remote=%v ok=%v", cost, remote, ok)
	}
}

func TestNoSpillWhenReceiver(t *testing.T) {
	lv := newLevelT()
	for i := range lv.psel {
		lv.psel[i] = 0 // everyone receives; no one spills
	}
	for i := 0; i < 5; i++ {
		lv.fill(0, mem.GlobalLine{ASID: 1, Line: mem.Line(1 + i*16)}, false)
	}
	victim := mem.GlobalLine{ASID: 1, Line: 1}
	if lv.present.Get(victim) != 0 {
		t.Fatalf("receiver's victim should be dropped, mask %#x", lv.present.Get(victim))
	}
}

func TestDuelingMovesPSEL(t *testing.T) {
	lv := newLevelT()
	start := lv.psel[2]
	// Misses in slice 2's always-spill sample set (set 0) argue against
	// spilling: PSEL decrements.
	for i := 0; i < 10; i++ {
		lv.access(2, mem.GlobalLine{ASID: 3, Line: mem.Line(i * 1024)}, false) // set 0 lines
	}
	if lv.psel[2] >= start {
		t.Fatalf("PSEL should fall on spill-sample misses: %d -> %d", start, lv.psel[2])
	}
}

func TestWriteInvalidatesPeers(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	s := New(p, DefaultOptions())
	s.SetCoreASID(0, 5)
	s.SetCoreASID(1, 5)
	a := mem.Access{Line: 100, ASID: 5}
	s.Access(0, a, 0)
	s.Access(1, a, 0)
	w := a
	w.Kind = mem.Write
	s.Access(0, w, 0)
	// Peer copies at both levels must be gone.
	gl := a.Global()
	if s.l2.present.Get(gl)&^1 != 0 || s.l3.present.Get(gl)&^1 != 0 {
		t.Fatalf("peer copies survive a write: L2 %#x L3 %#x", s.l2.present.Get(gl), s.l3.present.Get(gl))
	}
}

func TestSystemEndToEnd(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	mix, _ := workload.MixByName("MIX 02")
	mix.Benchmarks = mix.Benchmarks[:4]
	gens := workload.MixGenerators(mix, workload.ScaledGenConfig(16), 1)
	cfg := sim.DefaultConfig()
	cfg.Epochs, cfg.WarmupEpochs, cfg.EpochCycles = 3, 1, 100_000
	sys := New(p, DefaultOptions())
	eng, err := sim.New(cfg, sys, gens)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Run().Throughput() <= 0 {
		t.Fatal("DSR run made no progress")
	}
	if sys.Name() != "DSR" || sys.Spec() == "" || sys.Cores() != 4 {
		t.Fatal("target metadata")
	}
	if n := sys.SpillerCount(); n < 0 || n > 4 {
		t.Fatalf("spiller count %d", n)
	}
}

func TestPresentMaskConsistency(t *testing.T) {
	lv := newLevelT()
	// Random fills and accesses must keep present masks matching contents.
	for i := 0; i < 20000; i++ {
		core := i % 4
		gl := mem.GlobalLine{ASID: mem.ASID(core + 1), Line: mem.Line((i * 7) % 256)}
		if _, _, ok := lv.access(core, gl, i%5 == 0); !ok {
			lv.fill(core, gl, false)
		}
	}
	counts := map[mem.GlobalLine]uint32{}
	for i, sl := range lv.slices {
		sl.ForEachValid(func(_, _ int, e cache.Entry) {
			counts[mem.GlobalLine{ASID: e.ASID, Line: e.Line}] |= 1 << uint(i)
		})
	}
	for gl, mask := range counts {
		if got := lv.present.Get(gl); got != mask {
			t.Fatalf("mask mismatch for %+v: %#x vs %#x", gl, got, mask)
		}
	}
	// The index cannot be ranged over: equal key counts plus the matches
	// above rule out stale keys, and Check covers the table's structure.
	if lv.present.Len() != len(counts) {
		t.Fatalf("index holds %d lines, slices hold %d", lv.present.Len(), len(counts))
	}
	if err := lv.present.Check(); err != nil {
		t.Fatal(err)
	}
}
