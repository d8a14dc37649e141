package pipp

import (
	"testing"

	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/rng"
	"morphcache/internal/sim"
	"morphcache/internal/workload"
)

func newLevelT() *level {
	return newLevel(4, 64, 32, DefaultOptions())
}

func TestInsertEvictsLRU(t *testing.T) {
	lv := newLevelT()
	// Fill one set completely.
	var lines []mem.Line
	for i := 0; i < 32; i++ {
		l := mem.Line(i * 64) // all map to set 0
		lines = append(lines, l)
		lv.insert(0, mem.GlobalLine{ASID: 1, Line: l}, false)
	}
	// The next insertion must evict one of the earliest, least-promoted
	// lines, not a recent one.
	v, had := lv.insert(0, mem.GlobalLine{ASID: 1, Line: 64 * 100}, false)
	if !had {
		t.Fatal("full set must evict")
	}
	if v.line == lines[len(lines)-1] {
		t.Fatal("evicted the most recent insertion")
	}
}

func TestHitAndPromotion(t *testing.T) {
	lv := newLevelT()
	r := rng.New(1)
	gl := mem.GlobalLine{ASID: 1, Line: 0}
	lv.insert(0, gl, false)
	if !lv.hit(0, gl, false, r) {
		t.Fatal("inserted line should hit")
	}
	if lv.hit(0, mem.GlobalLine{ASID: 1, Line: 999 * 64}, false, r) {
		t.Fatal("absent line should miss")
	}
	// Repeated hits climb toward MRU: after many hits the line survives 31
	// fresh insertions.
	for i := 0; i < 200; i++ {
		lv.hit(0, gl, false, r)
	}
	for i := 1; i <= 31; i++ {
		lv.insert(1, mem.GlobalLine{ASID: 2, Line: mem.Line(i * 64)}, false)
	}
	if !lv.hit(0, gl, false, r) {
		t.Fatal("well-promoted line should survive a set of insertions")
	}
}

func TestStackPosConsistency(t *testing.T) {
	lv := newLevelT()
	r := rng.New(2)
	for i := 0; i < 5000; i++ {
		line := mem.Line(r.Intn(128) * 64)
		gl := mem.GlobalLine{ASID: 1, Line: line}
		if !lv.hit(0, gl, r.Intn(4) == 0, r) {
			lv.insert(r.Intn(4), gl, false)
		}
		// Invariant: stack and pos are inverse permutations.
		st, pos := lv.stack[0], lv.pos[0]
		for idx, way := range st {
			if int(pos[way]) != idx {
				t.Fatalf("stack/pos inconsistent at step %d", i)
			}
		}
	}
}

func TestUMONStackDistances(t *testing.T) {
	m := newUMON(8)
	gl := func(i int) mem.GlobalLine { return mem.GlobalLine{ASID: 1, Line: mem.Line(i)} }
	m.access(0, gl(1))
	m.access(0, gl(2))
	m.access(0, gl(1)) // stack distance 2 -> hits[1]
	if m.hits[1] != 1 {
		t.Fatalf("hits %v, want hit at position 1", m.hits)
	}
	if m.utility(1) != 0 || m.utility(2) != 1 {
		t.Fatalf("utility(1)=%d utility(2)=%d", m.utility(1), m.utility(2))
	}
	m.decay()
	if m.hits[1] != 0 {
		t.Fatal("decay should halve counters")
	}
}

func TestRepartitionFavorsReuse(t *testing.T) {
	lv := newLevelT()
	// Core 0 shows strong reuse in the monitor; core 1 streams.
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 4; i++ {
			lv.monitor(0, mem.GlobalLine{ASID: 1, Line: mem.Line(i * 64)}, nil)
		}
	}
	for i := 0; i < 200; i++ {
		lv.monitor(1, mem.GlobalLine{ASID: 2, Line: mem.Line(i * 64)}, nil)
	}
	lv.repartition()
	if lv.alloc[0] <= lv.alloc[1] {
		t.Fatalf("reusing core should out-allocate the stream: %v", lv.alloc)
	}
	if !lv.streaming[1] {
		t.Fatal("core 1 should be flagged streaming")
	}
	total := 0
	for _, a := range lv.alloc {
		total += a
	}
	if total > lv.ways {
		t.Fatalf("allocations %v exceed ways %d", lv.alloc, lv.ways)
	}
}

func TestSystemEndToEnd(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	mix, _ := workload.MixByName("MIX 01")
	mix.Benchmarks = mix.Benchmarks[:4]
	gens := workload.MixGenerators(mix, workload.ScaledGenConfig(16), 1)
	cfg := sim.DefaultConfig()
	cfg.Epochs, cfg.WarmupEpochs, cfg.EpochCycles = 3, 1, 100_000
	eng, err := sim.New(cfg, New(p, DefaultOptions()), gens)
	if err != nil {
		t.Fatal(err)
	}
	run := eng.Run()
	if run.Throughput() <= 0 {
		t.Fatal("PIPP run produced no progress")
	}
	if run.Policy != "PIPP" {
		t.Fatalf("policy %q", run.Policy)
	}
}

func TestSetDirtyAndInvalidate(t *testing.T) {
	lv := newLevelT()
	gl := mem.GlobalLine{ASID: 1, Line: 7 * 64}
	lv.insert(0, gl, false)
	if !lv.setDirty(gl) {
		t.Fatal("setDirty on present line")
	}
	lv.invalidate(gl)
	if lv.setDirty(gl) {
		t.Fatal("line should be gone after invalidate")
	}
}
