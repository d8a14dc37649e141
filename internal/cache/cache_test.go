package cache

import (
	"testing"

	"morphcache/internal/mem"
	"morphcache/internal/rng"
)

func small(policy Policy) *Slice {
	// 4 sets x 4 ways of 64-byte lines = 1 KiB.
	return New(Config{SizeBytes: 1024, Ways: 4, Policy: policy})
}

func TestConfigSets(t *testing.T) {
	c := Config{SizeBytes: 256 << 10, Ways: 8}
	if c.Sets() != 512 {
		t.Fatalf("256KB 8-way: %d sets, want 512 (Table 3 L2 slice)", c.Sets())
	}
	c = Config{SizeBytes: 1 << 20, Ways: 16}
	if c.Sets() != 1024 {
		t.Fatalf("1MB 16-way: %d sets, want 1024 (Table 3 L3 slice)", c.Sets())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 1024, Ways: 0},
		{SizeBytes: 1024, Ways: 5},                      // 16 lines not divisible by 5... actually 16/5 fails divisibility
		{SizeBytes: 3 * 64 * 4, Ways: 4},                // 3 sets: not a power of two
		{SizeBytes: 64 * 12, Ways: 3, Policy: TreePLRU}, // PLRU needs pow2 ways
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) should be invalid", i, c)
		}
	}
	if err := (Config{SizeBytes: 1024, Ways: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || TreePLRU.String() != "tree-plru" {
		t.Fatal("policy strings")
	}
}

func TestBasicHitMiss(t *testing.T) {
	s := small(LRU)
	if w := s.Access(1, 0x100, false); w >= 0 {
		t.Fatal("empty cache should miss")
	}
	s.Insert(1, 0x100, false)
	if w := s.Access(1, 0x100, false); w < 0 {
		t.Fatal("inserted line should hit")
	}
	// Different ASID, same line address: distinct datum.
	if w := s.Access(2, 0x100, false); w >= 0 {
		t.Fatal("other address space must not hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Inserts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s := small(LRU)
	// Four lines mapping to set 0 (set = line & 3): lines 0,4,8,12.
	for _, l := range []mem.Line{0, 4, 8, 12} {
		s.Insert(1, l, false)
	}
	// Touch line 0 so line 4 becomes LRU.
	s.Access(1, 0, false)
	old := s.Insert(1, 16, false)
	if !old.Valid || old.Line != 4 {
		t.Fatalf("evicted %+v, want line 4", old)
	}
}

func TestVictimAgePrefersInvalid(t *testing.T) {
	s := small(LRU)
	s.Insert(1, 0, false)
	if _, _, valid := s.Victim(4); valid {
		t.Fatal("set with free ways should report an invalid victim")
	}
}

func TestInsertAtAndInvalidate(t *testing.T) {
	s := small(LRU)
	s.InsertAt(2, 3, 1, 0xABC2, true) // line 0xABC2 maps to set 2
	e := s.Entry(2, 3)
	if !e.Valid || !e.Dirty || e.Line != 0xABC2 {
		t.Fatalf("entry %+v", e)
	}
	old := s.Invalidate(1, 0xABC2)
	if !old.Valid || old.Line != 0xABC2 {
		t.Fatalf("invalidate returned %+v", old)
	}
	if s.Lookup(1, 0xABC2) >= 0 {
		t.Fatal("line should be gone")
	}
	if e := s.Invalidate(1, 0xABC2); e.Valid {
		t.Fatal("double invalidate should be a no-op")
	}
}

func TestSetDirty(t *testing.T) {
	s := small(LRU)
	s.Insert(1, 5, false)
	set := s.SetIndex(5)
	w := s.Lookup(1, 5)
	s.SetDirty(set, w)
	if !s.Entry(set, w).Dirty {
		t.Fatal("SetDirty did not stick")
	}
}

func TestFlushAndValidLines(t *testing.T) {
	s := small(LRU)
	for i := mem.Line(0); i < 10; i++ {
		s.Insert(1, i, false)
	}
	if n := s.ValidLines(); n != 10 {
		t.Fatalf("ValidLines = %d, want 10", n)
	}
	if n := s.Flush(); n != 10 {
		t.Fatalf("Flush removed %d, want 10", n)
	}
	if s.ValidLines() != 0 {
		t.Fatal("flush left lines behind")
	}
}

func TestForEachValid(t *testing.T) {
	s := small(LRU)
	want := map[mem.Line]bool{1: true, 2: true, 7: true}
	for l := range want {
		s.Insert(3, l, false)
	}
	got := map[mem.Line]bool{}
	s.ForEachValid(func(set, way int, e Entry) {
		if e.ASID != 3 {
			t.Fatalf("wrong ASID %d", e.ASID)
		}
		got[e.Line] = true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
}

func TestSharedClockOrdersAcrossSlices(t *testing.T) {
	clk := &Clock{}
	a, b := small(LRU), small(LRU)
	a.ShareClock(clk)
	b.ShareClock(clk)
	// Fill set 0 of both slices (lines 0,4,8,12 map to set 0); a's lines are
	// inserted strictly before b's on the shared clock.
	for _, l := range []mem.Line{0, 4, 8, 12} {
		a.Insert(1, l, false)
	}
	for _, l := range []mem.Line{0, 4, 8, 12} {
		b.Insert(1, l, false)
	}
	_, ageA, okA := a.Victim(16)
	_, ageB, okB := b.Victim(16)
	if !okA || !okB {
		t.Fatal("full sets should report valid victims")
	}
	if !(ageA < ageB) {
		// a's LRU entry predates b's LRU entry on the shared clock.
		t.Fatalf("cross-slice ages not comparable: a=%d b=%d", ageA, ageB)
	}
}

func TestTreePLRUVictimNeverMRU(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 8, Ways: 8, Policy: TreePLRU}) // 1 set x 8 ways
	for i := 0; i < 8; i++ {
		s.Insert(1, mem.Line(i*1), false)
	}
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		way := r.Intn(8)
		s.Touch(0, way)
		if v := s.VictimWay(0); v == way {
			t.Fatalf("PLRU victim %d equals just-touched way", v)
		}
	}
}

func TestTreePLRUCyclesThroughWays(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 4, Ways: 4, Policy: TreePLRU})
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		v := s.VictimWay(0)
		seen[v] = true
		s.InsertAt(0, v, 1, mem.Line(i), false)
	}
	if len(seen) != 4 {
		t.Fatalf("PLRU used %d distinct ways, want 4", len(seen))
	}
}

// TestLRUMatchesReferenceModel drives a slice and an exact per-set LRU list
// model with the same random access stream and checks that contents and
// evictions agree at every step.
func TestLRUMatchesReferenceModel(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 32, Ways: 4, Policy: LRU}) // 8 sets x 4 ways
	type key struct {
		asid mem.ASID
		line mem.Line
	}
	model := make(map[int][]key) // set -> MRU-first list
	find := func(set int, k key) int {
		for i, x := range model[set] {
			if x == k {
				return i
			}
		}
		return -1
	}
	r := rng.New(99)
	for step := 0; step < 20000; step++ {
		line := mem.Line(r.Intn(64)) // 64 lines over 8 sets: constant pressure
		asid := mem.ASID(1 + r.Intn(2))
		k := key{asid, line}
		set := s.SetIndex(line)

		modelHit := find(set, k) >= 0
		sliceHit := s.Access(asid, line, false) >= 0
		if modelHit != sliceHit {
			t.Fatalf("step %d: model hit=%v, slice hit=%v for %+v", step, modelHit, sliceHit, k)
		}
		if modelHit {
			// Move to MRU.
			i := find(set, k)
			model[set] = append([]key{k}, append(model[set][:i:i], model[set][i+1:]...)...)
			continue
		}
		old := s.Insert(asid, line, false)
		list := model[set]
		if len(list) == 4 {
			victim := list[len(list)-1]
			if !old.Valid || old.ASID != victim.asid || old.Line != victim.line {
				t.Fatalf("step %d: slice evicted %+v, model evicts %+v", step, old, victim)
			}
			list = list[:len(list)-1]
		} else if old.Valid {
			t.Fatalf("step %d: eviction from non-full set", step)
		}
		model[set] = append([]key{k}, list...)
	}
}

func TestSRRIPBasics(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 4, Ways: 4, Policy: SRRIP}) // 1 set x 4 ways
	if SRRIP.String() != "srrip" {
		t.Fatal("policy string")
	}
	// Fill the set; every line inserted with a long prediction.
	for i := 0; i < 4; i++ {
		s.Insert(1, mem.Line(i), false)
	}
	// Promote line 0 with a hit; it must survive the next two insertions.
	s.Access(1, 0, false)
	s.Insert(1, 10, false)
	s.Insert(1, 11, false)
	if s.Lookup(1, 0) < 0 {
		t.Fatal("hit-promoted line evicted before unpromoted peers")
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// SRRIP's selling point: a one-pass scan cannot displace an actively
	// reused working set the way LRU does.
	run := func(policy Policy) int {
		s := New(Config{SizeBytes: 64 * 8, Ways: 8, Policy: policy}) // 1 set
		scan := 100
		// Rounds of hot reuse interleaved with a scan burst longer than the
		// associativity: LRU's reuse distance exceeds the set, SRRIP's
		// promoted lines out-predict the single-use scans.
		for round := 0; round < 4; round++ {
			for pass := 0; pass < 2; pass++ { // reuse, not just presence
				for i := 0; i < 4; i++ {
					if s.Access(1, mem.Line(i), false) < 0 {
						s.Insert(1, mem.Line(i), false)
					}
				}
			}
			for j := 0; j < 12; j++ {
				if s.Access(1, mem.Line(scan), false) < 0 {
					s.Insert(1, mem.Line(scan), false)
				}
				scan++
			}
		}
		alive := 0
		for i := 0; i < 4; i++ {
			if s.Lookup(1, mem.Line(i)) >= 0 {
				alive++
			}
		}
		return alive
	}
	_ = run
	srrip, lru := run(SRRIP), run(LRU)
	if lru != 0 {
		t.Fatalf("LRU should lose the hot set to the scan, kept %d", lru)
	}
	if srrip < 3 {
		t.Fatalf("SRRIP should keep the hot set through the scan, kept %d", srrip)
	}
}

func TestSRRIPInHierarchyConfig(t *testing.T) {
	if err := (Config{SizeBytes: 1024, Ways: 4, Policy: SRRIP}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyMaskConsistency cross-checks the per-set occupancy bitmask
// (the O(1) FreeWay/ValidLines fast path) and the per-field entry arrays
// against a shadow model of every way through randomized
// insert/access/invalidate/dirty/disable/flush traffic over three address
// spaces: Entry must round-trip Valid, Dirty, ASID, Line and LastUse, and
// InsertAt, InvalidateWay, SetDisabledWays and Flush must return exactly
// what the model held.
func TestOccupancyMaskConsistency(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 4 * 8, Ways: 8, Policy: LRU})
	r := rng.New(17)
	model := make([][]Entry, s.Sets())
	for set := range model {
		model[set] = make([]Entry, s.Ways())
	}
	check := func(step int) {
		t.Helper()
		valid := 0
		for set := 0; set < s.Sets(); set++ {
			var want uint64
			for w := 0; w < s.Ways(); w++ {
				if got := s.Entry(set, w); got != model[set][w] {
					t.Fatalf("step %d: set %d way %d holds %+v, model %+v", step, set, w, got, model[set][w])
				}
				if model[set][w].Valid {
					want |= 1 << uint(w)
					valid++
				}
			}
			if s.occ[set] != want {
				t.Fatalf("step %d: set %d occupancy %#x, entries say %#x", step, set, s.occ[set], want)
			}
			free := -1
			for w := 0; w < s.Ways()-s.DisabledWays(); w++ {
				if !model[set][w].Valid {
					free = w
					break
				}
			}
			// FreeWay takes a line; any line indexing this set will do.
			if got := s.FreeWay(mem.Line(set)); got != free {
				t.Fatalf("step %d: set %d FreeWay %d, scan says %d", step, set, got, free)
			}
		}
		if got := s.ValidLines(); got != valid {
			t.Fatalf("step %d: ValidLines %d, scan says %d", step, got, valid)
		}
	}
	expect := func(step int, what string, got, want Entry) {
		t.Helper()
		if got != want {
			t.Fatalf("step %d: %s returned %+v, model %+v", step, what, got, want)
		}
	}
	for step := 0; step < 3000; step++ {
		asid, line := mem.ASID(1+r.Intn(3)), mem.Line(r.Intn(64))
		set := s.SetIndex(line)
		switch r.Intn(12) {
		case 0:
			if w := s.Lookup(asid, line); w >= 0 {
				expect(step, "Invalidate", s.Invalidate(asid, line), model[set][w])
				model[set][w] = Entry{}
			}
		case 1:
			w := r.Intn(s.Ways())
			expect(step, "InvalidateWay", s.InvalidateWay(set, w), model[set][w])
			model[set][w] = Entry{}
		case 2:
			n := r.Intn(4)
			var want []Entry
			if n > s.DisabledWays() {
				for set := range model {
					for w := s.Ways() - n; w < s.Ways(); w++ {
						if model[set][w].Valid {
							want = append(want, model[set][w])
							model[set][w] = Entry{}
						}
					}
				}
			}
			dropped := s.SetDisabledWays(n)
			if len(dropped) != len(want) {
				t.Fatalf("step %d: SetDisabledWays(%d) dropped %d lines, model %d", step, n, len(dropped), len(want))
			}
			for i := range want {
				expect(step, "SetDisabledWays", dropped[i], want[i])
			}
		case 3:
			if step%500 == 3 {
				valid := 0
				for set := range model {
					for w := range model[set] {
						if model[set][w].Valid {
							valid++
						}
						model[set][w] = Entry{}
					}
				}
				if n := s.Flush(); n != valid {
					t.Fatalf("step %d: Flush removed %d lines, model %d", step, n, valid)
				}
			}
		case 4:
			if w := s.Lookup(asid, line); w >= 0 {
				s.SetDirty(set, w)
				model[set][w].Dirty = true
			}
		default:
			write := r.Intn(2) == 0
			if w := s.Access(asid, line, write); w >= 0 {
				model[set][w].LastUse = s.clock.now
				model[set][w].Dirty = model[set][w].Dirty || write
				break
			}
			w := s.VictimWay(line)
			expect(step, "InsertAt", s.InsertAt(set, w, asid, line, write), model[set][w])
			model[set][w] = Entry{Valid: true, Dirty: write, ASID: asid, Line: line, LastUse: s.clock.now}
		}
		check(step)
	}
}

func TestWays64Limit(t *testing.T) {
	if err := (Config{SizeBytes: 64 * 128 * 2, Ways: 128}).Validate(); err == nil {
		t.Fatal("more than 64 ways must be rejected (one occupancy bit per way)")
	}
	if err := (Config{SizeBytes: 64 * 64 * 2, Ways: 64}).Validate(); err != nil {
		t.Fatalf("64 ways should be valid: %v", err)
	}
}
