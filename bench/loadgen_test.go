package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock advances only when the code under test sleeps or a fake
// request takes time.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time        { return f.t }
func (f *fakeClock) sleep(d time.Duration) { f.t = f.t.Add(d) }

// stallingSender serves every request in 100µs except request stallAt,
// which stalls for 5ms.
func stallingSender(clk *fakeClock, stallAt int) sender {
	return func(i int) (time.Duration, time.Duration) {
		d := 100 * time.Microsecond
		if i == stallAt {
			d = 5 * time.Millisecond
		}
		clk.t = clk.t.Add(d)
		return d, 0
	}
}

// TestOpenLoopChargesStallToQueuedRequests: a stalled request delays
// every request due during the stall, and each of them is timed from its
// due time, so the stall shows up as lateness on the queue behind it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	st := openLoop(clk, start, time.Millisecond, start.Add(10*time.Millisecond), stallingSender(clk, 2))

	// Due at 0..9 ms; request 2 (due 2 ms) takes 5 ms, so 3..7 queue behind
	// it and are sent back to back from 7 ms on. Latencies from due time,
	// sorted: 100 ×4, 500, 1400, 2300, 3200, 4100, 5000 µs; lags: 0 ×5,
	// 400, 1300, 2200, 3100, 4000 µs.
	if st.sent != 10 || st.lat.n != 10 {
		t.Fatalf("sent %d, %d latencies; want 10", st.sent, st.lat.n)
	}
	for _, c := range []struct {
		h          *histogram
		rank, want float64
	}{
		{&st.lat, 3, 100}, {&st.lat, 4, 500}, {&st.lat, 5, 1400}, {&st.lat, 9, 5000},
		{&st.lag, 5, 400}, {&st.lag, 9, 4000},
	} {
		if got := c.h.q(c.rank / 9); math.Abs(got-c.want) > 0.01*c.want {
			t.Errorf("rank %v: %vµs, want %vµs", c.rank, got, c.want)
		}
	}
	// Per millisecond of due time, the worst latency: the stall's queue.
	for k, want := range []float64{100, 100, 5000, 4100, 3200, 2300, 1400, 500, 100, 100} {
		if !near(st.stallUs[k], want) {
			t.Errorf("stallUs[%d] = %v, want %v", k, st.stallUs[k], want)
		}
	}
	if st.late != 4 {
		t.Errorf("late = %d, want 4 (requests sent ≥ 1 ms after due)", st.late)
	}
	// Time partitions into round trips and sleep.
	if st.rtt+st.self+st.sleep != st.wall {
		t.Errorf("rtt %v + self %v + sleep %v != wall %v", st.rtt, st.self, st.sleep, st.wall)
	}

	// A closed loop over the same server sees one slow request only:
	// that is coordinated omission, and why serve-churn is open-loop.
	clk2 := &fakeClock{t: start}
	cl := closedLoop(clk2, start.Add(10*time.Millisecond), stallingSender(clk2, 2))
	if fast, slowest := cl.lat.q(8.0/9), cl.lat.q(1); math.Abs(fast-100) > 1 || math.Abs(slowest-5000) > 50 {
		t.Errorf("closed loop: 9th latency %vµs, 10th %vµs; want 100 and 5000", fast, slowest)
	}
}

func TestReadStreamDeterministicAndOwned(t *testing.T) {
	const keys, n = 2048, 20000
	for g := 0; g < loadConns; g++ {
		a, b, c := newReadStream(7, g, keys), newReadStream(7, g, keys), newReadStream(8, g, keys)
		same, differs := true, false
		puts := 0
		counts := map[int]int{}
		for i := 0; i < n; i++ {
			oa, ob, oc := a.next(i), b.next(i), c.next(i)
			same = same && oa == ob
			differs = differs || oa != oc
			if oa.idx%loadConns != g || oa.idx >= keys || oa.tenant < 0 || oa.tenant >= tenants {
				t.Fatalf("g%d op %d: %+v outside the goroutine's keys", g, i, oa)
			}
			if oa.kind == opPut {
				puts++
			}
			counts[oa.idx]++
		}
		if !same || !differs {
			t.Errorf("g%d: same seed same stream %v, other seed differs %v", g, same, differs)
		}
		if share := float64(puts) / n; share < 0.04 || share > 0.06 {
			t.Errorf("g%d: PUT share %.3f, want ~0.05", g, share)
		}
		// Zipf: the rank-0 key is the most popular by far.
		for idx, k := range counts {
			if idx != g && k >= counts[g] {
				t.Errorf("g%d: key %d (%d hits) as popular as rank 0 (%d)", g, idx, k, counts[g])
			}
		}
		if share := float64(counts[g]) / n; share < 0.08 {
			t.Errorf("g%d: rank-0 share %.3f, want Zipf(1.1) skew", g, share)
		}
	}
}

func TestChurnStreamRotatesHotTenant(t *testing.T) {
	s := &churnStream{r: streamRand(3, 1), g: 1, hotKeys: 65536, coldKeys: 1000, hotEvery: 12000}
	var kinds = map[opKind]int{}
	for i := 0; i < 4*12000; i++ {
		o := s.next(i)
		hot := i / 12000
		kinds[o.kind]++
		if o.idx%loadConns != 1 {
			t.Fatalf("op %d: key %d not owned by goroutine 1", i, o.idx)
		}
		switch o.kind {
		case opPut:
			if o.tenant != hot || o.idx >= 65536 {
				t.Fatalf("op %d: PUT %+v, want hot tenant %d", i, o, hot)
			}
		default:
			if o.tenant == hot || o.idx >= 1000 {
				t.Fatalf("op %d: %c %+v should hit a cold tenant's first 1000 keys", i, o.kind, o)
			}
		}
	}
	n := float64(4 * 12000)
	for k, want := range map[opKind]float64{opPut: 0.80, opGet: 0.15, opDel: 0.05} {
		if got := float64(kinds[k]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("%c share %.3f, want %.2f", k, got, want)
		}
	}
}

// mapBackend is a correct in-memory cache.
type mapBackend map[string][]byte

func (m mapBackend) get(t, k string, _ int64) ([]byte, bool, error) {
	v, ok := m[t+"/"+k]
	return v, ok, nil
}
func (m mapBackend) put(t, k string, v []byte, _ int64) error { m[t+"/"+k] = v; return nil }
func (m mapBackend) del(t, k string, _ int64) error           { delete(m, t+"/"+k); return nil }

// staleBackend keeps the first value written to each key and
// acknowledges, but drops, every later write and delete.
type staleBackend struct{ mapBackend }

func (s staleBackend) put(t, k string, v []byte, _ int64) error {
	if _, ok := s.mapBackend[t+"/"+k]; !ok {
		s.mapBackend[t+"/"+k] = v
	}
	return nil
}

func (staleBackend) del(string, string, int64) error { return nil }

func TestWorkerChecksVersions(t *testing.T) {
	for _, c := range []struct {
		name  string
		be    func() backend
		wrong bool
	}{
		{"correct", func() backend { return mapBackend{} }, false},
		{"stale", func() backend { return staleBackend{mapBackend{}} }, true},
	} {
		be := c.be()
		if err := preload(be, 64); err != nil {
			t.Fatal(err)
		}
		w := newWorker(0, &churnStream{r: streamRand(1, 0), g: 0, hotKeys: 256, coldKeys: 64, hotEvery: 500}, be, 256, 64)
		for i := 0; i < 5000; i++ {
			w.send(i)
		}
		if (w.wrong > 0) != c.wrong || w.failed != 0 {
			t.Errorf("%s backend: %d wrong values, %d failures", c.name, w.wrong, w.failed)
		}
	}
	if a, b := value(0, 1, 2, 3), value(0, 1, 2, 4); len(a) != valueBytes || string(a) == string(b) {
		t.Errorf("values must be %d bytes and differ by version: %q %q", valueBytes, a, b)
	}
}
