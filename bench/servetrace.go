package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"morphcache/internal/obs"
	"morphcache/internal/serve"
	"morphcache/internal/wal"
)

// handlerStats times the cache routes server-side.
type handlerStats struct {
	tracer *obs.Tracer
	ns     atomic.Int64
	mu     sync.Mutex
	us     histogram // µs, every request
}

// wrap times h; a request carrying a trace track gets a handler span on
// it, under the client's request span.
func (s *handlerStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sp *obs.Span
		if t := r.Header.Get(trackHeader); t != "" {
			if tid, err := strconv.ParseInt(t, 10, 64); err == nil {
				sp = s.tracer.Begin(tid, "http", "handler").Arg("route", r.Method)
			}
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		sp.End()
		s.mu.Lock()
		s.us.add(float64(d) / 1e3)
		s.mu.Unlock()
		s.ns.Add(int64(d))
	})
}

// tracingRegistrar mounts the cache routes on the admin mux through the
// timing wrapper (the admin's own routes, /metrics among them, stay
// unwrapped).
type tracingRegistrar struct {
	admin *obs.Admin
	st    *handlerStats
}

func (r tracingRegistrar) Handle(pattern string, h http.Handler) {
	r.admin.Handle(pattern, r.st.wrap(h))
}

// directPass replays the workers' op streams by direct serve.Cache calls
// from loadConns goroutines for dur and returns the mean cost of a Get, a
// Set and a Delete in ns (0 for a kind the stream does not issue).
func directPass(ws []*worker, c *serve.Cache, dur time.Duration, clockNs float64) [3]float64 {
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, w := range ws {
		w.be, w.tracer = directBackend{c}, nil
		w.opNs, w.opN = [3]int64{}, [3]int64{}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			i0 := int(w.gets + w.puts + w.dels + w.failed)
			closedLoop(wallClock{}, end, func(i int) (time.Duration, time.Duration) { return w.send(i0 + i) })
		}(w)
	}
	wg.Wait()
	var ns, n [3]int64
	for _, w := range ws {
		for k := range ns {
			ns[k] += w.opNs[k]
			n[k] += w.opN[k]
		}
	}
	var out [3]float64
	for k := range out {
		if n[k] > 0 {
			out[k] = max(float64(ns[k])/float64(n[k])-clockNs, 0)
		}
	}
	return out
}

// walPass times wal.Log appends of serve-churn's record shape (a set of a
// 100 B value, fsync never) in a scratch log: µs per append.
func walPass(dir string, n int) (float64, error) {
	log, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever}, nil)
	if err != nil {
		return 0, err
	}
	val := value(0, 0, 0, 1)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := log.Append(wal.Record{Kind: wal.KindSet, Tenant: tenantName(0), Key: keyName(i % 65536), Value: val}); err != nil {
			log.Close()
			return 0, err
		}
	}
	per := float64(time.Since(start)) / float64(n) / 1e3
	return per, log.Close()
}

// traceServe measures the workload twice, untraced then traced, each for
// half the run, on fresh servers; then replays the op stream by direct
// calls (and, for serve-churn, times bare WAL appends) to split the
// handler's time.
func traceServe(env *runEnv, out *outcome, churn bool, size serveSize) error {
	clockNs := calibrateClock()
	half := env.dur / 2

	plain, _, err := startServer(env, churn, size, false, "untraced")
	if err != nil {
		return err
	}
	phA, err := runPhase(env, plain.base, plain.cache, churn, size, half, false)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	checkPhase(out, phA, churn, size, "untraced-")

	s, _, err := startServer(env, churn, size, true, "traced")
	if err != nil {
		return err
	}
	phB, err := runPhase(env, s.base, s.cache, churn, size, half, true)
	if err != nil {
		s.close()
		return err
	}
	checkPhase(out, phB, churn, size, "traced-")
	fmt.Fprintf(env.log, "morphbench: %s traced halves: %d and %d requests\n", env.name, phA.sent(), phB.sent())

	// The direct pass runs on the traced cache (its HTTP listener idle),
	// continuing each worker's op stream and version table.
	pass := max(env.dur/20, 50*time.Millisecond)
	httpOps := phB.totals()
	direct := directPass(phB.workers, s.cache, pass, clockNs)
	walBytes := walRatio(s.walDir, size, phB)
	if err := s.close(); err != nil {
		return err
	}

	var obsRatio float64
	if !churn {
		// The same op stream against a cache with observability off: the
		// per-Get price of leaving it on.
		cfg := serveConfig(false, "", nil)
		cfg.Obs = serve.ObsConfig{}
		bareCache, err := serve.New(cfg, nil)
		if err != nil {
			return err
		}
		if err := preload(directBackend{bareCache}, size.preload); err != nil {
			return err
		}
		ws := make([]*worker, loadConns)
		for g := range ws {
			ws[g] = newWorker(g, newReadStream(env.seed, g, size.preload), nil, size.keySpace, size.preload)
		}
		bare := directPass(ws, bareCache, pass, clockNs)
		if bare[0] > 0 {
			obsRatio = direct[0] / bare[0]
		}
		out.diag["serve.get_ns_obs_off"] = bare[0]
	}

	var walUs float64
	if churn {
		walUs, err = walPass(filepath.Join(env.work, "walpass"), 20_000)
		if err != nil {
			return fmt.Errorf("wal pass: %w", err)
		}
		os.RemoveAll(filepath.Join(env.work, "walpass"))
	}
	serveLayers(out, phA, phB, s, churn, httpOps, direct, obsRatio, walUs, walBytes)
	return nil
}

// serveLayers turns the traced half into the per-layer metrics. The load
// generator's time (goroutines × wall) is the base the loadgen and http
// shares partition: round trips (handler time inside the server, the rest
// transport and client), the generator's own work, and open-loop sleep.
// The epoch and reconfiguration shares are of wall time, since an epoch
// boundary stops the whole cache.
func serveLayers(out *outcome, phA, phB *phase, s *server, churn bool, ops opCounts, direct [3]float64, obsRatio, walUs, walBytes float64) {
	m, d := out.metrics, out.diag
	pct := func(x, base float64) float64 {
		if base <= 0 {
			return 0
		}
		return 100 * x / base
	}
	var rtt, self, sleep time.Duration
	var late, sent int64
	for _, l := range phB.loops {
		rtt, self, sleep = rtt+l.rtt, self+l.self, sleep+l.sleep
		late, sent = late+l.late, sent+l.sent
	}
	base := float64(loadConns) * float64(phB.wall)
	wall := float64(phB.wall)
	handlerNs := float64(s.handler.ns.Load())

	m["loadgen.sent"] = float64(sent)
	m["loadgen.late_share"] = pct(float64(late), float64(sent))
	m["loadgen.self_share"] = pct(float64(self), base)
	m["http.handler_share"] = pct(handlerNs, base)
	m["http.transport_share"] = pct(float64(rtt)-handlerNs, base)

	hits := phB.metrics.sum("morphserve_requests_total", `op="get"`, `outcome="hit"`)
	misses := phB.metrics.sum("morphserve_requests_total", `op="get"`, `outcome="miss"`)
	m["serve.hit_ratio"] = 0
	if hits+misses > 0 {
		m["serve.hit_ratio"] = hits / (hits + misses)
	}
	m["serve.evictions"] = phB.metrics.sum("morphserve_evictions_total")
	storeNs := direct[0]*float64(ops.opN[0]) + direct[1]*float64(ops.opN[1]) + direct[2]*float64(ops.opN[2])
	m["serve.store_share"] = pct(storeNs, handlerNs)
	m["serve.obs_overhead_ratio"] = obsRatio

	var pauseNs, maxPause float64
	pauseUs := &histogram{}
	for _, p := range phB.epochs.pauses {
		pauseNs += float64(p)
		maxPause = max(maxPause, float64(p))
		pauseUs.add(float64(p) / 1e3)
	}
	pol := s.pol
	m["serve.epochs"] = float64(len(phB.epochs.pauses))
	m["serve.epoch_pause_share"] = pct(pauseNs, wall)
	m["serve.epoch_nonpolicy_share"] = pct(pauseNs-float64(pol.ns), pauseNs)
	tailUs := phB.tailMs(churn) * 1e3
	m["serve.pause_to_tail_ratio"] = 0
	if tailUs > 0 {
		m["serve.pause_to_tail_ratio"] = maxPause / 1e3 / tailUs
	}
	m["core.decide_us"] = perCallUs(pol.ns, pol.calls)
	m["core.reconfigs"] = float64(pol.reconfigs)
	m["reconfig.calls"] = float64(pol.topoCalls)
	m["reconfig.share"] = pct(float64(pol.topoNs), wall)
	m["acfv.signal_calls"] = float64(pol.signalCalls)
	m["acfv.signal_us"] = perCallUs(pol.signalNs, pol.signalCalls)

	m["wal.bytes_per_user_byte"] = 0
	m["wal.append_share"] = 0
	m["wal.replay_share"] = 0
	if churn {
		m["wal.bytes_per_user_byte"] = walBytes
		m["wal.append_share"] = pct(walUs*1e3*float64(ops.puts+ops.dels), handlerNs)
		m["wal.replay_share"] = pct(float64(s.replay), float64(s.setup))
	}

	var rttA time.Duration
	for _, l := range phA.loops {
		rttA += l.rtt
	}
	m["trace.overhead_ratio"] = (float64(rtt) / float64(sent)) / (float64(rttA) / float64(phA.sent()))
	m["trace.unattributed_share"] = pct(base-float64(rtt+self+sleep), base)

	hq := s.handler.us.qs(0.5, 0.99)
	d["http.handler_us_p50"], d["http.handler_us_p99"] = hq[0], hq[1]
	d["http.transport_us_mean"] = (float64(rtt) - handlerNs) / float64(sent) / 1e3
	d["loadgen.sleep_share"] = pct(float64(sleep), base)
	d["loadgen.tail_us"] = tailUs
	if churn {
		lag := &histogram{}
		for i := range phB.loops {
			lag.merge(&phB.loops[i].lag)
		}
		d["loadgen.lag_p99_us"] = lag.q(0.99)
		d["wal.append_us"] = walUs
		d["wal.replay_s"] = s.replay.Seconds()
	}
	d["serve.get_ns"], d["serve.set_ns"], d["serve.delete_ns"] = direct[0], direct[1], direct[2]
	if pauseUs.n > 0 {
		d["serve.epoch_pause_us_p50"] = pauseUs.q(0.5)
		d["serve.epoch_pause_us_max"] = maxPause / 1e3
		d["serve.epoch_nonpolicy_us"] = (pauseNs - float64(pol.ns)) / float64(pauseUs.n) / 1e3
	}
}
