package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"morphcache/internal/core"
	"morphcache/internal/obs"
	"morphcache/internal/serve"
	"morphcache/internal/wal"
)

// serveSize sizes a serve workload.
type serveSize struct {
	preload  int // keys per tenant written at set-up
	keySpace int // key indices per tenant (serve-churn: the hot key range)
	coldKeys int // serve-churn: keys per cold tenant
	// serve-churn: requests per epoch boundary, and the target rate across
	// goroutines in requests per second.
	epochEvery, rate int
}

// readSize is serve-read: 2,048 × 100 B keys per tenant, which fits (a
// slot holds 4,096 lines).
func readSize(tiny bool) serveSize {
	if tiny {
		return serveSize{preload: 256, keySpace: 256}
	}
	return serveSize{preload: 2048, keySpace: 2048}
}

// churnSize is serve-churn: the hot tenant writes over 65,536 keys, 16× a
// slot and the whole cache's line count; epochs end every 8,000 requests
// of a 10,000 req/s open loop.
func churnSize(tiny bool) serveSize {
	if tiny {
		return serveSize{preload: 256, keySpace: 4096, coldKeys: 100, epochEvery: 400, rate: 2000}
	}
	return serveSize{preload: 2048, keySpace: 65536, coldKeys: 1000, epochEvery: 8000, rate: 10000}
}

// serveSlots is morphserve's default slot count (the controller's
// MaxGroup in the default policy).
const serveSlots = 16

// readEpochInterval is serve-read's epoch cadence.
const readEpochInterval = time.Second

// epochTrack is the trace track of epoch boundaries.
const epochTrack = 900

// serveConfig is the cache configuration: morphserve's defaults and four
// tenants. serve-read runs with observability on the way an operator runs
// it; serve-churn runs with observability off and the WAL on, fsync
// never (the same policy on both sides of a comparison; on a virtual
// machine's disk fsync latency measures the host, not a device).
func serveConfig(churn bool, walDir string, pol core.Policy) serve.Config {
	cfg := serve.Config{Slots: serveSlots, Shards: 4, SlotBytes: 256 << 10, Ways: 8, Policy: pol}
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, tenantName(i))
	}
	if churn {
		cfg.Persist = &serve.PersistConfig{Dir: walDir, Fsync: wal.FsyncNever}
	} else {
		cfg.Obs = serve.ObsConfig{
			Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
			AccessLogEvery: 128,
			SLOTargetP99:   5 * time.Millisecond,
		}
	}
	return cfg
}

// server is an in-process cache behind obs.Serve.
type server struct {
	cache  *serve.Cache
	srv    *obs.Server
	base   string
	walDir string
	setup  time.Duration
	replay time.Duration
	// Traced servers: the policy and handler accounts.
	pol     *policyStats
	handler *handlerStats
}

// newCache builds one cache and preloads it: the timed set-up. For
// serve-churn it also closes and reopens the cache over its WAL, so the
// set-up includes a replay of the preload.
func newCache(churn bool, size serveSize, dir string, newPolicy func() core.Policy) (*serve.Cache, *obs.Hub, time.Duration, error) {
	hub := obs.NewHub(obs.HubOptions{Shards: 1})
	c, err := serve.New(serveConfig(churn, dir, newPolicy()), hub.Registry)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := preload(directBackend{c}, size.preload); err != nil {
		c.Close()
		return nil, nil, 0, err
	}
	if !churn {
		return c, hub, 0, nil
	}
	if err := c.Close(); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	hub = obs.NewHub(obs.HubOptions{Shards: 1})
	c, err = serve.New(serveConfig(churn, dir, newPolicy()), hub.Registry)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reopen: %w", err)
	}
	return c, hub, time.Since(start), nil
}

// preload writes version 0 of keys [0, n) in every tenant.
func preload(be backend, n int) error {
	for t := 0; t < tenants; t++ {
		for idx := 0; idx < n; idx++ {
			if err := be.put(tenantName(t), keyName(idx), value(idx%loadConns, t, idx, 0), 0); err != nil {
				return fmt.Errorf("preload %s/%s: %w", tenantName(t), keyName(idx), err)
			}
		}
	}
	return nil
}

// startServer sets up a cache setupRepeats times (keeping the last) and
// serves it on a loopback port. A traced server wraps the policy and the
// cache routes.
func startServer(env *runEnv, churn bool, size serveSize, traced bool, tag string) (*server, []float64, error) {
	s := &server{}
	newPolicy := func() core.Policy { return nil }
	if traced {
		s.pol = &policyStats{}
		newPolicy = func() core.Policy {
			opts := core.DefaultOptions()
			opts.MaxGroup = serveSlots
			return &tracedPolicy{inner: core.New(opts), st: s.pol, spans: &spanSink{tr: env.tracer, tid: epochTrack}}
		}
	}
	var setups []float64
	var c *serve.Cache
	var hub *obs.Hub
	for k := 0; k < setupRepeats; k++ {
		dir := ""
		if churn {
			dir = filepath.Join(env.work, fmt.Sprintf("wal-%s-%d", tag, k))
		}
		start := time.Now()
		cc, hh, replay, err := newCache(churn, size, dir, newPolicy)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if c != nil {
			c.Close()
			os.RemoveAll(s.walDir)
		}
		c, hub, s.walDir, s.replay, s.setup = cc, hh, dir, replay, time.Since(start)
	}
	s.cache = c
	admin := obs.NewAdmin(hub.Registry, hub.Jobs)
	if traced {
		s.handler = &handlerStats{tracer: env.tracer}
		c.Register(tracingRegistrar{admin: admin, st: s.handler})
	} else {
		c.Register(admin)
	}
	admin.SetHealthDetail(func() any { return c.HealthDetail() })
	srv, err := obs.Serve("127.0.0.1:0", admin)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	s.srv, s.base = srv, "http://"+srv.Addr()
	return s, setups, nil
}

// close drains the listener and closes the cache's WAL.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	return err
}

// epochDriver ends epochs on the in-process cache and times each pause.
type epochDriver struct {
	c         *serve.Cache
	spans     *spanSink
	pauses    []time.Duration
	reconfigs int
	// repartitions are the wall-clock intervals of the boundaries that
	// repartitioned.
	repartitions [][2]time.Time
}

func (d *epochDriver) end() {
	sp := d.spans.begin("serve", "EndEpoch")
	start := time.Now()
	r, _ := d.c.EndEpoch()
	end := time.Now()
	d.pauses = append(d.pauses, end.Sub(start))
	sp.Arg("reconfigs", r).End()
	d.reconfigs += r
	if r > 0 {
		d.repartitions = append(d.repartitions, [2]time.Time{start, end})
	}
}

// phase is one measured load phase.
type phase struct {
	loops   []loopStats
	workers []*worker
	epochs  *epochDriver
	start   time.Time
	wall    time.Duration
	metrics promText
}

// runPhase drives the server at base for dur with loadConns goroutines:
// closed loop for serve-read, open loop at the target rate for
// serve-churn. With an in-process cache it also ends the epochs: every
// second for serve-read, every epochEvery issued requests for
// serve-churn.
func runPhase(env *runEnv, base string, c *serve.Cache, churn bool, size serveSize, dur time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	backends := make([]*httpBackend, loadConns)
	for g := 0; g < loadConns; g++ {
		backends[g] = newHTTPBackend(base)
		defer backends[g].close()
		var st opStream = newReadStream(env.seed, g, size.preload)
		if churn {
			st = &churnStream{r: streamRand(env.seed, g), g: g, hotKeys: size.keySpace, coldKeys: size.coldKeys,
				hotEvery: 3 * size.epochEvery / loadConns}
		}
		w := newWorker(g, st, backends[g], size.keySpace, size.preload)
		if traced {
			w.tracer, w.tid = env.tracer, int64(1000+g)
		}
		ph.workers = append(ph.workers, w)
	}

	counter := newIssueCounter(max(size.epochEvery, 1))
	stop := make(chan struct{})
	var epochWG sync.WaitGroup
	if c != nil {
		ph.epochs = &epochDriver{c: c}
		if traced {
			ph.epochs.spans = &spanSink{tr: env.tracer, tid: epochTrack}
		}
		epochWG.Add(1)
		go func() {
			defer epochWG.Done()
			var ticker <-chan time.Time // nil for serve-churn: never ready
			if !churn {
				t := time.NewTicker(readEpochInterval)
				defer t.Stop()
				ticker = t.C
			}
			for {
				select {
				case <-stop:
					return
				case <-counter.tick:
					ph.epochs.end()
				case <-ticker:
					ph.epochs.end()
				}
			}
		}()
	}

	ph.loops = make([]loopStats, loadConns)
	ph.start = time.Now()
	end := ph.start.Add(dur)
	interval := time.Duration(0)
	if churn {
		interval = time.Duration(loadConns) * time.Second / time.Duration(size.rate)
	}
	var wg sync.WaitGroup
	for g := 0; g < loadConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := ph.workers[g]
			if churn {
				ph.loops[g] = openLoop(wallClock{}, ph.start, interval, end, func(i int) (time.Duration, time.Duration) {
					counter.issued()
					return w.send(i)
				})
				return
			}
			ph.loops[g] = closedLoop(wallClock{}, end, w.send)
		}(g)
	}
	wg.Wait()
	close(stop)
	epochWG.Wait()
	for _, l := range ph.loops {
		if d := l.last.Sub(ph.start); d > ph.wall {
			ph.wall = d
		}
	}
	m, err := scrape(base)
	if err != nil {
		return nil, err
	}
	ph.metrics = m
	return ph, nil
}

// totals sums the workers' counters.
func (ph *phase) totals() (t opCounts) {
	for _, w := range ph.workers {
		t.add(w.opCounts)
	}
	return t
}

// latencies merges the goroutines' request latencies.
func (ph *phase) latencies() *histogram {
	all := &histogram{}
	for i := range ph.loops {
		all.merge(&ph.loops[i].lat)
	}
	return all
}

// sent is the number of requests issued.
func (ph *phase) sent() int64 {
	var n int64
	for _, l := range ph.loops {
		n += l.sent
	}
	return n
}

// tailMs is the workload's tail latency in ms. serve-read: p99 from send,
// the highest percentile that repeats run to run in a closed loop.
// serve-churn: the stall a repartition imposes — for each epoch boundary
// that repartitioned, the longest latency among requests due while it
// ran — as the median over the run's repartitions. Each repartition
// compacts the WAL, which fsyncs whatever the fsync policy, so single
// pauses vary with the disk; the median over repartitions is steadier
// than p99.9, which follows the longest one or two. Against an external
// server the boundaries are not visible and the tail is p99.9.
func (ph *phase) tailMs(churn bool) float64 {
	if !churn {
		return ph.latencies().q(0.99) / 1e3
	}
	if ph.epochs == nil || len(ph.epochs.repartitions) == 0 {
		return ph.latencies().q(0.999) / 1e3
	}
	var stalls []float64
	for _, b := range ph.epochs.repartitions {
		// From just before the pause (a request in flight when it began)
		// to just after it.
		lo := max(int(b[0].Sub(ph.start)/time.Millisecond)-2, 0)
		hi := int(b[1].Sub(ph.start)/time.Millisecond) + 1
		var worst float64
		for _, l := range ph.loops {
			for k := lo; k <= hi && k < len(l.stallUs); k++ {
				worst = max(worst, l.stallUs[k])
			}
		}
		stalls = append(stalls, worst/1e3)
	}
	return median(stalls)
}

// checkPhase records a phase's correctness checks and counts.
func checkPhase(out *outcome, ph *phase, churn bool, size serveSize, label string) {
	t := ph.totals()
	out.attempted += ph.sent()
	out.failed += t.failed + t.wrong
	out.check(label+"no-failures", t.failed == 0, "%d of %d requests failed (transport error, 5xx or unexpected status)", t.failed, ph.sent())
	out.check(label+"values-versioned", t.wrong == 0,
		"%d of %d GET hits returned other than the owner's latest version", t.wrong, t.hits)
	if churn {
		achieved := float64(ph.sent()) / ph.wall.Seconds()
		out.check(label+"rate-held", achieved >= 0.98*float64(size.rate),
			"achieved %.0f req/s of %d target", achieved, size.rate)
	}
}

func runServeRead(env *runEnv) (*outcome, error)  { return runServe(env, false) }
func runServeChurn(env *runEnv) (*outcome, error) { return runServe(env, true) }

// runServe runs a serve workload: against an external server with -addr,
// else against an in-process cache (a traced run measures one untraced
// and one traced half).
func runServe(env *runEnv, churn bool) (*outcome, error) {
	size := readSize(env.tiny)
	if churn {
		size = churnSize(env.tiny)
	}
	if env.addr != "" {
		return runServeExternal(env, churn, size)
	}
	out := newOutcome()
	if env.trace {
		return out, traceServe(env, out, churn, size)
	}
	s, setups, err := startServer(env, churn, size, false, "run")
	if err != nil {
		return nil, err
	}
	if churn {
		checkReplay(out, s, size)
	}
	ph, err := runPhase(env, s.base, s.cache, churn, size, env.dur, false)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	checkPhase(out, ph, churn, size, "")
	endToEndServe(out, ph, churn, median(setups))
	if churn {
		out.diag["wal.bytes_per_user_byte"] = walRatio(s.walDir, size, ph)
	}
	return out, nil
}

// checkReplay checks the reopened cache replayed exactly the preload,
// cleanly (read from its /metrics).
func checkReplay(out *outcome, s *server, size serveSize) {
	m, err := scrape(s.base)
	if err != nil {
		out.check("replay", false, "scrape: %v", err)
		return
	}
	recs, clean := m.sum("morphserve_wal_replay_records"), m.sum("morphserve_wal_replay_clean")
	want := float64(tenants * size.preload)
	out.check("replay", recs == want && clean == 1, "replayed %.0f records (want %.0f), replay_clean %.0f", recs, want, clean)
}

// endToEndServe fills the end-to-end metrics and diagnostics of a phase.
func endToEndServe(out *outcome, ph *phase, churn bool, setup float64) {
	lat := ph.latencies()
	qs := lat.qs(0.5, 0.99, 0.999)
	out.metrics["setup_s"] = setup
	out.metrics["ops_per_s"] = float64(ph.sent()) / ph.wall.Seconds()
	out.metrics["p50_ms"] = qs[0] / 1e3
	out.metrics["tail_ms"] = ph.tailMs(churn)
	d := out.diag
	d["p99_ms"], d["p999_ms"] = qs[1]/1e3, qs[2]/1e3
	d["requests"] = float64(lat.n)
	t := ph.totals()
	d["gets"], d["puts"], d["deletes"] = float64(t.gets), float64(t.puts), float64(t.dels)
	if t.gets > 0 {
		d["hit_ratio"] = float64(t.hits) / float64(t.gets)
	}
	if churn {
		lag := &histogram{}
		var late int64
		for i := range ph.loops {
			lag.merge(&ph.loops[i].lag)
			late += ph.loops[i].late
		}
		lq := lag.qs(0.5, 0.99)
		d["lag_p50_us"], d["lag_p99_us"] = lq[0], lq[1]
		d["late_share"] = 100 * float64(late) / float64(max(ph.sent(), 1))
	}
	epochs, reconfigs, reconfigEpochs := phaseEpochs(ph)
	d["epochs"], d["reconfigs"], d["reconfig_epochs"] = epochs, reconfigs, reconfigEpochs
	if ph.epochs != nil && len(ph.epochs.pauses) > 0 {
		ms := make([]float64, len(ph.epochs.pauses))
		for i, p := range ph.epochs.pauses {
			ms[i] = float64(p) / 1e6
		}
		d["epoch_pause_ms_p50"], d["epoch_pause_ms_max"] = median(ms), quantile(ms, 1)
	}
	d["evictions"] = ph.metrics.sum("morphserve_evictions_total")
}

// phaseEpochs counts a phase's epochs and repartitions: exactly from the
// in-process driver, else from the server's /metrics (where repartitions
// count topology changes, an upper bound on epochs that repartitioned).
func phaseEpochs(ph *phase) (epochs, reconfigs, reconfigEpochs float64) {
	if d := ph.epochs; d != nil {
		return float64(len(d.pauses)), float64(d.reconfigs), float64(len(d.repartitions))
	}
	m := ph.metrics
	return m.sum("morphserve_epochs_total"), m.sum("morphserve_reconfigurations_total"), m.sum("morphserve_repartitions_total")
}

// walRatio is the WAL directory's size over the value bytes the cache
// acknowledged (preload plus the phase's PUTs).
func walRatio(dir string, size serveSize, ph *phase) float64 {
	var bytes int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // a missing file just counts 0
		if err == nil && !fi.IsDir() {
			bytes += fi.Size()
		}
		return nil
	})
	user := int64(tenants*size.preload*valueBytes) + ph.totals().putBytes
	return float64(bytes) / float64(user)
}

// runServeExternal drives a morphserve started elsewhere (declaring
// tenants t0..t3). Set-up is the preload over HTTP; epochs run on the
// server's own timer and are read from its /metrics.
func runServeExternal(env *runEnv, churn bool, size serveSize) (*outcome, error) {
	out := newOutcome()
	base := "http://" + env.addr
	be := newHTTPBackend(base)
	defer be.close()
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		if err := preload(be, size.preload); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	before, err := scrape(base)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(env, base, nil, churn, size, env.dur, false)
	if err != nil {
		return nil, err
	}
	ph.metrics = ph.metrics.minus(before)
	checkPhase(out, ph, churn, size, "")
	endToEndServe(out, ph, churn, median(setups))
	return out, nil
}

// promText is a scraped Prometheus exposition: series line → value.
type promText map[string]float64

// scrape reads the server's /metrics.
func scrape(base string) (promText, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	m := promText{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] += v
		}
	}
	return m, sc.Err()
}

// sum adds the series of one metric name whose labels contain every given
// `label="value"` fragment.
func (m promText) sum(name string, labels ...string) float64 {
	var s float64
	for series, v := range m {
		n := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			n = series[:i]
		}
		if n != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(series, l)
		}
		if ok {
			s += v
		}
	}
	return s
}

// minus subtracts an earlier scrape (counters become deltas).
func (m promText) minus(before promText) promText {
	out := make(promText, len(m))
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}
