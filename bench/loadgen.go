package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"morphcache/internal/obs"
	"morphcache/internal/serve"
)

// Load shape shared by both serve workloads. Load comes from loadConns
// goroutines, one keep-alive connection each; goroutine g owns the keys
// whose index is ≡ g (mod loadConns) in every tenant, so only it ever
// writes them and it always knows their latest version.
const (
	loadConns  = 2
	tenants    = 4
	valueBytes = 100
)

// tenantName names tenant i (an external morphserve must declare
// t0,t1,t2,t3).
func tenantName(i int) string { return "t" + strconv.Itoa(i) }

// keyName names key index idx.
func keyName(idx int) string { return fmt.Sprintf("k%05d", idx) }

// value is the versioned payload goroutine g writes to (tenant, idx): a
// header naming all four, padded to valueBytes. A GET that returns any
// other bytes read a stale or foreign write.
func value(g, tenant, idx int, ver int32) []byte {
	b := make([]byte, 0, valueBytes)
	b = fmt.Appendf(b, "g%d/t%d/%s/v%d/", g, tenant, keyName(idx), ver)
	for len(b) < valueBytes {
		b = append(b, '.')
	}
	return b
}

// opKind is a cache operation.
type opKind byte

const (
	opGet opKind = 'G'
	opPut opKind = 'P'
	opDel opKind = 'D'
)

// op is one generated request.
type op struct {
	kind   opKind
	tenant int
	idx    int
}

// opStream generates goroutine g's request sequence; the i-th op depends
// only on the seed, g and the ops before it.
type opStream interface {
	next(i int) op
}

// streamRand is goroutine g's generator for a seed.
func streamRand(seed uint64, g int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6d6f72706862656e^uint64(g)))
}

// readStream is serve-read's op mix: uniform tenants, Zipf(1.1) key
// popularity over the goroutine's share of the preloaded keys, 95% GET /
// 5% PUT.
type readStream struct {
	r    *rand.Rand
	zipf *rand.Zipf
	g    int
}

func newReadStream(seed uint64, g, keys int) *readStream {
	r := streamRand(seed, g)
	return &readStream{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(keys/loadConns-1)), g: g}
}

func (s *readStream) next(int) op {
	o := op{kind: opGet, tenant: s.r.IntN(tenants)}
	if s.r.IntN(100) < 5 {
		o.kind = opPut
	}
	o.idx = int(s.zipf.Uint64())*loadConns + s.g
	return o
}

// churnStream is serve-churn's op mix. 80% are PUTs by the hot tenant,
// uniform over hotKeys; the hot tenant rotates every hotEvery of this
// goroutine's requests (three epochs' worth, so rotation follows the
// request count, not the clock). The other 20% go to the cold tenants
// over coldKeys each: GET 15%, DELETE 5%.
type churnStream struct {
	r                 *rand.Rand
	g                 int
	hotKeys, coldKeys int
	hotEvery          int
}

func (s *churnStream) next(i int) op {
	hot := (i / s.hotEvery) % tenants
	u := s.r.IntN(100)
	if u < 80 {
		return op{kind: opPut, tenant: hot, idx: s.r.IntN(s.hotKeys/loadConns)*loadConns + s.g}
	}
	cold := (hot + 1 + s.r.IntN(tenants-1)) % tenants
	o := op{kind: opGet, tenant: cold, idx: s.r.IntN(s.coldKeys/loadConns)*loadConns + s.g}
	if u >= 95 {
		o.kind = opDel
	}
	return o
}

// backend executes cache operations: over HTTP, or by direct calls into
// serve.Cache.
type backend interface {
	// get returns the value, whether it was found, and a failure (a
	// transport error, a 5xx, or any other status than 200/404).
	get(tenant, key string, track int64) ([]byte, bool, error)
	put(tenant, key string, val []byte, track int64) error
	del(tenant, key string, track int64) error
}

// httpBackend talks to a cache server over one keep-alive connection.
type httpBackend struct {
	base string
	cl   *http.Client
	tr   *http.Transport
}

func newHTTPBackend(base string) *httpBackend {
	tr := &http.Transport{
		Proxy:               nil, // loopback or a named address, never an environment proxy
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &httpBackend{base: base, tr: tr, cl: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// close drops the backend's idle connection.
func (b *httpBackend) close() { b.tr.CloseIdleConnections() }

// trackHeader carries a sampled request's trace track to the traced
// handler, so its span lands under the client's request span.
const trackHeader = "X-Bench-Track"

func (b *httpBackend) do(method, tenant, key string, body []byte, track int64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.base+"/cache/"+tenant+"/"+key, rd)
	if err != nil {
		return 0, nil, err
	}
	if track != 0 {
		req.Header.Set(trackHeader, strconv.FormatInt(track, 10))
	}
	resp, err := b.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func (b *httpBackend) get(tenant, key string, track int64) ([]byte, bool, error) {
	st, data, err := b.do(http.MethodGet, tenant, key, nil, track)
	switch {
	case err != nil:
		return nil, false, err
	case st == http.StatusOK:
		return data, true, nil
	case st == http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("GET status %d", st)
	}
}

func (b *httpBackend) put(tenant, key string, val []byte, track int64) error {
	st, _, err := b.do(http.MethodPut, tenant, key, val, track)
	if err == nil && st != http.StatusNoContent {
		err = fmt.Errorf("PUT status %d", st)
	}
	return err
}

func (b *httpBackend) del(tenant, key string, track int64) error {
	st, _, err := b.do(http.MethodDelete, tenant, key, nil, track)
	if err == nil && st != http.StatusNoContent && st != http.StatusNotFound {
		err = fmt.Errorf("DELETE status %d", st)
	}
	return err
}

// directBackend calls serve.Cache in-process: what an embedder of
// NewServeCache runs.
type directBackend struct{ c *serve.Cache }

func (b directBackend) get(tenant, key string, _ int64) ([]byte, bool, error) {
	v, err := b.c.Get(tenant, key)
	switch {
	case err == nil:
		return v, true, nil
	case errors.Is(err, serve.ErrNotFound):
		return nil, false, nil
	default:
		return nil, false, err
	}
}

func (b directBackend) put(tenant, key string, val []byte, _ int64) error {
	return b.c.Set(tenant, key, val)
}

func (b directBackend) del(tenant, key string, _ int64) error {
	if err := b.c.Delete(tenant, key); err != nil && !errors.Is(err, serve.ErrNotFound) {
		return err
	}
	return nil
}

// Version table states besides a version ≥ 0.
const (
	verAbsent  = -1 // never written or deleted: a 200 GET is wrong
	verUnknown = -2 // a write failed mid-flight: not checked again
)

// opCounts is what a load goroutine counts.
type opCounts struct {
	gets, hits, puts, dels int64
	putBytes               int64 // acknowledged value bytes
	wrong, failed          int64
	opNs                   [3]int64 // backend time by kind (get, put, del)
	opN                    [3]int64
}

func (c *opCounts) add(o opCounts) {
	c.gets += o.gets
	c.hits += o.hits
	c.puts += o.puts
	c.dels += o.dels
	c.putBytes += o.putBytes
	c.wrong += o.wrong
	c.failed += o.failed
	for k := range c.opNs {
		c.opNs[k] += o.opNs[k]
		c.opN[k] += o.opN[k]
	}
}

// worker is one load goroutine: its op stream, its backend and the
// versions of the keys it owns.
type worker struct {
	g      int
	stream opStream
	be     backend
	ver    [tenants][]int32
	opCounts

	// Traced runs sample one request in traceEvery onto track tid.
	tracer *obs.Tracer
	tid    int64
}

// traceEvery is the request sampling rate of traced serve runs.
const traceEvery = 64

// newWorker builds goroutine g's worker over keySpace keys per tenant,
// with [0, preload) already written at version 0.
func newWorker(g int, stream opStream, be backend, keySpace, preload int) *worker {
	w := &worker{g: g, stream: stream, be: be}
	for t := range w.ver {
		w.ver[t] = make([]int32, keySpace)
		for i := range w.ver[t] {
			w.ver[t][i] = verAbsent
			if i < preload {
				w.ver[t][i] = 0
			}
		}
	}
	return w
}

// send performs request i and checks it. It returns the backend round
// trip and the time the generator spent around it (choosing the op,
// building the value, checking the answer).
func (w *worker) send(i int) (rtt, self time.Duration) {
	t0 := time.Now()
	o := w.stream.next(i)
	tenant, key := tenantName(o.tenant), keyName(o.idx)
	var track int64
	var sp *obs.Span
	if w.tracer != nil && i%traceEvery == 0 {
		track = w.tid
		sp = w.tracer.Begin(w.tid, "loadgen", "request").Arg("op", string(o.kind))
	}
	cur := w.ver[o.tenant][o.idx]
	next := cur + 1
	if cur < 0 {
		next = 1
	}
	var body []byte
	if o.kind == opPut {
		body = value(w.g, o.tenant, o.idx, next)
	}

	t1 := time.Now()
	var (
		got   []byte
		found bool
		err   error
		k     int
	)
	switch o.kind {
	case opGet:
		got, found, err = w.be.get(tenant, key, track)
	case opPut:
		err = w.be.put(tenant, key, body, track)
		k = 1
	case opDel:
		err = w.be.del(tenant, key, track)
		k = 2
	}
	t2 := time.Now()
	sp.End()
	w.opNs[k] += int64(t2.Sub(t1))
	w.opN[k]++

	switch {
	case err != nil:
		w.failed++
		if o.kind != opGet {
			w.ver[o.tenant][o.idx] = verUnknown
		}
	case o.kind == opGet:
		w.gets++
		if found {
			w.hits++
			if cur == verAbsent || (cur >= 0 && !bytes.Equal(got, value(w.g, o.tenant, o.idx, cur))) {
				w.wrong++
			}
		}
	case o.kind == opPut:
		w.puts++
		w.putBytes += int64(len(body))
		w.ver[o.tenant][o.idx] = next
	case o.kind == opDel:
		w.dels++
		w.ver[o.tenant][o.idx] = verAbsent
	}
	return t2.Sub(t1), t1.Sub(t0) + time.Since(t2)
}

// clock is the load loops' time source; the tests drive them with a fake.
type clock interface {
	now() time.Time
	sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) now() time.Time        { return time.Now() }
func (wallClock) sleep(d time.Duration) { time.Sleep(d) }

// sender performs request i and returns its round trip and the
// generator's own time around it.
type sender func(i int) (rtt, self time.Duration)

// lateAfter marks an open-loop request late when it is sent this long
// after its due time.
const lateAfter = time.Millisecond

// loopStats is one load goroutine's account of a phase.
type loopStats struct {
	// lat is each request's latency in µs: from send in a closed loop,
	// from its due time in an open loop.
	lat histogram
	// lag is an open-loop request's send time minus its due time, µs.
	lag histogram
	// stallUs[k] is the longest latency, µs, among open-loop requests due
	// in millisecond k of the phase.
	stallUs []float64
	sent    int64
	late    int64
	// rtt, self and sleep partition the goroutine's time; wall is all of
	// it.
	rtt, self, sleep, wall time.Duration
	// last is when the final request completed.
	last time.Time
}

// closedLoop sends the next request as soon as the previous one
// completes, until end.
func closedLoop(clk clock, end time.Time, send sender) loopStats {
	var st loopStats
	start := clk.now()
	for i := 0; clk.now().Before(end); i++ {
		rtt, self := send(i)
		st.sent++
		st.lat.add(float64(rtt) / 1e3)
		st.rtt += rtt
		st.self += self
	}
	st.last = clk.now()
	st.wall = st.last.Sub(start)
	return st
}

// openLoop sends request i at start + i·interval for every due time
// before end, or at once when it is already past due. Each request's
// latency runs from its due time, so a stall shows up as lateness on
// every request queued behind it, not as one slow request.
func openLoop(clk clock, start time.Time, interval time.Duration, end time.Time, send sender) loopStats {
	st := loopStats{stallUs: make([]float64, int(end.Sub(start)/time.Millisecond)+1)}
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		if now := clk.now(); now.Before(due) {
			clk.sleep(due.Sub(now))
			st.sleep += clk.now().Sub(now)
		}
		lag := clk.now().Sub(due)
		rtt, self := send(i)
		st.sent++
		us := float64(lag+rtt) / 1e3
		st.lat.add(us)
		st.lag.add(float64(lag) / 1e3)
		k := int(due.Sub(start) / time.Millisecond)
		st.stallUs[k] = max(st.stallUs[k], us)
		if lag >= lateAfter {
			st.late++
		}
		st.rtt += rtt
		st.self += self
	}
	st.last = clk.now()
	st.wall = st.last.Sub(start)
	return st
}

// issueCounter counts requests issued across goroutines and signals an
// epoch boundary every `every` of them.
type issueCounter struct {
	n     atomic.Int64
	every int64
	tick  chan struct{}
}

func newIssueCounter(every int) *issueCounter {
	return &issueCounter{every: int64(every), tick: make(chan struct{}, 1)}
}

// issued counts one request; every `every`-th one asks for an epoch
// boundary (a pending request is not doubled).
func (c *issueCounter) issued() {
	if c.n.Add(1)%c.every == 0 {
		select {
		case c.tick <- struct{}{}:
		default:
		}
	}
}
