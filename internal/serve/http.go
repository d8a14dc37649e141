package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"morphcache/internal/obs"
)

// Registrar is anything that mounts handlers by Go 1.22 ServeMux pattern:
// *http.ServeMux natively, and obs.Admin via its Handle method — which is
// how the cache API rides the existing -admin mux next to /metrics.
type Registrar interface {
	Handle(pattern string, handler http.Handler)
}

// Register mounts the cache API:
//
//	GET    /cache/{tenant}/{key...}   200 value | 404
//	PUT    /cache/{tenant}/{key...}   204 | 413 too large
//	POST   /cache/{tenant}/{key...}   alias of PUT
//	DELETE /cache/{tenant}/{key...}   204 | 404
//	GET    /topology                  JSON partition map
//	GET    /decisions                 JSON audit ring (last N; ?n= caps it)
//	GET    /events                    SSE live decision/degraded/stall feed
//
// Unknown tenants are 404, draining is 503 for every route. With
// admission control configured, the cache routes ride the overload
// guards (429 + Retry-After; see AdmissionConfig); the observability
// routes do not, so an operator can still inspect an overloaded server.
// Cache routes are instrumented (per-tenant/per-verb latency histograms,
// status classes, in-flight gauge); /events is exempted from the admin
// server's WriteTimeout via obs.Streaming.
func (c *Cache) Register(r Registrar) {
	r.Handle("GET /cache/{tenant}/{key...}", c.instrument(opGet, c.admit(c.handleGet, true)))
	r.Handle("PUT /cache/{tenant}/{key...}", c.instrument(opSet, c.admit(c.handlePut, true)))
	r.Handle("POST /cache/{tenant}/{key...}", c.instrument(opSet, c.admit(c.handlePut, true)))
	r.Handle("DELETE /cache/{tenant}/{key...}", c.instrument(opDelete, c.admit(c.handleDelete, true)))
	r.Handle("GET /topology", c.instrument(-1, c.admit(c.handleTopology, false)))
	r.Handle("GET /decisions", http.HandlerFunc(c.handleDecisions))
	r.Handle("GET /events", obs.Streaming(http.HandlerFunc(c.handleEvents)))
}

// statusWriter captures the response status for the status-class
// counters. Unwrap keeps http.ResponseController (and so obs.Streaming)
// working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a cache route with the request-level series: duration
// histogram (per tenant and verb, for op >= 0 routes naming a tenant),
// status class, and the HTTP in-flight gauge. Unlike logging/SLO/spans
// this is always on — the histograms are the serving path's analogue of
// the simulator's always-on latency hub, and the cost (two clock reads
// and one small wrapper) is paid only by HTTP callers, never by the
// library access path the 0-alloc gate covers.
func (c *Cache) instrument(op int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := c.now()
		c.met.httpActive.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		c.met.httpActive.Add(-1)
		c.met.httpDone(sw.status)
		if op >= 0 {
			if slot, ok := c.tenants[r.PathValue("tenant")]; ok {
				us := uint64(c.now().Sub(start).Microseconds())
				c.met.reqObserve(slot, op, us)
			}
		}
	})
}

// Handler returns a standalone mux carrying only the cache API (tests and
// embedders that do not use the admin mux).
func (c *Cache) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

// writeErr maps the cache's sentinel errors onto HTTP statuses. 503 is
// the "server is sick or leaving" family (drain, degraded, persistence,
// stalled shard) so load balancers eject the instance; client mistakes
// stay in the 4xx family. Unclassified errors return a generic 500 —
// never the internal error string — and count on an obs counter.
//
// Every retryable shed sets Retry-After (matching the admission layer's
// 429s): stalls and one-off persistence failures say 1s (transient),
// degraded mode says one epoch interval (recovery is probed at epoch
// boundaries, so sooner retries only burn the client's budget). Draining
// deliberately sends none — the instance is leaving, and the client
// should re-resolve rather than retry here.
func (c *Cache) writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, "not found", http.StatusNotFound)
	case errors.Is(err, ErrUnknownTenant):
		http.Error(w, "unknown tenant", http.StatusNotFound)
	case errors.Is(err, ErrValueTooLarge):
		http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
	case errors.Is(err, ErrKeyTooLong):
		http.Error(w, "key too long", http.StatusRequestURITooLong)
	case errors.Is(err, ErrDraining):
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", c.degradedRetryAfter())
		http.Error(w, "degraded: read-mostly mode", http.StatusServiceUnavailable)
	case errors.Is(err, ErrPersist):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "persistence failure, retry", http.StatusServiceUnavailable)
	case errors.Is(err, ErrShardStalled):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shard stalled, retry", http.StatusServiceUnavailable)
	case errors.Is(err, ErrEmptyKey):
		http.Error(w, "empty key", http.StatusBadRequest)
	default:
		c.met.internalErr()
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// degradedRetryAfter is the Retry-After for degraded-mode 503s: the
// epoch interval (rounded up to a whole second), since that is when the
// next WAL recovery probe can lift the degradation.
func (c *Cache) degradedRetryAfter() string {
	s := int64(math.Ceil(c.cfg.EpochInterval.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// httpOp runs one cache operation with request-level observation: the
// root request span (on the track the client's W3C traceparent pins, if
// any), SLO accounting, and the sampled access line. With observability
// disabled it is exactly the library call.
func (c *Cache) httpOp(r *http.Request, op string, tenant string, f func(rs *reqSpans) error) error {
	ro := c.robs
	if ro == nil {
		return f(nil)
	}
	rs := ro.spansFor(op, r.Header.Get("traceparent"))
	start := ro.now()
	err := f(rs)
	rs.finish()
	ro.observe(op, tenant, start, err)
	return err
}

func (c *Cache) handleGet(w http.ResponseWriter, r *http.Request) {
	tenant, key := r.PathValue("tenant"), r.PathValue("key")
	var val []byte
	err := c.httpOp(r, "get", tenant, func(rs *reqSpans) error {
		var err error
		val, err = c.get(tenant, key, rs)
		return err
	})
	if err != nil {
		c.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	w.Write(val)
}

func (c *Cache) handlePut(w http.ResponseWriter, r *http.Request) {
	// MaxBytesReader stops the transfer at the limit (closing the
	// connection) instead of draining an oversized body to count it.
	body := http.MaxBytesReader(w, r.Body, int64(c.cfg.MaxValueBytes))
	val, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			c.writeErr(w, ErrValueTooLarge)
		case errors.Is(r.Context().Err(), context.DeadlineExceeded):
			// The client ran out its request deadline mid-body.
			http.Error(w, "request timeout reading body", http.StatusRequestTimeout)
		case r.Context().Err() != nil:
			// The client went away; the status is for the log line.
			http.Error(w, "client closed request", http.StatusBadRequest)
		default:
			http.Error(w, "malformed request body", http.StatusBadRequest)
		}
		return
	}
	// A body that trickled in past the request deadline is rejected
	// before it is applied.
	switch ctxErr := r.Context().Err(); {
	case errors.Is(ctxErr, context.DeadlineExceeded):
		http.Error(w, "request timeout", http.StatusRequestTimeout)
		return
	case ctxErr != nil:
		http.Error(w, "client closed request", http.StatusBadRequest)
		return
	}
	tenant, key := r.PathValue("tenant"), r.PathValue("key")
	if err := c.httpOp(r, "set", tenant, func(rs *reqSpans) error {
		return c.set(tenant, key, val, rs)
	}); err != nil {
		c.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Cache) handleDelete(w http.ResponseWriter, r *http.Request) {
	tenant, key := r.PathValue("tenant"), r.PathValue("key")
	if err := c.httpOp(r, "delete", tenant, func(rs *reqSpans) error {
		return c.del(tenant, key, rs)
	}); err != nil {
		c.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// TenantStatus is one tenant's row in the /topology response.
type TenantStatus struct {
	Name           string `json:"name"`
	Slot           int    `json:"slot"`
	PartitionSlots []int  `json:"partition_slots"`
	PartitionLines int64  `json:"partition_lines"`
	OccupancyLines int64  `json:"occupancy_lines"`
}

// TopologyStatus is the /topology response body.
type TopologyStatus struct {
	Policy  string         `json:"policy"`
	Spec    string         `json:"spec"`
	Epoch   int            `json:"epoch"`
	Slots   int            `json:"slots"`
	Shards  int            `json:"shards"`
	Tenants []TenantStatus `json:"tenants"`
}

// Status snapshots the partition map (also served as GET /topology).
func (c *Cache) Status() TopologyStatus {
	topo := c.published()
	g := topo.L2
	st := TopologyStatus{
		Policy: c.policy.Name(),
		Spec:   topo.Spec(),
		Epoch:  c.Epoch(),
		Slots:  c.cfg.Slots,
		Shards: len(c.shards),
	}
	for slot, name := range c.names {
		if name == "" {
			continue
		}
		members := g.Members(g.GroupOf(slot))
		part := make([]int, len(members))
		copy(part, members)
		st.Tenants = append(st.Tenants, TenantStatus{
			Name:           name,
			Slot:           slot,
			PartitionSlots: part,
			PartitionLines: int64(len(members)) * int64(c.slotLines) * int64(len(c.shards)),
			OccupancyLines: c.occupancy[slot].Load(),
		})
	}
	return st
}

func (c *Cache) handleTopology(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Status())
}

// Decisions returns the retained audit records oldest-first, at most n
// (n <= 0 means all retained; capacity bounds both).
func (c *Cache) Decisions(n int) []DecisionRecord {
	return c.audit.snapshot(n)
}

// decisionsBody is the GET /decisions response.
type decisionsBody struct {
	// Total is the all-time decision count; Total > len(Decisions) means
	// the ring overwrote older records.
	Total     uint64           `json:"total"`
	Decisions []DecisionRecord `json:"decisions"`
}

func (c *Cache) handleDecisions(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	body := decisionsBody{Total: c.audit.total(), Decisions: c.audit.snapshot(n)}
	if body.Decisions == nil {
		body.Decisions = []DecisionRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// handleEvents streams decision/degraded/stall events as server-sent
// events until the client disconnects. Register wraps it in
// obs.Streaming so the admin server's blanket WriteTimeout does not cut
// the stream; a subscriber that stops reading loses events rather than
// blocking publishers (see eventHub).
func (c *Cache) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := c.hub.subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": morphserve event stream\n\n")
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, ev.data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// TenantSLO is one tenant's SLO state in the health detail view.
type TenantSLO struct {
	Tenant string `json:"tenant"`
	// TargetP99Micros is the configured latency target in microseconds.
	TargetP99Micros int64 `json:"target_p99_us"`
	// BurnRate maps window label ("5m") to the current burn rate (over-
	// target fraction over the 1% budget; 1.0 = burning exactly the
	// budget).
	BurnRate map[string]float64 `json:"burn_rate"`
}

// HealthView is the /healthz?verbose=1 detail the serve-mode cache
// registers through obs.Admin.SetHealthDetail.
type HealthView struct {
	Draining  bool   `json:"draining"`
	Degraded  bool   `json:"degraded"`
	Epoch     int    `json:"epoch"`
	Spec      string `json:"spec"`
	Decisions uint64 `json:"decisions_total"`
	// SLO is present only when SLO tracking is configured.
	SLO []TenantSLO `json:"slo,omitempty"`
}

// HealthDetail snapshots the serving state for the verbose health view.
func (c *Cache) HealthDetail() HealthView {
	v := HealthView{
		Draining:  c.Draining(),
		Degraded:  c.Degraded(),
		Epoch:     c.Epoch(),
		Spec:      c.Spec(),
		Decisions: c.audit.total(),
	}
	if c.robs != nil && c.robs.slo != nil {
		slo := c.robs.slo
		for slot, name := range c.names {
			if name == "" {
				continue
			}
			t := TenantSLO{
				Tenant:          name,
				TargetP99Micros: slo.target.Microseconds(),
				BurnRate:        make(map[string]float64, len(slo.windows)),
			}
			for wi, w := range slo.windows {
				t.BurnRate[windowLabel(w.dur)] = slo.burn(slot, wi)
			}
			v.SLO = append(v.SLO, t)
		}
	}
	return v
}
