package serve

import (
	"morphcache/internal/obs"
	"morphcache/internal/wal"
)

// metrics holds the per-tenant series, pre-resolved per slot (and sharded
// by request shard where the access path is hot) so incrementing needs no
// map lookup and no allocation. Exported families (DESIGN.md §12):
//
//	morphserve_requests_total{tenant,op,outcome}   counter
//	morphserve_evictions_total{tenant,reason}      counter
//	morphserve_hash_collisions_total{tenant}       counter
//	morphserve_tenant_occupancy_lines{tenant}      gauge (func)
//	morphserve_tenant_partition_lines{tenant}      gauge
//	morphserve_epochs_total                        counter
//	morphserve_reconfigurations_total              counter
//	morphserve_repartitions_total                  counter
type metrics struct {
	c *Cache
	// Indexed [slot]; nil for donor slots, which serve no requests and
	// own no lines.
	hits, miss, sets, dels []*obs.ShardedCounter
	collisions             []*obs.Counter
	evictCap, evictRepart  []*obs.Counter
	partLines              []*obs.Gauge

	epochs, reconfigs, reparts *obs.Counter

	// Robustness series (DESIGN.md §14): WAL durability, replay health,
	// admission shedding, fault injection, degraded mode.
	walAppends, walAppendErrs, walCompactions           *obs.Counter
	walSegments                                         *obs.Gauge
	replayRecords, replaySkipped, replayTruncatedBytes  *obs.Gauge
	replayClean                                         *obs.Gauge
	admRateRejections, admInflightRejections, stalledOp *obs.Counter
	faultsApplied, internalErrs                         *obs.Counter
	degraded                                            *obs.Gauge

	// Request-level series (DESIGN.md §15.1): per-tenant/per-verb latency
	// histograms on the HTTP path (request-scale µs buckets, sharded like
	// the hot counters), response status classes, and the HTTP-layer
	// in-flight gauge (distinct from the admission in-flight gauge, which
	// only counts when admission control is configured).
	reqDur     [][numOps]*obs.ShardedHistogram // [slot][op]; nil rows for donors
	httpClass  [4]*obs.Counter                 // 2xx, 3xx, 4xx, 5xx
	httpActive *obs.Gauge
}

// Operation indices for the per-verb histograms.
const (
	opGet = iota
	opSet
	opDelete
	numOps
)

var opNames = [numOps]string{"get", "set", "delete"}

func newMetrics(reg *obs.Registry, c *Cache) *metrics {
	m := &metrics{
		c:           c,
		hits:        make([]*obs.ShardedCounter, c.cfg.Slots),
		miss:        make([]*obs.ShardedCounter, c.cfg.Slots),
		sets:        make([]*obs.ShardedCounter, c.cfg.Slots),
		dels:        make([]*obs.ShardedCounter, c.cfg.Slots),
		collisions:  make([]*obs.Counter, c.cfg.Slots),
		evictCap:    make([]*obs.Counter, c.cfg.Slots),
		evictRepart: make([]*obs.Counter, c.cfg.Slots),
		partLines:   make([]*obs.Gauge, c.cfg.Slots),
		reqDur:      make([][numOps]*obs.ShardedHistogram, c.cfg.Slots),
	}
	const req = "morphserve_requests_total"
	const reqHelp = "Cache requests by tenant, operation, and outcome."
	const evict = "morphserve_evictions_total"
	const evictHelp = "Lines evicted, by owning tenant and reason (capacity pressure or partition shrink)."
	shards := len(c.shards)
	for slot, name := range c.names {
		if name == "" {
			continue
		}
		tenant := obs.Labels{"tenant": name}
		m.hits[slot] = reg.ShardedCounter(req, reqHelp, obs.Labels{"tenant": name, "op": "get", "outcome": "hit"}, shards)
		m.miss[slot] = reg.ShardedCounter(req, reqHelp, obs.Labels{"tenant": name, "op": "get", "outcome": "miss"}, shards)
		m.sets[slot] = reg.ShardedCounter(req, reqHelp, obs.Labels{"tenant": name, "op": "set", "outcome": "stored"}, shards)
		m.dels[slot] = reg.ShardedCounter(req, reqHelp, obs.Labels{"tenant": name, "op": "delete", "outcome": "deleted"}, shards)
		m.collisions[slot] = reg.Counter("morphserve_hash_collisions_total",
			"Requests whose key aliased a different resident key's line hash.", tenant)
		m.evictCap[slot] = reg.Counter(evict, evictHelp, obs.Labels{"tenant": name, "reason": "capacity"})
		m.evictRepart[slot] = reg.Counter(evict, evictHelp, obs.Labels{"tenant": name, "reason": "repartition"})
		m.partLines[slot] = reg.Gauge("morphserve_tenant_partition_lines",
			"Line capacity of the tenant's current partition (its slot group, all shards).", tenant)
		occ := &c.occupancy[slot]
		reg.RegisterGaugeFunc("morphserve_tenant_occupancy_lines",
			"Lines currently resident per tenant.", tenant,
			func() float64 { return float64(occ.Load()) })
		for op := 0; op < numOps; op++ {
			m.reqDur[slot][op] = reg.ShardedHistogram("morphserve_request_duration_microseconds",
				"HTTP request duration by tenant and operation, in microseconds.",
				obs.Labels{"tenant": name, "op": opNames[op]}, shards, obs.RequestLatencyBuckets)
		}
		if c.robs != nil && c.robs.slo != nil {
			slo := c.robs.slo
			s := slot
			for wi, w := range slo.windows {
				widx := wi
				reg.RegisterGaugeFunc("morphserve_slo_burn_rate",
					"Per-tenant SLO burn rate: fraction of requests over the p99 latency target, divided by the 1% error budget, per window.",
					obs.Labels{"tenant": name, "window": windowLabel(w.dur)},
					func() float64 { return slo.burn(s, widx) })
			}
		}
	}
	m.epochs = reg.Counter("morphserve_epochs_total",
		"Completed reconfiguration intervals.", nil)
	m.reconfigs = reg.Counter("morphserve_reconfigurations_total",
		"Reconfiguration operations (merges and splits) the policy applied.", nil)
	m.reparts = reg.Counter("morphserve_repartitions_total",
		"Topology changes applied to the serving partition map.", nil)
	m.walAppends = reg.Counter("morphserve_wal_appends_total",
		"Records appended to the write-ahead log.", nil)
	m.walAppendErrs = reg.Counter("morphserve_wal_append_errors_total",
		"WAL appends that failed (the write was rejected, not applied).", nil)
	m.walCompactions = reg.Counter("morphserve_wal_compactions_total",
		"Snapshot compactions of the write-ahead log.", nil)
	m.walSegments = reg.Gauge("morphserve_wal_segments",
		"Live WAL segment files.", nil)
	m.replayRecords = reg.Gauge("morphserve_wal_replay_records",
		"Records applied by the startup WAL replay.", nil)
	m.replaySkipped = reg.Gauge("morphserve_wal_replay_skipped_records",
		"Replay records skipped as no longer applicable (e.g. removed tenants).", nil)
	m.replayTruncatedBytes = reg.Gauge("morphserve_wal_replay_truncated_bytes",
		"Bytes cut from a torn WAL tail during startup repair.", nil)
	m.replayClean = reg.Gauge("morphserve_wal_replay_clean",
		"1 when the startup replay found no torn tail, else 0.", nil)
	m.admRateRejections = reg.Counter("morphserve_admission_rejected_total",
		"Requests shed by admission control, by reason.", obs.Labels{"reason": "tenant_rate"})
	m.admInflightRejections = reg.Counter("morphserve_admission_rejected_total",
		"Requests shed by admission control, by reason.", obs.Labels{"reason": "inflight"})
	m.stalledOp = reg.Counter("morphserve_shard_stalled_total",
		"Operations shed because their shard was stalled by an injected fault.", nil)
	m.faultsApplied = reg.Counter("morphserve_faults_applied_total",
		"Serve-layer fault events applied at epoch boundaries.", nil)
	m.internalErrs = reg.Counter("morphserve_internal_errors_total",
		"Requests that failed with an unclassified internal error.", nil)
	m.degraded = reg.Gauge("morphserve_degraded",
		"1 while the server is in read-mostly degraded mode after persistent WAL failure.", nil)
	reg.RegisterGaugeFunc("morphserve_inflight_requests",
		"Requests currently admitted and executing.", nil,
		func() float64 { return float64(c.InFlight()) })
	const classHelp = "HTTP responses by status class on the cache API routes."
	for i, class := range [...]string{"2xx", "3xx", "4xx", "5xx"} {
		m.httpClass[i] = reg.Counter("morphserve_http_responses_total", classHelp,
			obs.Labels{"class": class})
	}
	m.httpActive = reg.Gauge("morphserve_http_inflight_requests",
		"HTTP requests currently being handled on instrumented routes.", nil)
	reg.RegisterCounterFunc("morphserve_decisions_total",
		"Reconfiguration decisions recorded in the audit ring (all-time, including overwritten ones).",
		nil, c.audit.total)
	return m
}

// httpDone counts one finished HTTP response into its status class.
func (m *metrics) httpDone(status int) {
	if i := status/100 - 2; i >= 0 && i < len(m.httpClass) {
		m.httpClass[i].Inc()
	}
}

// reqObserve records one instrumented request's duration (µs), sharding
// the histogram by the duration's low bits to spread writer contention.
func (m *metrics) reqObserve(slot, op int, us uint64) {
	if h := m.reqDur[slot][op]; h != nil {
		h.Shard(int(us)).Observe(us)
	}
}

// setPartitionGauges refreshes every tenant's granted-capacity gauge from
// the published topology. Called at construction and after each
// rollout (epochMu held, or during replay).
func (m *metrics) setPartitionGauges() {
	c := m.c
	g := c.topo.L2
	for slot, gauge := range m.partLines {
		if gauge == nil {
			continue
		}
		lines := int64(g.GroupSize(g.GroupOf(slot))) * int64(c.slotLines) * int64(len(c.shards))
		gauge.Set(lines)
	}
}

func (m *metrics) getHit(slot, shard int)  { m.hits[slot].Shard(shard).Inc() }
func (m *metrics) getMiss(slot, shard int) { m.miss[slot].Shard(shard).Inc() }
func (m *metrics) set(slot, shard int)     { m.sets[slot].Shard(shard).Inc() }
func (m *metrics) del(slot, shard int)     { m.dels[slot].Shard(shard).Inc() }
func (m *metrics) collision(slot, _ int)   { m.collisions[slot].Inc() }

func (m *metrics) evict(ownerSlot int, reason string) {
	if reason == "repartition" {
		m.evictRepart[ownerSlot].Inc()
		return
	}
	m.evictCap[ownerSlot].Inc()
}

func (m *metrics) epoch(reconfigs int) {
	m.epochs.Inc()
	if reconfigs > 0 {
		m.reconfigs.Add(uint64(reconfigs))
	}
}

func (m *metrics) repartition() { m.reparts.Inc() }

func (m *metrics) walAppend()    { m.walAppends.Inc() }
func (m *metrics) walAppendErr() { m.walAppendErrs.Inc() }

// replayDone publishes the startup replay outcome.
func (m *metrics) replayDone(st wal.ReplayStats) {
	m.replayRecords.Set(st.Records)
	m.replaySkipped.Set(st.Skipped)
	m.replayTruncatedBytes.Set(st.TruncatedBytes)
	if st.Truncated {
		m.replayClean.Set(0)
	} else {
		m.replayClean.Set(1)
	}
}

func (m *metrics) admRejectRate()     { m.admRateRejections.Inc() }
func (m *metrics) admRejectInflight() { m.admInflightRejections.Inc() }
func (m *metrics) stalled()           { m.stalledOp.Inc() }
func (m *metrics) faultApplied()      { m.faultsApplied.Inc() }
func (m *metrics) internalErr()       { m.internalErrs.Inc() }
