package serve

import (
	"encoding/json"
	"sync"

	"morphcache/internal/telemetry"
)

// The decision audit plane (DESIGN.md §15.2). The paper's premise is that
// reconfiguration is only trustworthy when its triggering signals are
// inspectable; PR 2 built that inspection layer for the simulator
// (telemetry.ReconfigEvent), and this promotes it to the serving path: the
// controller's recorder hook feeds a fixed-capacity ring of
// DecisionRecords — every repartition with the rule that fired, the ACFV
// inputs it compared, and the per-tenant capacity delta it granted —
// served as GET /decisions (JSON, last N) and streamed live over
// GET /events (SSE).

// DecisionRecord is one applied reconfiguration decision as the serving
// path saw it: the telemetry.ReconfigEvent fields (rule taxonomy, demand
// inputs, MSAT bounds) plus the per-tenant granted-slot delta the
// topology swap produced. The JSON encoding is deterministic — map keys
// sort, and the timestamp comes from the injectable ObsConfig.Now — so
// two identically seeded runs serve byte-identical /decisions bodies.
type DecisionRecord struct {
	// Seq is the 1-based decision sequence number since process start; a
	// gap at the front of /decisions means the ring overwrote history.
	Seq uint64 `json:"seq"`
	// Epoch is the reconfiguration interval the decision closed.
	Epoch int `json:"epoch"`
	// TimeUnixNano is ObsConfig.Now at record time (wall clock by default).
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Level, Op, Rule, Groups mirror telemetry.ReconfigEvent: the cache
	// level ("L2"/"L3" — the serve topology mirrors one grouping on
	// both), the operation ("merge"/"split"), the rule that fired
	// ("capacity", "sharing", "interference", "stale", "qos", "coupling",
	// "fault"), and the slot groups involved before the operation.
	Level  string `json:"level"`
	Op     string `json:"op"`
	Rule   string `json:"rule"`
	Groups string `json:"groups"`
	// UtilA/UtilB/Overlap are the demand-vector inputs the rule compared
	// (|ACFV| capacity fractions and footprint overlap), and
	// MSATHigh/MSATLow the thresholds in force.
	UtilA    float64 `json:"util_a"`
	UtilB    float64 `json:"util_b"`
	Overlap  float64 `json:"overlap"`
	MSATHigh float64 `json:"msat_high"`
	MSATLow  float64 `json:"msat_low"`
	// SlotDelta maps each tenant whose partition changed size to the slot
	// count it gained (positive) or lost (negative). Omitted for
	// operations that moved no tenant capacity.
	SlotDelta map[string]int `json:"slot_delta,omitempty"`
}

// defaultAuditCapacity is the ring size when ObsConfig.AuditCapacity is 0.
const defaultAuditCapacity = 256

// auditRing retains the last cap decisions. Push happens in an epoch
// boundary's decision step (no shard lock held); snapshot happens on
// /decisions scrapes, so a plain mutex costs nothing on the access path.
type auditRing struct {
	mu  sync.Mutex
	buf []DecisionRecord
	seq uint64
}

func newAuditRing(capacity int) *auditRing {
	if capacity <= 0 {
		capacity = defaultAuditCapacity
	}
	return &auditRing{buf: make([]DecisionRecord, capacity)}
}

// push assigns the next sequence number, stores the record (overwriting
// the oldest at capacity), and returns the stored value.
func (a *auditRing) push(rec DecisionRecord) DecisionRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	rec.Seq = a.seq
	a.buf[int((a.seq-1)%uint64(len(a.buf)))] = rec
	return rec
}

// snapshot returns the retained records oldest-first, at most n (n <= 0
// means all retained).
func (a *auditRing) snapshot(n int) []DecisionRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	capacity := uint64(len(a.buf))
	kept := a.seq
	if kept > capacity {
		kept = capacity
	}
	if n > 0 && uint64(n) < kept {
		kept = uint64(n)
	}
	out := make([]DecisionRecord, 0, kept)
	for i := a.seq - kept; i < a.seq; i++ {
		out = append(out, a.buf[int(i%capacity)])
	}
	return out
}

// total returns the all-time decision count (including overwritten ones).
func (a *auditRing) total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// auditRecorder adapts the Cache to telemetry.Recorder: the controller
// mirrors every operation it decides here (from EndEpoch's decision step,
// under epochMu with no shard lock held), and the recorder turns it into
// an audit record, a live event, and an always-on decision log line.
type auditRecorder struct{ c *Cache }

var _ telemetry.Recorder = auditRecorder{}

// RecordEpoch implements telemetry.Recorder; serve mode derives its epoch
// series from metrics, not epoch records.
func (a auditRecorder) RecordEpoch(telemetry.EpochRecord) {}

// RecordReconfig implements telemetry.Recorder.
func (a auditRecorder) RecordReconfig(ev telemetry.ReconfigEvent) {
	c := a.c
	// The controller emits immediately after the SetTopology call that
	// planned the operation, so the delta the machine stashed there
	// belongs to this event. Consume it; an event with no topology change
	// (none exist today in serve mode) would carry no delta.
	delta := c.pendingDelta
	c.pendingDelta = nil
	rec := c.audit.push(DecisionRecord{
		Epoch:        ev.Epoch,
		TimeUnixNano: c.now().UnixNano(),
		Level:        ev.Level,
		Op:           ev.Op,
		Rule:         ev.Rule,
		Groups:       ev.Groups,
		UtilA:        ev.UtilA,
		UtilB:        ev.UtilB,
		Overlap:      ev.Overlap,
		MSATHigh:     ev.MSATHigh,
		MSATLow:      ev.MSATLow,
		SlotDelta:    delta,
	})
	c.hub.publish("decision", rec)
	if c.slog != nil {
		c.slog.Info("decision",
			"seq", rec.Seq, "epoch", rec.Epoch, "op", rec.Op, "rule", rec.Rule,
			"groups", rec.Groups, "util_a", rec.UtilA, "util_b", rec.UtilB,
			"slot_delta", rec.SlotDelta)
	}
}

// sseEvent is one pre-encoded server-sent event.
type sseEvent struct {
	kind string
	data []byte
}

// eventHub fans live events (decision, degraded, stall) out to /events
// subscribers. Publishing never blocks: a subscriber that cannot keep up
// loses events rather than stalling an epoch boundary (the stall event is
// published from the epoch cut, which holds every shard lock).
type eventHub struct {
	mu   sync.Mutex
	subs map[chan sseEvent]struct{}
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan sseEvent]struct{})}
}

// subscriberBuffer bounds each subscriber's backlog before drops begin.
const subscriberBuffer = 64

// subscribe registers a listener; cancel unregisters it (the channel is
// not closed, so a racing publish never panics).
func (h *eventHub) subscribe() (ch chan sseEvent, cancel func()) {
	ch = make(chan sseEvent, subscriberBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}

// publish encodes the payload once and offers it to every subscriber.
func (h *eventHub) publish(kind string, payload any) {
	h.mu.Lock()
	if len(h.subs) == 0 {
		h.mu.Unlock()
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		h.mu.Unlock()
		return
	}
	ev := sseEvent{kind: kind, data: data}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than block an epoch boundary
		}
	}
	h.mu.Unlock()
}

// degradedEvent is the /events payload for read-mostly mode transitions.
type degradedEvent struct {
	On bool `json:"on"`
}

// stallEvent is the /events payload for an injected shard stall.
type stallEvent struct {
	Shard  int `json:"shard"`
	Epochs int `json:"epochs"`
	Epoch  int `json:"epoch"`
}
