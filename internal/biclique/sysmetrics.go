package biclique

import (
	"runtime"
	"sync"
	"time"

	"fastjoin/internal/core"
	"fastjoin/internal/metrics"
	"fastjoin/internal/stream"
	"fastjoin/internal/window"
)

// SystemMetrics aggregates the live measurements of one running join
// system: the three quantities the paper evaluates (throughput, processing
// latency, degree of load imbalance) plus migration accounting. All fields
// are safe for concurrent use; the bolts update them directly.
type SystemMetrics struct {
	// Results counts emitted join pairs; its TickRate is the system
	// throughput (results per second), the paper's primary metric.
	Results *metrics.Meter
	// Latency records per-probe processing latency in nanoseconds
	// (dispatcher send -> join completion: queueing plus service).
	Latency *metrics.Histogram
	// StoredR / StoredS gauge the total stored tuples per side.
	StoredR metrics.Gauge
	StoredS metrics.Gauge

	// Migrations counts completed migrations; MigratedKeys and
	// MigratedTuples the total keys and stored tuples moved.
	Migrations     metrics.Counter
	MigratedKeys   metrics.Counter
	MigratedTuples metrics.Counter
	// MigrationAborts counts attempts that rolled back after the marker
	// handshake timed out (see MigrationConfig.AbortTimeout).
	MigrationAborts metrics.Counter
	// MigrationsInFlight gauges migration attempts whose handshake (or
	// rollback) has not finished. Quiescence checks poll it: engine
	// settling with a non-zero value means tuples are still parked in
	// migration buffers awaiting a tick-driven retransmit.
	MigrationsInFlight metrics.Gauge
	// ReplayPanics counts tuples lost to panics during migration replay
	// (each poisoned tuple costs only itself; see joinerBolt.replay).
	ReplayPanics metrics.Counter
	// ReplayedTuples meters tuples re-processed from migration buffers
	// (temporary queue, inbound buffer, or abort rollback). Their SentAt
	// stamps are stale by the handshake's wall-time, so they are counted
	// here instead of polluting the Latency histogram.
	ReplayedTuples *metrics.Meter

	// Hot-key splitting accounting (see DESIGN.md "Hot-key splitting").
	// SplitKeys gauges the keys currently split-routed across all
	// dispatcher tasks; KeysSplit / KeysUnsplit count activation and
	// cool-down events over the system's lifetime (a key that oscillates
	// counts each transition).
	SplitKeys   metrics.Gauge
	KeysSplit   metrics.Counter
	KeysUnsplit metrics.Counter
	// SplitFrozenKeys counts keys a dispatcher dropped from a RouteUpdate
	// because they were split: once a key's split activates, its routing
	// entry is frozen — salted shares must never move between instances —
	// so any late selection of the key (e.g. from an old owner's stale
	// probe statistics) is refused rather than applied. The freeze lifts
	// when the key retires.
	SplitFrozenKeys metrics.Counter
	// ResidualKeys gauges the cooled split keys whose drain round is still
	// open: an UnsplitMark went out but not every non-owner member has
	// reported its salted share expired. A reheat (re-activation) or the
	// retire both close the round. Bounded-memory checks poll it: a churn
	// workload that heats and cools keys must drive it back to zero once
	// the window passes.
	ResidualKeys metrics.Gauge
	// KeysRetired counts completed split lifecycles: the drain handshake
	// finished, the fenced SplitRetire went out, the dispatcher deleted
	// the split entry, and the key returned to single-owner routing with
	// its freeze and member taints lifted.
	KeysRetired metrics.Counter

	// gcBase is the runtime memory state captured at NewSystemMetrics;
	// RuntimeSample reports GC activity as deltas against it so the numbers
	// isolate this system's run, not the whole process lifetime.
	gcBase runtime.MemStats

	mu sync.Mutex
	// liSeries records the real-time degree of load imbalance per side
	// (Fig. 11); loadSeries records each instance's load over time
	// (Fig. 1c).
	liSeries   [2]*metrics.TimeSeries
	loadSeries [2][]*metrics.TimeSeries
	migLog     []MigrationEvent
	// lastLoads / lastLI hold the most recent load report of every
	// instance and the latest recorded imbalance per side — the
	// instantaneous values the /metrics endpoint exports (the series
	// above serve the post-hoc figure exports).
	lastLoads [2][]core.InstanceLoad
	lastLI    [2]float64
	// splitReported holds each joiner's latest count of actively split
	// keys it is marked for (LoadReport.SplitKeys), per side/instance.
	splitReported [2][]int
	// storeBytes holds each joiner's latest store footprint
	// (LoadReport.Footprint), per side/instance.
	storeBytes [2][]window.Footprint
}

// RuntimeSample is a point-in-time view of the process heap and the GC
// activity accumulated since the system's metrics were created. The store
// rework trades map/slice churn for arena reuse; these gauges make that win
// observable end to end (the bench harness reports them per run).
type RuntimeSample struct {
	// HeapAllocBytes is the live heap at sampling time.
	HeapAllocBytes uint64
	// AllocBytes is the cumulative bytes allocated since NewSystemMetrics.
	AllocBytes uint64
	// GCCycles is the number of GC cycles completed since NewSystemMetrics.
	GCCycles uint32
	// GCPauseTotal is the total stop-the-world pause accumulated since
	// NewSystemMetrics.
	GCPauseTotal time.Duration
}

// MigrationEvent records one completed migration for diagnostics.
type MigrationEvent struct {
	At      int64       `json:"at"` // unix nanoseconds
	Side    stream.Side `json:"side"`
	Source  int         `json:"source"`
	Target  int         `json:"target"`
	LI      float64     `json:"li"` // imbalance that triggered it
	Keys    int         `json:"keys"`
	Moved   int         `json:"moved"`
	Aborted bool        `json:"aborted,omitempty"`
}

// NewSystemMetrics returns metrics sized for one system.
func NewSystemMetrics(joinersPerSide int) *SystemMetrics {
	m := &SystemMetrics{
		Results:        metrics.NewMeter(),
		Latency:        metrics.NewHistogram(),
		ReplayedTuples: metrics.NewMeter(),
	}
	for side := 0; side < 2; side++ {
		m.liSeries[side] = &metrics.TimeSeries{}
		m.loadSeries[side] = make([]*metrics.TimeSeries, joinersPerSide)
		m.lastLoads[side] = make([]core.InstanceLoad, joinersPerSide)
		m.splitReported[side] = make([]int, joinersPerSide)
		m.storeBytes[side] = make([]window.Footprint, joinersPerSide)
		for i := range m.loadSeries[side] {
			m.loadSeries[side][i] = &metrics.TimeSeries{}
			m.lastLoads[side][i] = core.InstanceLoad{Instance: i}
		}
	}
	runtime.ReadMemStats(&m.gcBase)
	return m
}

// RuntimeSample reads the current runtime memory state, reporting GC
// activity as deltas since NewSystemMetrics. ReadMemStats stops the world
// briefly; callers sample at reporting boundaries, not per tuple.
func (m *SystemMetrics) RuntimeSample() RuntimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSample{
		HeapAllocBytes: ms.HeapAlloc,
		AllocBytes:     ms.TotalAlloc - m.gcBase.TotalAlloc,
		GCCycles:       ms.NumGC - m.gcBase.NumGC,
		GCPauseTotal:   time.Duration(ms.PauseTotalNs - m.gcBase.PauseTotalNs),
	}
}

// RecordImbalance appends one LI observation for a side.
func (m *SystemMetrics) RecordImbalance(side stream.Side, li float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.liSeries[side].AppendNow(li)
	m.lastLI[side] = li
}

// RecordLoads appends the current load of every reporting instance.
func (m *SystemMetrics) RecordLoads(side stream.Side, loads []core.InstanceLoad) {
	m.mu.Lock()
	defer m.mu.Unlock()
	series := m.loadSeries[side]
	for _, l := range loads {
		if l.Instance >= 0 && l.Instance < len(series) {
			series[l.Instance].AppendNow(float64(l.Load()))
			m.lastLoads[side][l.Instance] = l
		}
	}
}

// InstanceLoads returns the latest load report of every instance on a
// side: stored tuples |R_i|, probe pressure φ_si, and therefore the
// paper's load statistic L_i via Load(). Instances that have not reported
// yet carry zeros.
func (m *SystemMetrics) InstanceLoads(side stream.Side) []core.InstanceLoad {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]core.InstanceLoad, len(m.lastLoads[side]))
	copy(out, m.lastLoads[side])
	return out
}

// LastLI returns the most recently recorded degree of load imbalance of a
// side (clipped to the recording cap; zero before the first observation).
func (m *SystemMetrics) LastLI(side stream.Side) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastLI[side]
}

// LISeries returns the recorded LI observations of a side.
func (m *SystemMetrics) LISeries(side stream.Side) []metrics.Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liSeries[side].Points()
}

// LoadSeries returns instance i's recorded load history for a side.
func (m *SystemMetrics) LoadSeries(side stream.Side, instance int) []metrics.Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	series := m.loadSeries[side]
	if instance < 0 || instance >= len(series) {
		return nil
	}
	return series[instance].Points()
}

// RecordSplitReport stores one joiner's latest count of actively split
// keys, as carried by its LoadReport.
func (m *SystemMetrics) RecordSplitReport(side stream.Side, instance, keys int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if instance >= 0 && instance < len(m.splitReported[side]) {
		m.splitReported[side][instance] = keys
	}
}

// SplitReported returns the latest per-instance counts of actively split
// keys on a side (index = instance).
func (m *SystemMetrics) SplitReported(side stream.Side) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.splitReported[side]))
	copy(out, m.splitReported[side])
	return out
}

// RecordStoreFootprint stores one joiner's latest store footprint, as
// carried by its LoadReport.
func (m *SystemMetrics) RecordStoreFootprint(side stream.Side, instance int, fp window.Footprint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if instance >= 0 && instance < len(m.storeBytes[side]) {
		m.storeBytes[side][instance] = fp
	}
}

// StoreFootprints returns the latest per-instance store footprints on a
// side (index = instance).
func (m *SystemMetrics) StoreFootprints(side stream.Side) []window.Footprint {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]window.Footprint, len(m.storeBytes[side]))
	copy(out, m.storeBytes[side])
	return out
}

// RecordMigration appends one migration event.
func (m *SystemMetrics) RecordMigration(ev MigrationEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.migLog = append(m.migLog, ev)
}

// MigrationLog returns a copy of the recorded migration events.
func (m *SystemMetrics) MigrationLog() []MigrationEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MigrationEvent, len(m.migLog))
	copy(out, m.migLog)
	return out
}

// Instances returns how many per-instance load series exist per side.
func (m *SystemMetrics) Instances() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.loadSeries[0])
}
