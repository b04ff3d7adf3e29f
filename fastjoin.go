// Package fastjoin is a skewness-aware distributed stream join system — a
// from-scratch Go reproduction of "FastJoin: A Skewness-Aware Distributed
// Stream Join System" (IPDPS 2019).
//
// FastJoin executes hash equi-joins over two unbounded tuple streams on a
// group-parallel join-biclique topology (the BiStream model): one group of
// join instances stores stream R and probes it with S tuples, the other
// stores S and probes it with R tuples. Under key skew, hash partitioning
// concentrates load on few instances; FastJoin detects the imbalance with a
// per-instance load model (L_i = |R_i|·φ_si), selects the keys worth moving
// with the GreedyFit algorithm, and migrates them between instances at
// runtime without missing or duplicating a single join result.
//
// The package also provides the two BiStream baselines the paper compares
// against (plain hash partitioning and the ContRand hybrid), a broadcast
// baseline, window-based join semantics, and live metrics (throughput,
// processing latency, degree of load imbalance).
//
// Quick start:
//
//	sys, err := fastjoin.New(fastjoin.Options{
//		Kind:    fastjoin.KindFastJoin,
//		Joiners: 8,
//		Sources: []fastjoin.TupleSource{mySource},
//	})
//	...
//	sys.RunFor(10 * time.Second)
//	fmt.Println(sys.Stats())
package fastjoin

import (
	"context"
	"fmt"
	"time"

	"fastjoin/internal/biclique"
	"fastjoin/internal/chaos"
	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/metrics"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// Re-exported data-model types: these are the currency of the public API.
type (
	// Tuple is one element of an input stream.
	Tuple = stream.Tuple
	// Key is the join attribute.
	Key = stream.Key
	// Side identifies the stream a tuple belongs to (R or S).
	Side = stream.Side
	// JoinedPair is one join result.
	JoinedPair = stream.JoinedPair
	// Predicate optionally refines key-equality matches.
	Predicate = stream.Predicate
	// TupleSource produces the tuples of one ingestion task.
	TupleSource = biclique.TupleSource
	// Point is a timestamped metric sample.
	Point = metrics.Point
)

// The two stream sides.
const (
	R = stream.R
	S = stream.S
)

// DefaultBatchSize is the shuffler and dispatcher lane capacity used when
// Options.Batching.Size is left 0 (see BatchOptions.Size).
const DefaultBatchSize = biclique.DefaultBatchSize

// Kind selects which of the paper's systems to run.
type Kind uint8

const (
	// KindFastJoin is the paper's system: hash partitioning plus dynamic
	// load balancing with the GreedyFit key selection algorithm.
	KindFastJoin Kind = iota
	// KindFastJoinSAFit is FastJoin with the simulated-annealing selector
	// (the Fig. 14 ablation).
	KindFastJoinSAFit
	// KindBiStream is the BiStream baseline: static hash partitioning, no
	// migration.
	KindBiStream
	// KindBiStreamContRand is BiStream with the ContRand hybrid routing.
	KindBiStreamContRand
	// KindBroadcast is the random-partitioning baseline: tuples stored
	// anywhere, probes broadcast everywhere.
	KindBroadcast
)

// String names the system as the paper's figures do.
func (k Kind) String() string {
	switch k {
	case KindFastJoin:
		return "FastJoin"
	case KindFastJoinSAFit:
		return "FastJoin-SAFit"
	case KindBiStream:
		return "BiStream"
	case KindBiStreamContRand:
		return "BiStream-ContRand"
	case KindBroadcast:
		return "Broadcast"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// AllKinds lists every runnable system, in the paper's comparison order.
func AllKinds() []Kind {
	return []Kind{KindFastJoin, KindFastJoinSAFit, KindBiStream, KindBiStreamContRand, KindBroadcast}
}

// System is a running stream join system.
type System struct {
	kind  Kind
	sys   *biclique.System
	chaos *chaos.Injector
	trace *obs.Tracer
	obsrv *obs.Server
}

// New validates the options (Options.Validate normalizes every default),
// builds the topology for the requested system kind and starts it. When
// Options.Observe.Addr is set, the observability endpoint is bound before
// the system starts and closed by Stop.
func New(opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tracer := obs.NewTracer(opts.Observe.TraceCapacity)
	cfg := biclique.Config{
		JoinersPerSide: opts.Joiners,
		Dispatchers:    opts.Dispatchers,
		Shufflers:      opts.Shufflers,
		SubgroupSize:   opts.SubgroupSize,
		StatsInterval:  opts.StatsInterval,
		Window:         opts.Windowing.Span,
		SubWindows:     opts.Windowing.SubWindows,
		Predicate:      opts.Predicate,
		PreProcess:     opts.PreProcess,
		Sources:        opts.Sources,
		Seed:           opts.Seed,
		Engine:         engine.Config{QueueSize: opts.QueueSize},
		ServiceRate:    opts.ServiceRate,
		MatchCost:      opts.MatchCost,
		BatchSize:      opts.Batching.Size,
		BatchLinger:    opts.Batching.Linger,
		Tracer:         tracer,
	}
	switch opts.StoreKind {
	case StoreMap:
		cfg.StoreImpl = biclique.StoreMap
	default:
		cfg.StoreImpl = biclique.StoreChunked
	}
	if opts.OnResult != nil {
		cfg.EmitResults = true
		cfg.OnResult = opts.OnResult
	}

	policy := core.MonitorPolicy{
		Theta:        opts.Migration.Theta,
		Cooldown:     opts.Migration.Cooldown,
		SustainTicks: opts.Migration.SustainTicks,
	}
	split := biclique.SplitConfig{Enabled: opts.Migration.SplitThreshold > 0}
	switch opts.Kind {
	case KindFastJoin:
		cfg.Strategy = biclique.StrategyHash
		cfg.Split = split
		cfg.Migration = biclique.MigrationConfig{
			Enabled:    true,
			Policy:     policy,
			Selector:   core.GreedyFit,
			MinBenefit: opts.Migration.MinBenefit,
		}
	case KindFastJoinSAFit:
		cfg.Strategy = biclique.StrategyHash
		cfg.Split = split
		sa := core.DefaultSAConfig()
		sa.Seed = int64(opts.Seed) + 1
		cfg.Migration = biclique.MigrationConfig{
			Enabled:    true,
			Policy:     policy,
			Selector:   core.SAFitSelector(sa),
			MinBenefit: opts.Migration.MinBenefit,
		}
	case KindBiStream:
		cfg.Strategy = biclique.StrategyHash
	case KindBiStreamContRand:
		cfg.Strategy = biclique.StrategyContRand
	case KindBroadcast:
		cfg.Strategy = biclique.StrategyRandom
	default:
		return nil, fmt.Errorf("fastjoin: unknown system kind %v", opts.Kind)
	}

	var inj *chaos.Injector
	if opts.Chaos.Profile != ChaosNone {
		profile, err := chaos.Lookup(opts.Chaos.Profile.String())
		if err != nil {
			return nil, fmt.Errorf("fastjoin: %w", err)
		}
		inj = chaos.NewInjector(profile, opts.Chaos.Seed)
		cfg.Chaos = inj
	}

	sys, err := biclique.Start(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{kind: opts.Kind, sys: sys, chaos: inj, trace: tracer}
	if opts.Observe.Addr != "" {
		srv, err := obs.Serve(opts.Observe.Addr, (*obsSource)(s))
		if err != nil {
			sys.Stop()
			return nil, fmt.Errorf("fastjoin: observability endpoint: %w", err)
		}
		s.obsrv = srv
	}
	return s, nil
}

// Kind returns which system this is.
func (s *System) Kind() Kind { return s.kind }

// WaitComplete blocks until the (finite) sources are exhausted and all
// in-flight work has settled.
func (s *System) WaitComplete(timeout time.Duration) error {
	return s.sys.WaitComplete(timeout)
}

// Drain stops ingestion and settles in-flight work.
func (s *System) Drain(timeout time.Duration) error { return s.sys.Drain(timeout) }

// ctxPollSlice is how long the context-aware waiters block between
// context checks. Short enough that cancellation feels immediate, long
// enough that polling costs nothing.
const ctxPollSlice = 200 * time.Millisecond

// WaitCompleteCtx is WaitComplete driven by a context: it waits in short
// slices, returning ctx.Err() as soon as the context is done and nil once
// the system has settled. With neither, it waits forever — pass a context
// with a deadline to bound it.
func (s *System) WaitCompleteCtx(ctx context.Context) error {
	return pollCtx(ctx, s.sys.WaitComplete)
}

// DrainCtx is Drain driven by a context: ingestion stops immediately, and
// the settling wait is bounded by the context instead of a timeout.
func (s *System) DrainCtx(ctx context.Context) error {
	return pollCtx(ctx, s.sys.Drain)
}

func pollCtx(ctx context.Context, wait func(time.Duration) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A slice that ends without quiescence reports a timeout error;
		// loop and re-check the context. Any slice may return nil — done.
		if err := wait(ctxPollSlice); err == nil {
			return nil
		}
	}
}

// Stop terminates the system immediately and closes the observability
// endpoint, if one was configured.
func (s *System) Stop() {
	s.sys.Stop()
	if s.obsrv != nil {
		_ = s.obsrv.Close()
	}
}

// RunFor lets the system process for d, then drains and stops it.
func (s *System) RunFor(d time.Duration) error {
	time.Sleep(d)
	err := s.Drain(0)
	s.Stop()
	return err
}

// ThroughputTick returns results/second since the previous call.
func (s *System) ThroughputTick() float64 { return s.sys.Metrics().Results.TickRate() }

// Ingested returns the number of input tuples admitted so far.
func (s *System) Ingested() int64 { return s.sys.Ingested() }

// LISeries returns the recorded degree-of-load-imbalance samples of one
// biclique side.
func (s *System) LISeries(side Side) []Point { return s.sys.Metrics().LISeries(side) }

// LoadSeries returns one instance's recorded load history.
func (s *System) LoadSeries(side Side, instance int) []Point {
	return s.sys.Metrics().LoadSeries(side, instance)
}

// MigrationEvent describes one completed key migration.
type MigrationEvent = biclique.MigrationEvent

// MigrationLog returns the completed migrations, oldest first.
func (s *System) MigrationLog() []MigrationEvent {
	return s.sys.Metrics().MigrationLog()
}

// ChaosCounts snapshots how many faults a chaos profile has injected.
type ChaosCounts = chaos.Counts

// ChaosCounts returns the injected-fault totals when the system was
// built with a ChaosProfile, and the zero value otherwise.
func (s *System) ChaosCounts() ChaosCounts {
	if s.chaos == nil {
		return ChaosCounts{}
	}
	return s.chaos.Counts()
}

// MigrationsInFlight returns the number of migration handshakes that have
// not yet committed. Fault drills poll it to decide
// whether an apparently quiescent system still holds tuples parked in
// migration buffers.
func (s *System) MigrationsInFlight() int64 { return s.sys.MigrationsInFlight() }

// Stats is a point-in-time summary of a system's activity.
type Stats struct {
	System         string  `json:"system"`
	Results        int64   `json:"results"`
	LatencySamples int64   `json:"latency_samples"`
	LatencyMeanUs  float64 `json:"latency_mean_us"`
	LatencyP95Us   float64 `json:"latency_p95_us"`
	LatencyP99Us   float64 `json:"latency_p99_us"`
	StoredR        int64   `json:"stored_r"`
	StoredS        int64   `json:"stored_s"`
	Migrations     int64   `json:"migrations"`
	MigratedKeys   int64   `json:"migrated_keys"`
	MigratedTuples int64   `json:"migrated_tuples"`
	// MigrationAborts is always 0: a migration ends only by commit. It
	// stays for its last reader, the benchmark harness, and goes with it
	// when the benchmark is next revised (ROADMAP 2(f)).
	MigrationAborts int64 `json:"migration_aborts,omitempty"`
	// ReplayedTuples counts tuples re-processed from migration buffers;
	// they are excluded from the latency percentiles above (their send
	// stamps are stale by the migration handshake's wall-time).
	ReplayedTuples int64 `json:"replayed_tuples,omitempty"`
	// SplitKeys is the number of currently split keys (hot keys whose
	// stores salt across several instances); KeysSplit / KeysUnsplit
	// count activations and cooldowns over the run. ResidualKeys gauges
	// cooled keys whose drain round is still open (salted shares not yet
	// expired everywhere); KeysRetired counts keys whose drain completed —
	// routing unfroze and the key left the split table entirely. All zero
	// unless Migration.SplitThreshold is set.
	SplitKeys    int64 `json:"split_keys,omitempty"`
	KeysSplit    int64 `json:"keys_split,omitempty"`
	KeysUnsplit  int64 `json:"keys_unsplit,omitempty"`
	ResidualKeys int64 `json:"residual_keys,omitempty"`
	KeysRetired  int64 `json:"keys_retired,omitempty"`
	// SplitProbeCopies counts the probe copies sent to instances other
	// than a split key's owner, both sides summed (/metrics has them per
	// side): the fan-out a split costs.
	SplitProbeCopies int64 `json:"split_probe_copies,omitempty"`
	// StoreReservedBytes is the memory the join instances' stores hold on to
	// (chunk slabs, indexes, expiry heaps), summed over every instance's
	// latest load report; StoreLiveBytes is the part of it that is resident
	// tuples. Their ratio is the store's overhead per stored byte; /metrics
	// breaks both down per instance (fastjoin_store_bytes).
	StoreReservedBytes int64 `json:"store_reserved_bytes"`
	StoreLiveBytes     int64 `json:"store_live_bytes"`
	// Heap/GC gauges (biclique.SystemMetrics.RuntimeSample): live heap at
	// the snapshot, cumulative allocation, and GC work since the system's
	// metrics were created. The arena store exists to push AllocBytes and
	// GCPauseTotalUs down; these make that visible per run.
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	AllocBytes     uint64  `json:"alloc_bytes"`
	GCCycles       uint32  `json:"gc_cycles"`
	GCPauseTotalUs float64 `json:"gc_pause_total_us"`
}

// String renders a one-line summary.
func (st Stats) String() string {
	s := fmt.Sprintf("%s: results=%d lat(mean)=%.0fµs lat(p99)=%.0fµs stored=%d/%d migrations=%d (keys=%d tuples=%d)",
		st.System, st.Results, st.LatencyMeanUs, st.LatencyP99Us,
		st.StoredR, st.StoredS, st.Migrations, st.MigratedKeys, st.MigratedTuples)
	if st.KeysSplit > 0 {
		s += fmt.Sprintf(" splits=%d (active=%d residual=%d retired=%d)", st.KeysSplit, st.SplitKeys, st.ResidualKeys, st.KeysRetired)
	}
	return s
}

// Stats snapshots the system's counters.
func (s *System) Stats() Stats {
	m := s.sys.Metrics()
	lat := m.Latency.Snapshot()
	rt := m.RuntimeSample()
	var storeReserved, storeLive int64
	for _, side := range []Side{R, S} {
		for _, fp := range m.StoreFootprints(side) {
			storeReserved += fp.Reserved
			storeLive += fp.Live
		}
	}
	return Stats{
		System:         s.kind.String(),
		Results:        m.Results.Count(),
		LatencySamples: lat.Count,
		LatencyMeanUs:  lat.Mean / 1e3,
		LatencyP95Us:   float64(lat.P95) / 1e3,
		LatencyP99Us:   float64(lat.P99) / 1e3,
		StoredR:        m.StoredR.Value(),
		StoredS:        m.StoredS.Value(),
		Migrations:     m.Migrations.Value(),
		MigratedKeys:   m.MigratedKeys.Value(),
		MigratedTuples: m.MigratedTuples.Value(),
		ReplayedTuples: m.ReplayedTuples.Count(),
		SplitKeys:      m.SplitKeys.Value(),
		KeysSplit:      m.KeysSplit.Value(),
		KeysUnsplit:    m.KeysUnsplit.Value(),
		ResidualKeys:   m.ResidualKeys.Value(),
		KeysRetired:    m.KeysRetired.Value(),
		SplitProbeCopies: m.SplitProbeCopies[stream.R].Value() +
			m.SplitProbeCopies[stream.S].Value(),

		StoreReservedBytes: storeReserved,
		StoreLiveBytes:     storeLive,

		HeapAllocBytes: rt.HeapAllocBytes,
		AllocBytes:     rt.AllocBytes,
		GCCycles:       rt.GCCycles,
		GCPauseTotalUs: float64(rt.GCPauseTotal) / 1e3,
	}
}
