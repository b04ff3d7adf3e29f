package fastjoin

import (
	"fmt"
	"time"

	"fastjoin/internal/obs"
)

// StoreKind selects the join instances' window-store implementation.
type StoreKind uint8

const (
	// StoreChunked is the chunked arena store (the default): slab-backed
	// per-key chunk chains with O(expired) expiry.
	StoreChunked StoreKind = iota
	// StoreMap is the map[Key][]Tuple reference layout, kept for A/B
	// benchmarking and differential testing.
	StoreMap
)

// String names the store kind.
func (k StoreKind) String() string {
	switch k {
	case StoreChunked:
		return "chunked"
	case StoreMap:
		return "map"
	default:
		return fmt.Sprintf("StoreKind(%d)", uint8(k))
	}
}

// ChaosProfile selects a deterministic fault-injection profile. The zero
// value is ChaosNone: no injector is attached.
type ChaosProfile uint8

const (
	// ChaosNone runs without fault injection.
	ChaosNone ChaosProfile = iota
	// ChaosDropOnly drops control-plane messages.
	ChaosDropOnly
	// ChaosDelayOnly delays (and thereby reorders) control messages.
	ChaosDelayOnly
	// ChaosDupOnly duplicates control messages.
	ChaosDupOnly
	// ChaosMixed combines drops, delays, duplicates, and task stalls.
	ChaosMixed
	// ChaosAbortStorm targets the marker handshake to force migration
	// aborts and rollbacks.
	ChaosAbortStorm
)

var chaosProfileNames = map[ChaosProfile]string{
	ChaosNone:       "none",
	ChaosDropOnly:   "droponly",
	ChaosDelayOnly:  "delayonly",
	ChaosDupOnly:    "duponly",
	ChaosMixed:      "mixed",
	ChaosAbortStorm: "abortstorm",
}

// String names the profile as the -chaos flag and chaos.Lookup do.
func (p ChaosProfile) String() string {
	if name, ok := chaosProfileNames[p]; ok {
		return name
	}
	return fmt.Sprintf("ChaosProfile(%d)", uint8(p))
}

// ParseChaosProfile parses a -chaos flag value; "" and "none" both mean
// no injection.
func ParseChaosProfile(s string) (ChaosProfile, error) {
	if s == "" {
		return ChaosNone, nil
	}
	for p, name := range chaosProfileNames {
		if name == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fastjoin: unknown chaos profile %q", s)
}

// MigrationOptions tunes FastJoin's dynamic load balancing. Only
// meaningful for the migration-enabled kinds (KindFastJoin,
// KindFastJoinSAFit); zero values get the paper's defaults.
type MigrationOptions struct {
	// Theta is the load imbalance threshold Θ (default 2.2, the paper's).
	Theta float64
	// Cooldown is the minimum time between migrations (default 1s).
	Cooldown time.Duration
	// SustainTicks is how many consecutive monitor evaluations must see
	// LI > Theta before a migration triggers (default 3); 1 disables the
	// hysteresis.
	SustainTicks int
	// MinBenefit is GreedyFit's θ_gap (default 1).
	MinBenefit int64
	// AbortTimeout bounds a migration's marker handshake: if the forward
	// markers have not all arrived after this long (measured in
	// StatsInterval ticks), the migration aborts and rolls back to the
	// pre-migration routing without losing or duplicating results.
	// 0 disables aborts (a stuck handshake then relies on re-broadcast
	// alone).
	AbortTimeout time.Duration
	// SplitThreshold enables hot-key splitting: a key whose share of its
	// dispatcher task's traffic exceeds this fraction (per detector
	// epoch) is split — its stored tuples salt across SplitWays join
	// instances and probes fan out to all of them — instead of being
	// migrated whole, which cannot help a single key hotter than an
	// entire instance's fair share. 0 (the default) disables splitting;
	// the valid range is (0, 1]. FastJoin kinds only.
	SplitThreshold float64
	// SplitWays is how many instances per side a split key salts across
	// (default 4, clamped to Joiners).
	SplitWays int
}

// BatchOptions tunes the data plane's batches.
type BatchOptions struct {
	// Size is the lane capacity of the shuffler and the dispatcher: up to
	// Size tuples travel as one message. 0 means the default
	// (DefaultBatchSize); 1 ships every tuple in a batch of its own.
	Size int
	// Linger bounds how long a partially filled batch may wait in a busy
	// dispatcher before a tick flushes it (default 2ms).
	Linger time.Duration
}

// WindowOptions enables window-based join semantics.
type WindowOptions struct {
	// Span is the join window; 0 means full-history join.
	Span time.Duration
	// SubWindows is the sub-window count when Span > 0 (default 8).
	SubWindows int
}

// ChaosOptions attaches a deterministic fault injector — for testing and
// fault drills only.
type ChaosOptions struct {
	// Profile selects what to inject (default ChaosNone: nothing).
	Profile ChaosProfile
	// Seed seeds the injector's per-lane random streams, so a run
	// replays exactly.
	Seed int64
}

// ObserveOptions configures the live observability plane: the
// control-plane migration tracer and the HTTP metrics endpoint.
type ObserveOptions struct {
	// Addr is the HTTP listen address of the observability endpoint
	// (e.g. ":9144", or "127.0.0.1:0" for an ephemeral port — read the
	// bound address back with System.ObserveAddr). It serves /metrics
	// (Prometheus text format), /stats.json, /trace.json, and
	// /debug/pprof. Empty disables the endpoint; the tracer still runs
	// and System.Trace still works.
	Addr string
	// TraceCapacity is the control-plane trace ring's capacity in events
	// (default 4096). The ring is bounded: under an event storm the
	// oldest events are evicted, never allocated around.
	TraceCapacity int
}

// Options configures a join system. Zero values get sensible defaults;
// Validate (called by New) normalizes them all in one place.
type Options struct {
	// Kind selects the system (default KindFastJoin).
	Kind Kind
	// Joiners is the number of join instances per biclique side
	// (default 4; the paper's cluster default is 48).
	Joiners int
	// Dispatchers and Shufflers size the dispatching component (default 2
	// each).
	Dispatchers int
	Shufflers   int
	// SubgroupSize is ContRand's subgroup size (default 2).
	SubgroupSize int
	// StatsInterval is the load-report/monitor period (default 100ms).
	StatsInterval time.Duration
	// Predicate optionally refines key-equality matches.
	Predicate Predicate
	// PreProcess, when set, rewrites every tuple before dispatching (the
	// pre-processing unit's user-defined function). Must be safe for
	// concurrent use.
	PreProcess func(Tuple) Tuple
	// OnResult, when set, receives every joined pair (result emission
	// mode). When nil the system only counts pairs — the high-throughput
	// mode benchmarks use.
	OnResult func(JoinedPair)
	// Sources feed the system; one ingestion task per source. Required.
	Sources []TupleSource
	// QueueSize bounds each task's input queue (backpressure;
	// default 1024).
	QueueSize int
	// ServiceRate, when positive, emulates per-node compute capacity:
	// each join instance is limited to ServiceRate virtual ops/second
	// (1 op per store, 1 + MatchCost per scanned tuple per probe). The
	// benchmark harness uses it so cluster-scale behaviour reproduces on
	// small hosts; 0 disables the emulation.
	ServiceRate float64
	// MatchCost is the virtual op cost per scanned stored tuple
	// (default 0.01 when ServiceRate is set).
	MatchCost float64
	// Seed derandomizes placement.
	Seed uint64
	// StoreKind selects the window-store implementation (default
	// StoreChunked).
	StoreKind StoreKind

	// Migration tunes the dynamic load balancer of the migration-enabled
	// kinds.
	Migration MigrationOptions
	// Batching tunes the data plane's batches.
	Batching BatchOptions
	// Windowing enables window-based join semantics.
	Windowing WindowOptions
	// Chaos attaches a deterministic fault injector.
	Chaos ChaosOptions
	// Observe configures the migration tracer and the HTTP observability
	// endpoint.
	Observe ObserveOptions
}

// Validate fills every default in one place and rejects invalid
// combinations. New calls it on its own copy; callers may also invoke it
// directly to inspect the effective configuration. It is idempotent.
func (o *Options) Validate() error {
	// Validation.
	if o.Kind > KindBroadcast {
		return fmt.Errorf("fastjoin: unknown system kind %v", o.Kind)
	}
	if _, ok := chaosProfileNames[o.Chaos.Profile]; !ok {
		return fmt.Errorf("fastjoin: unknown chaos profile %v", o.Chaos.Profile)
	}
	if o.StoreKind > StoreMap {
		return fmt.Errorf("fastjoin: unknown store kind %v", o.StoreKind)
	}
	if o.Batching.Size < 0 {
		return fmt.Errorf("fastjoin: negative batch size")
	}
	if o.Windowing.Span < 0 {
		return fmt.Errorf("fastjoin: negative window span")
	}
	if o.ServiceRate < 0 {
		return fmt.Errorf("fastjoin: negative ServiceRate")
	}
	if o.Migration.SplitThreshold < 0 || o.Migration.SplitThreshold > 1 {
		return fmt.Errorf("fastjoin: SplitThreshold %v outside (0, 1]", o.Migration.SplitThreshold)
	}
	if o.Migration.SplitThreshold > 0 && o.Kind != KindFastJoin && o.Kind != KindFastJoinSAFit {
		return fmt.Errorf("fastjoin: SplitThreshold requires a FastJoin kind (hot-key splitting rides the migration machinery)")
	}

	// Defaults, normalized here instead of scattering them across New and
	// biclique.Config.Validate (which still backstops direct users of the
	// internal package).
	if o.Joiners <= 0 {
		o.Joiners = 4
	}
	if o.Dispatchers <= 0 {
		o.Dispatchers = 2
	}
	if o.Shufflers <= 0 {
		o.Shufflers = 2
	}
	if o.SubgroupSize <= 0 {
		o.SubgroupSize = 2
	}
	if o.StatsInterval <= 0 {
		o.StatsInterval = 100 * time.Millisecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.ServiceRate > 0 && o.MatchCost <= 0 {
		o.MatchCost = 0.01
	}
	if o.Batching.Size == 0 {
		o.Batching.Size = DefaultBatchSize
	}
	if o.Batching.Linger <= 0 {
		o.Batching.Linger = 2 * time.Millisecond
	}
	if o.Windowing.Span > 0 && o.Windowing.SubWindows <= 0 {
		o.Windowing.SubWindows = 8
	}
	if o.Kind == KindFastJoin || o.Kind == KindFastJoinSAFit {
		if o.Migration.Theta <= 1 {
			o.Migration.Theta = 2.2
		}
		if o.Migration.Cooldown <= 0 {
			o.Migration.Cooldown = time.Second
		}
		if o.Migration.SustainTicks <= 0 {
			o.Migration.SustainTicks = 3
		}
		if o.Migration.MinBenefit <= 0 {
			o.Migration.MinBenefit = 1
		}
	}
	if o.Observe.TraceCapacity <= 0 {
		o.Observe.TraceCapacity = obs.DefaultTraceCapacity
	}

	return nil
}
