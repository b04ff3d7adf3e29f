package biclique

import (
	"fmt"
	"time"

	"fastjoin/internal/chaos"
	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
	"fastjoin/internal/window"
)

// Strategy selects the partitioning scheme of the dispatcher.
type Strategy uint8

const (
	// StrategyHash is key-hash partitioning: each key has exactly one
	// owner instance per side; stores and probes for the key go there.
	// This is BiStream's hash partitioning and the mode FastJoin's
	// migration operates in (migration rewrites the key -> owner map).
	StrategyHash Strategy = iota
	// StrategyContRand is BiStream's hybrid routing: keys are statically
	// hashed to a subgroup of instances; a tuple is stored on a random
	// member of its key's subgroup and probes are broadcast to the whole
	// subgroup. Static load spreading at the cost of replicated probes.
	StrategyContRand
	// StrategyRandom stores each tuple on a random instance of its side
	// and broadcasts every probe to all instances of the opposite group
	// (the paper's random partitioning baseline).
	StrategyRandom
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case StrategyHash:
		return "hash"
	case StrategyContRand:
		return "contrand"
	case StrategyRandom:
		return "random"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// TupleSource produces the input tuples of one spout task. It returns
// ok=false when exhausted. Sources must be safe to call from the spout's
// goroutine only (no extra synchronization needed).
type TupleSource func() (t stream.Tuple, ok bool)

// StoreImpl selects the window-store implementation of the join instances.
type StoreImpl uint8

const (
	// StoreChunked is the chunked arena store (the default): slab-backed
	// per-key chunk chains with an open-addressing index and O(expired)
	// expiry. See DESIGN.md "Store memory layout".
	StoreChunked StoreImpl = iota
	// StoreMap is the map[Key][]Tuple reference store — the differential
	// oracle and the A/B baseline of the bench `store` experiment.
	StoreMap
)

// String names the store implementation as the bench flags do.
func (s StoreImpl) String() string {
	switch s {
	case StoreChunked:
		return "chunked"
	case StoreMap:
		return "map"
	default:
		return fmt.Sprintf("StoreImpl(%d)", uint8(s))
	}
}

// newStore builds one join instance's window store per the config.
func newStore(cfg *Config) window.Store {
	switch {
	case cfg.Window > 0 && cfg.StoreImpl == StoreMap:
		return window.NewRefWindowed(cfg.Window.Nanoseconds(), cfg.SubWindows)
	case cfg.Window > 0:
		return window.NewWindowed(cfg.Window.Nanoseconds(), cfg.SubWindows)
	case cfg.StoreImpl == StoreMap:
		return window.NewRef()
	default:
		return window.New()
	}
}

// MigrationConfig controls FastJoin's dynamic load balancing. Each side
// runs at most one migration at a time: the side's monitor numbers its
// decisions and issues the next one only after a load report says the
// previous one finished at both ends.
type MigrationConfig struct {
	// Enabled turns the monitors' migration triggers on. With it off the
	// system behaves exactly like BiStream under the same strategy.
	Enabled bool
	// Policy is the monitor trigger policy (Θ threshold, cooldown).
	Policy core.MonitorPolicy
	// Selector picks the key set to migrate; nil means core.GreedyFit.
	Selector core.Selector
	// MinBenefit is θ_gap for GreedyFit.
	MinBenefit int64
}

// SplitConfig controls hot-key splitting: the side monitors' work-driven
// split decision and the salted split routing it switches hot keys to.
// Splitting is the escape hatch for the one workload whole-key migration
// cannot fix — a single key hotter than one instance's fair share.
type SplitConfig struct {
	// Enabled turns splitting on: a key whose metered join work, summed
	// over a side, clearly exceeds an instance's fair share of that side's
	// work is split (monitorBolt.decideSplits), and un-splits once below
	// half the fair share. Requires StrategyHash.
	Enabled bool
	// Ways is how many instances per side a split key's stores are salted
	// over (and its probes broadcast to). Default min(4, JoinersPerSide).
	Ways int
}

// DefaultBatchSize is the shuffler and dispatcher lane capacity used when
// Config.BatchSize is zero.
const DefaultBatchSize = 32

// Config parameterizes a biclique join system.
type Config struct {
	// JoinersPerSide is the number of join instances in each group
	// (the paper's experiments vary 16-64; laptop-scale defaults are
	// smaller).
	JoinersPerSide int
	// Dispatchers is the parallelism of the dispatcher bolt.
	Dispatchers int
	// Shufflers is the parallelism of the pre-processing bolt.
	Shufflers int
	// Strategy is the partitioning scheme.
	Strategy Strategy
	// SubgroupSize is the ContRand subgroup size (default 2; clamped to
	// JoinersPerSide).
	SubgroupSize int
	// Migration configures FastJoin's dynamic load balancing (only
	// meaningful under StrategyHash).
	Migration MigrationConfig
	// Split configures hot-key splitting (only meaningful under
	// StrategyHash; composes with Migration — split keys are excluded
	// from migration key selection).
	Split SplitConfig
	// StatsInterval is how often join instances report load and monitors
	// evaluate (default 100ms).
	StatsInterval time.Duration
	// BatchSize is the lane capacity of the shuffler (per dispatcher task)
	// and the dispatcher (per side and target): up to BatchSize tuples
	// travel as one ShuffleBatch or TupleBatch message (one channel send,
	// one boxed value for the whole group). 0 means the default
	// (DefaultBatchSize); 1 ships every tuple in a batch of its own.
	BatchSize int
	// BatchLinger bounds how long a partially filled batch may sit in the
	// dispatcher under light load before a tick flushes it (default 2ms).
	// Idle dispatchers flush eagerly regardless — the linger only matters
	// while the task stays busy with other lanes' traffic.
	BatchLinger time.Duration
	// StoreImpl selects the join instances' window-store implementation:
	// StoreChunked (the default arena store) or StoreMap (the reference
	// layout, kept for A/B benchmarking and differential testing).
	StoreImpl StoreImpl
	// Window is the join window span; zero means full-history join.
	Window time.Duration
	// SubWindows is the number of sub-windows when Window > 0 (default 8).
	SubWindows int
	// Predicate optionally refines key-equality matches.
	Predicate stream.Predicate
	// PreProcess, when set, is applied to every tuple by the shuffler
	// (the paper's pre-processing unit supports "ordering or certain
	// user-defined functions"); it may rewrite keys or payloads. It runs
	// on the shuffler's goroutines and must be safe for concurrent use.
	PreProcess func(stream.Tuple) stream.Tuple
	// EmitResults — when true every joined pair is delivered to OnResult
	// via the sink bolt (needed for correctness checks). When false the
	// joiners only count pairs (the high-throughput mode used by the
	// benchmarks, where emitting every pair would dominate).
	EmitResults bool
	// OnResult receives joined pairs when EmitResults is set. Called from
	// the sink bolt's goroutine.
	OnResult func(stream.JoinedPair)
	// Sources feed the system; one spout task per source.
	Sources []TupleSource
	// Engine tunes queue capacities.
	Engine engine.Config
	// Chaos, when set, injects deterministic faults (drops, duplicates,
	// delays, stalls) into the control-plane traffic per the injector's
	// profile. Wired into Engine.Inject/Engine.Stall at Start unless those
	// are already set explicitly.
	Chaos *chaos.Injector
	// Tracer, when set, receives typed control-plane trace events from the
	// migration protocol: trigger with LI/Θ, key selection with benefit,
	// routing fence, marker handshake, flush, replay and commit.
	// Only migration-control messages emit events — never per-tuple work —
	// so tracing is cheap enough to leave on in production.
	Tracer *obs.Tracer
	// Seed derandomizes hash placement and the random strategies.
	Seed uint64

	// ServiceRate, when positive, emulates the per-node compute capacity
	// of a real cluster: each join instance processes at most ServiceRate
	// virtual ops per second (sleeping off any surplus), where a store
	// costs 1 op and a probe 0.2 ops plus MatchCost per scanned tuple.
	// These ops are also the unit of the split decision's work meter.
	// This is the capacity model the benchmark harness uses so that the
	// paper's cluster experiments reproduce on hosts with few cores: an
	// overloaded instance saturates its own budget and backpressures,
	// while balanced instances run concurrently in virtual time.
	// Zero disables the emulation (instances run at host speed).
	ServiceRate float64
	// MatchCost is the virtual op cost per scanned stored tuple during a
	// probe (default 0.01 when ServiceRate is set).
	MatchCost float64
}

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if c.JoinersPerSide <= 0 {
		return fmt.Errorf("biclique: JoinersPerSide must be > 0")
	}
	if len(c.Sources) == 0 {
		return fmt.Errorf("biclique: at least one tuple source is required")
	}
	for i, src := range c.Sources {
		if src == nil {
			return fmt.Errorf("biclique: source %d is nil", i)
		}
	}
	if c.EmitResults && c.OnResult == nil {
		return fmt.Errorf("biclique: EmitResults requires OnResult")
	}
	if c.Strategy > StrategyRandom {
		// Converted from a panic in newRouter: an out-of-range strategy now
		// surfaces as a Start error instead of killing the dispatcher task.
		return fmt.Errorf("biclique: unknown strategy %v", c.Strategy)
	}
	if c.Strategy != StrategyHash && c.Migration.Enabled {
		return fmt.Errorf("biclique: migration requires StrategyHash, not %v", c.Strategy)
	}
	if c.Window < 0 {
		return fmt.Errorf("biclique: negative window")
	}
	if c.StoreImpl > StoreMap {
		return fmt.Errorf("biclique: unknown store implementation %v", c.StoreImpl)
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = 2
	}
	if c.Shufflers <= 0 {
		c.Shufflers = 2
	}
	if c.SubgroupSize <= 0 {
		c.SubgroupSize = 2
	}
	if c.SubgroupSize > c.JoinersPerSide {
		c.SubgroupSize = c.JoinersPerSide
	}
	if c.StatsInterval <= 0 {
		c.StatsInterval = 100 * time.Millisecond
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("biclique: negative BatchSize")
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchLinger <= 0 {
		c.BatchLinger = 2 * time.Millisecond
	}
	if c.Window > 0 && c.SubWindows <= 0 {
		c.SubWindows = 8
	}
	if c.ServiceRate < 0 {
		return fmt.Errorf("biclique: negative ServiceRate")
	}
	if c.ServiceRate > 0 && c.MatchCost <= 0 {
		c.MatchCost = 0.01
	}
	if c.Split.Enabled {
		if c.Strategy != StrategyHash {
			return fmt.Errorf("biclique: hot-key splitting requires StrategyHash, not %v", c.Strategy)
		}
		if c.Split.Ways <= 0 {
			c.Split.Ways = 4
		}
		c.Split.Ways = min(c.Split.Ways, c.JoinersPerSide)
	}
	if c.Migration.Enabled {
		if c.Migration.Selector == nil {
			c.Migration.Selector = core.GreedyFit
		}
		if c.Migration.MinBenefit <= 0 {
			// θ_gap: keys whose migration benefit is zero are pure routing
			// churn; skip them by default.
			c.Migration.MinBenefit = 1
		}
	}
	return nil
}

// Component names of the topology, exported for inspection via
// System.Cluster().Stats.
const (
	CompSpout      = "spout"
	CompShuffler   = "shuffler"
	CompDispatcher = "dispatcher"
	CompJoinerR    = "joinerR"
	CompJoinerS    = "joinerS"
	CompMonitorR   = "monitorR"
	CompMonitorS   = "monitorS"
	CompSink       = "sink"
)

// joinerComp returns the component name of the group that stores the given
// side's tuples.
func joinerComp(side stream.Side) string {
	if side == stream.R {
		return CompJoinerR
	}
	return CompJoinerS
}

// Stream names between components.
const (
	streamTuples   = "tuples"   // spout -> shuffler -> dispatcher
	streamToR      = "toR"      // dispatcher -> joinerR (direct)
	streamToS      = "toS"      // dispatcher -> joinerS (direct)
	streamResults  = "results"  // joiners -> sink
	streamLoadR    = "loadR"    // joinerR -> monitorR (ctrl)
	streamLoadS    = "loadS"    // joinerS -> monitorS (ctrl)
	streamCmdR     = "cmdR"     // monitorR -> joinerR (direct ctrl)
	streamCmdS     = "cmdS"     // monitorS -> joinerS (direct ctrl)
	streamMigR     = "migR"     // joinerR -> joinerR (direct ctrl)
	streamMigS     = "migS"     // joinerS -> joinerS (direct ctrl)
	streamSplitR   = "splitR"   // dispatcher -> joinerR (direct ctrl): split intents
	streamSplitS   = "splitS"   // dispatcher -> joinerS (direct ctrl): split intents
	streamRouteUpd = "routeupd" // joiners -> all dispatchers (ctrl)
	streamHot      = "hot"      // monitors -> all dispatchers (ctrl): hot sets
)

// tupleStream returns the dispatcher->joiner stream for a side.
func tupleStream(side stream.Side) string {
	if side == stream.R {
		return streamToR
	}
	return streamToS
}

// loadStream returns the joiner->monitor load stream for a side.
func loadStream(side stream.Side) string {
	if side == stream.R {
		return streamLoadR
	}
	return streamLoadS
}

// cmdStream returns the monitor->joiner command stream for a side.
func cmdStream(side stream.Side) string {
	if side == stream.R {
		return streamCmdR
	}
	return streamCmdS
}

// splitStream returns the dispatcher->joiner split-intent stream for a
// side. Intents ride a control lane, not the data lane: an intent has no
// ordering role (only the fenced SplitMark starts multi-copy routing),
// and a control lane lets a backlogged owner ack while the key is still
// hot — on a data lane the ack could trail the entire backlog and arrive
// after the key has cooled and the pending was abandoned.
func splitStream(side stream.Side) string {
	if side == stream.R {
		return streamSplitR
	}
	return streamSplitS
}

// migStream returns the joiner->joiner migration stream for a side.
func migStream(side stream.Side) string {
	if side == stream.R {
		return streamMigR
	}
	return streamMigS
}
