// Package sim is a deterministic discrete-event simulator of the
// join-biclique system at cluster scale. It complements the live runtime
// (package biclique): where the live system proves protocol correctness on
// real concurrent executions, the simulator reproduces the paper's
// *performance* experiments at their original scale — 48 join instances,
// millions of tuples — on any host, in virtual time, with exact latency
// accounting and no scheduler noise.
//
// Model: an open queueing network (Storm-like, unbounded queues). Every
// join instance is a server with a virtual service rate; a store costs 1
// op, a probe costs ProbeBase + MatchCost per matching stored tuple. The
// dispatcher routes with the same strategies as the live system
// (internal/routing), the monitors run the same core.Monitor policy, and
// migrations use the same key selection algorithms (core.GreedyFit /
// core.SAFit) fed with the simulated per-key statistics. A migration
// charges both endpoints transfer work, models the paper's Algorithm 2
// disruption.
package sim

import (
	"fmt"

	"fastjoin/internal/core"
	"fastjoin/internal/stream"
	"fastjoin/internal/workload"
)

// Strategy mirrors the live system's partitioning strategies.
type Strategy uint8

const (
	// StrategyHash is key-hash partitioning (FastJoin's substrate).
	StrategyHash Strategy = iota
	// StrategyContRand is BiStream's hybrid routing.
	StrategyContRand
	// StrategyRandom is the broadcast baseline.
	StrategyRandom
)

// Config parameterizes one simulation run.
type Config struct {
	// Instances is the number of join instances per biclique side
	// (the paper's default is 48).
	Instances int
	// ServiceRate is each instance's capacity in ops/second.
	ServiceRate float64
	// ProbeBase and MatchCost shape the per-probe cost:
	// ProbeBase + MatchCost * |R_k|. Defaults 0.2 and 0.01.
	ProbeBase float64
	MatchCost float64
	// ArrivalRate is the offered load in tuples/second.
	ArrivalRate float64
	// Duration is the simulated time span in seconds.
	Duration float64
	// WindowSpan bounds the join window in seconds (0 = full history).
	WindowSpan float64
	// StatsInterval is the monitor/report period in seconds (default 0.1).
	StatsInterval float64
	// Strategy selects the partitioning scheme.
	Strategy Strategy
	// SubgroupSize is ContRand's subgroup size (default 2).
	SubgroupSize int

	// Migration enables FastJoin's dynamic load balancing (hash only).
	Migration bool
	// Policy is the monitor policy; zero fields take core defaults, with
	// durations interpreted by the monitor in wall-clock terms mapped
	// onto virtual time.
	Theta            float64 // default 2.2
	CooldownSec      float64 // default 1.0
	SustainTicks     int     // default 3
	TargetProtectSec float64 // default 2 * cooldown
	MinBenefit       int64   // θ_gap, default 1
	// TransferCost is the virtual ops charged per migrated tuple at both
	// endpoints (default 1).
	TransferCost float64
	// Selector picks the key set (nil = core.GreedyFit).
	Selector core.Selector

	// SamplerR and SamplerS draw the join keys of the two streams; SPerR
	// is the S:R rate ratio (default 1).
	SamplerR workload.Sampler
	SamplerS workload.Sampler
	SPerR    int

	// SampleEvery is the metrics sampling period in seconds (default 0.5).
	SampleEvery float64
	// Seed derandomizes placement.
	Seed uint64

	// Chaos emulates the live system's fault drills in the load model.
	Chaos Chaos
}

// Chaos configures the simulator's fault emulation. The simulator has no
// message lanes to drop packets on, so it models the *load effects* of the
// live chaos profiles instead: message delays become periodic instance
// stalls. Dropped and duplicated control messages have no load effect —
// the live system re-sends and dedups them, and every migration still
// ends by commit. All draws come from the run's Seed, so a simulation
// replays exactly.
type Chaos struct {
	// StallProb is the per-instance, per-stats-tick probability of a
	// stall; StallSec is the stall length in virtual seconds
	// (default 0.05 when StallProb is set).
	StallProb float64
	StallSec  float64
}

func (c Chaos) enabled() bool { return c.StallProb > 0 }

// ChaosPreset maps the live chaos profile names (chaos.Names) onto
// simulator knobs, so `fastjoin-sim -chaos mixed` drills the same
// scenarios the live suite replays.
func ChaosPreset(name string) (Chaos, error) {
	switch name {
	case "", "none", "droponly", "duponly":
		// Drops are re-sent and duplicates absorbed by epoch dedup; the
		// live system shows neither as load.
		return Chaos{}, nil
	case "delayonly":
		return Chaos{StallProb: 0.2, StallSec: 0.05}, nil
	case "mixed":
		return Chaos{StallProb: 0.1, StallSec: 0.05}, nil
	default:
		return Chaos{}, fmt.Errorf("sim: unknown chaos preset %q", name)
	}
}

func (c *Config) validate() error {
	if c.Instances <= 0 {
		return fmt.Errorf("sim: Instances must be > 0")
	}
	if c.ServiceRate <= 0 {
		return fmt.Errorf("sim: ServiceRate must be > 0")
	}
	if c.ArrivalRate <= 0 {
		return fmt.Errorf("sim: ArrivalRate must be > 0")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: Duration must be > 0")
	}
	if c.SamplerR == nil || c.SamplerS == nil {
		return fmt.Errorf("sim: both stream samplers are required")
	}
	if c.Migration && c.Strategy != StrategyHash {
		return fmt.Errorf("sim: migration requires StrategyHash")
	}
	if c.ProbeBase <= 0 {
		c.ProbeBase = 0.2
	}
	if c.MatchCost <= 0 {
		c.MatchCost = 0.01
	}
	if c.StatsInterval <= 0 {
		c.StatsInterval = 0.1
	}
	if c.SubgroupSize <= 0 {
		c.SubgroupSize = 2
	}
	if c.SubgroupSize > c.Instances {
		c.SubgroupSize = c.Instances
	}
	if c.Theta <= 1 {
		c.Theta = 2.2
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = 1.0
	}
	if c.SustainTicks <= 0 {
		c.SustainTicks = 3
	}
	if c.TargetProtectSec <= 0 {
		c.TargetProtectSec = 2 * c.CooldownSec
	}
	if c.MinBenefit <= 0 {
		c.MinBenefit = 1
	}
	if c.TransferCost <= 0 {
		c.TransferCost = 1
	}
	if c.Selector == nil {
		c.Selector = core.GreedyFit
	}
	if c.SPerR <= 0 {
		c.SPerR = 1
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 0.5
	}
	if c.Chaos.StallProb < 0 || c.Chaos.StallProb > 1 {
		return fmt.Errorf("sim: chaos stall probability must be in [0,1]")
	}
	if c.Chaos.StallProb > 0 && c.Chaos.StallSec <= 0 {
		c.Chaos.StallSec = 0.05
	}
	return nil
}

// Sample is one point of a simulated time series.
type Sample struct {
	T     float64 `json:"t"`
	Value float64 `json:"value"`
}

// Result summarizes one simulation run.
type Result struct {
	// Ingested counts offered tuples; Processed counts completed tasks
	// (stores + probes); Results counts joined pairs.
	Ingested  int64
	Processed int64
	Results   int64
	// MeanLatencySec and P99LatencySec are probe sojourn times
	// (enqueue to completion), exact.
	MeanLatencySec float64
	P99LatencySec  float64
	// Throughput and LI time series, sampled every SampleEvery.
	Throughput []Sample
	LI         []Sample
	// MeanThroughput is the tail mean of the throughput series.
	MeanThroughput float64
	// SteadyLI is the tail mean of the LI series.
	SteadyLI float64
	// Migrations / MigratedKeys / MigratedTuples count balancing activity.
	Migrations     int
	MigratedKeys   int64
	MigratedTuples int64
	// FinalLoads is each R-side instance's load at the end.
	FinalLoads []int64
}

// event kinds.
type evKind uint8

const (
	evArrival evKind = iota
	evComplete
	evStats
	evSample
)

// event is one scheduled occurrence.
type event struct {
	at   float64
	seq  int64 // tie-break for determinism
	kind evKind
	inst *instance // for evComplete
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// task is one unit of work queued at an instance. A zero cost means "use
// the store/probe cost model"; a positive cost is synthetic work (the
// migration transfer charge).
type task struct {
	key      stream.Key
	store    bool // store (own stream) vs probe (opposite stream)
	cost     float64
	enqueued float64
}

// instance is one simulated join instance of one side.
type instance struct {
	side stream.Side
	id   int

	queue   []task // FIFO; head at index qHead
	qHead   int
	busy    bool
	current task

	// Load accounting.
	storedTotal  int64
	storedPerKey map[stream.Key]int64
	probeIntvl   int64
	probePerKey  map[stream.Key]int64
	probePrev    map[stream.Key]int64
	probeEWMA    float64

	// Window expiry: ring of per-bucket admission maps.
	buckets []bucket
}

type bucket struct {
	start  float64
	counts map[stream.Key]int64
}

func (in *instance) queueLen() int { return len(in.queue) - in.qHead }

func (in *instance) popTask() (task, bool) {
	if in.qHead >= len(in.queue) {
		return task{}, false
	}
	t := in.queue[in.qHead]
	in.qHead++
	// Compact occasionally so memory stays bounded.
	if in.qHead > 4096 && in.qHead*2 > len(in.queue) {
		n := copy(in.queue, in.queue[in.qHead:])
		in.queue = in.queue[:n]
		in.qHead = 0
	}
	return t, true
}
