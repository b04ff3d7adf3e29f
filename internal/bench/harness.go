package bench

import (
	"fmt"
	"time"

	"fastjoin"
)

// Params scales an experiment. Paper-scale values (48 instances, 30 GB) do
// not fit a laptop; the defaults reproduce the figures' shapes at small
// scale and every knob can be raised toward the paper's setting.
type Params struct {
	// Joiners is the default join instances per side (paper: 48).
	Joiners int
	// Duration is the length of each timed run (Figs. 3/4/11).
	Duration time.Duration
	// SampleEvery is the sampling period of time-series figures.
	SampleEvery time.Duration
	// TupleBudget is the input size of each batch run (sweep figures).
	TupleBudget int
	// Keys is the key-universe size of the ride-hailing workload.
	Keys int
	// Theta is the default load-imbalance threshold Θ (paper: 2.2).
	Theta float64
	// ServiceRate is the emulated per-instance compute capacity in virtual
	// ops/second (see fastjoin.Options.ServiceRate). It stands in for the
	// paper's per-node CPU so cluster behaviour reproduces on small hosts.
	ServiceRate float64
	// Seed derandomizes workloads and placement.
	Seed int64
	// Quick shrinks sweeps and durations for smoke tests.
	Quick bool
	// ChaosProfile, when not ChaosNone, runs every system under the named
	// chaos fault profile (fault drill mode); ChaosSeed seeds the
	// injector so a drill replays exactly.
	ChaosProfile fastjoin.ChaosProfile
	ChaosSeed    int64
	// Observe, when non-empty, binds each run's observability endpoint to
	// this address (e.g. "127.0.0.1:0") so a drill can be scraped live.
	Observe string
}

// DefaultParams returns the laptop-scale defaults.
func DefaultParams() Params {
	return Params{
		Joiners:     8,
		Duration:    4 * time.Second,
		SampleEvery: 500 * time.Millisecond,
		TupleBudget: 200_000,
		Keys:        10_000,
		Theta:       2.2,
		ServiceRate: 20_000,
		Seed:        7,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Joiners <= 0 {
		p.Joiners = d.Joiners
	}
	if p.Duration <= 0 {
		p.Duration = d.Duration
	}
	if p.SampleEvery <= 0 {
		p.SampleEvery = d.SampleEvery
	}
	if p.TupleBudget <= 0 {
		p.TupleBudget = d.TupleBudget
	}
	if p.Keys <= 0 {
		p.Keys = d.Keys
	}
	if p.Theta <= 1 {
		p.Theta = d.Theta
	}
	if p.ServiceRate <= 0 {
		p.ServiceRate = d.ServiceRate
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Quick {
		p.Duration = min(p.Duration, 1200*time.Millisecond)
		p.SampleEvery = min(p.SampleEvery, 200*time.Millisecond)
		p.TupleBudget = min(p.TupleBudget, 40_000)
		p.Keys = min(p.Keys, 2_000)
		p.Joiners = min(p.Joiners, 4)
	}
	return p
}

func min[T ~int | ~int64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// systems compared in most figures, in the paper's order.
var comparedSystems = []fastjoin.Kind{
	fastjoin.KindFastJoin,
	fastjoin.KindBiStreamContRand,
	fastjoin.KindBiStream,
}

// sysOptions builds the per-system options shared by all experiments.
func sysOptions(kind fastjoin.Kind, p Params, joiners int, sources []fastjoin.TupleSource) fastjoin.Options {
	return fastjoin.Options{
		Kind:          kind,
		Joiners:       joiners,
		Dispatchers:   4,
		Shufflers:     4,
		Sources:       sources,
		StatsInterval: 50 * time.Millisecond,
		ServiceRate:   p.ServiceRate,
		Seed:          uint64(p.Seed),
		Migration: fastjoin.MigrationOptions{
			Theta:        p.Theta,
			Cooldown:     500 * time.Millisecond,
			AbortTimeout: abortTimeoutFor(p),
		},
		Chaos: fastjoin.ChaosOptions{
			Profile: p.ChaosProfile,
			Seed:    p.ChaosSeed,
		},
		Observe: fastjoin.ObserveOptions{Addr: p.Observe},
	}
}

// Resolved returns the parameters with every default filled in, exactly
// as the experiments see them — what a JSON archive should record.
func (p Params) Resolved() Params { return p.withDefaults() }

// abortTimeoutFor enables migration abort-and-rollback whenever a bench
// run injects faults: with markers being dropped, a handshake can stall
// forever without it. Clean runs keep 0 (abort path disabled) so the
// baseline numbers are untouched.
func abortTimeoutFor(p Params) time.Duration {
	if p.ChaosProfile == fastjoin.ChaosNone {
		return 0
	}
	return 2 * time.Second
}

// BatchResult is the outcome of one finite run.
type BatchResult struct {
	Kind          fastjoin.Kind
	Results       int64
	Elapsed       time.Duration
	Throughput    float64 // results per second
	LatencyMeanUs float64
	LatencyP99Us  float64
	Migrations    int64
	FinalLI       float64
}

// runBatch pushes a finite workload through one system and measures it.
func runBatch(kind fastjoin.Kind, opts fastjoin.Options) (BatchResult, error) {
	start := time.Now()
	sys, err := fastjoin.New(opts)
	if err != nil {
		return BatchResult{}, err
	}
	if err := sys.WaitComplete(10 * time.Minute); err != nil {
		sys.Stop()
		return BatchResult{}, err
	}
	elapsed := time.Since(start)
	sys.Stop()
	st := sys.Stats()
	res := BatchResult{
		Kind:          kind,
		Results:       st.Results,
		Elapsed:       elapsed,
		Throughput:    float64(st.Results) / elapsed.Seconds(),
		LatencyMeanUs: st.LatencyMeanUs,
		LatencyP99Us:  st.LatencyP99Us,
		Migrations:    st.Migrations,
		FinalLI:       lastLI(sys),
	}
	return res, nil
}

// lastLI returns the final recorded degree of load imbalance, preferring
// the R side (the side the paper's Fig. 11 tracks).
func lastLI(sys *fastjoin.System) float64 {
	for _, side := range []fastjoin.Side{fastjoin.R, fastjoin.S} {
		if pts := sys.LISeries(side); len(pts) > 0 {
			return pts[len(pts)-1].Value
		}
	}
	return 0
}

// TimedSample is one sampling instant of a timed run.
type TimedSample struct {
	At         time.Duration
	Throughput float64 // results/s in the interval
	LatencyUs  float64 // mean latency of the interval
}

// TimedResult is the outcome of one timed (unbounded-input) run.
type TimedResult struct {
	Kind       fastjoin.Kind
	Samples    []TimedSample
	LI         []float64 // per-sample LI (R side)
	Loads      [][]fastjoin.Point
	Migrations int64
	Stats      fastjoin.Stats
}

// MeanThroughput averages interval throughput, skipping warm-up.
func (t TimedResult) MeanThroughput() float64 {
	return meanTail(samplesThroughput(t.Samples), 0.75)
}

// MeanLatencyUs averages interval latency, skipping warm-up.
func (t TimedResult) MeanLatencyUs() float64 {
	return meanTail(samplesLatency(t.Samples), 0.75)
}

func samplesThroughput(s []TimedSample) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v.Throughput
	}
	return out
}

func samplesLatency(s []TimedSample) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v.LatencyUs
	}
	return out
}

// meanTail averages the last frac of xs.
func meanTail(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	start := len(xs) - int(float64(len(xs))*frac)
	if start >= len(xs) {
		start = len(xs) - 1
	}
	var sum float64
	for _, x := range xs[start:] {
		sum += x
	}
	return sum / float64(len(xs)-start)
}

// runTimed runs one system against an unbounded source for the given
// duration, sampling interval throughput and latency.
func runTimed(kind fastjoin.Kind, opts fastjoin.Options, duration, every time.Duration) (TimedResult, error) {
	sys, err := fastjoin.New(opts)
	if err != nil {
		return TimedResult{}, err
	}
	res := TimedResult{Kind: kind}

	start := time.Now()
	sys.ThroughputTick() // open the first rate window
	var prevCount int64
	var prevSumUs float64
	ticker := time.NewTicker(every)
	for time.Since(start) < duration {
		<-ticker.C
		st := sys.Stats()
		rate := sys.ThroughputTick()
		// Interval latency from cumulative snapshot deltas.
		curSum := st.LatencyMeanUs * float64(countOf(st))
		var latUs float64
		if d := countOf(st) - prevCount; d > 0 {
			latUs = (curSum - prevSumUs) / float64(d)
		}
		prevCount, prevSumUs = countOf(st), curSum
		res.Samples = append(res.Samples, TimedSample{
			At:         time.Since(start).Round(time.Millisecond),
			Throughput: rate,
			LatencyUs:  latUs,
		})
		li := sys.LISeries(fastjoin.R)
		if len(li) > 0 {
			res.LI = append(res.LI, li[len(li)-1].Value)
		} else {
			res.LI = append(res.LI, 1)
		}
	}
	ticker.Stop()
	if err := sys.Drain(0); err != nil {
		sys.Stop()
		return res, fmt.Errorf("drain %v: %w", kind, err)
	}
	sys.Stop()
	res.Stats = sys.Stats()
	res.Migrations = res.Stats.Migrations
	for i := 0; i < opts.Joiners; i++ {
		res.Loads = append(res.Loads, sys.LoadSeries(fastjoin.R, i))
	}
	return res, nil
}

// countOf returns the cumulative latency sample count (one per probe).
func countOf(st fastjoin.Stats) int64 { return st.LatencySamples }

// calibrateOfferedRate measures the ingest rate the BiStream baseline
// sustains under unbounded offered load (its skew-limited capacity) and
// returns 1.15x of it. Driving every system at this fixed offered rate
// reproduces the paper's regime: the rate sits between the imbalanced
// baseline's capacity and the balanced system's, so BiStream falls behind
// (lower throughput, exploding hot-queue latency) while FastJoin keeps up.
// The given opts must already carry the experiment's window/service model.
func calibrateOfferedRate(opts fastjoin.Options, warmTotal time.Duration) (float64, error) {
	sys, err := fastjoin.New(opts)
	if err != nil {
		return 0, err
	}
	// Skip the warm-up phase (the window must fill before per-probe work
	// reaches steady state), then measure steady ingest.
	time.Sleep(warmTotal)
	base := sys.Ingested()
	start := time.Now()
	time.Sleep(2 * time.Second)
	ingested := sys.Ingested() - base
	elapsed := time.Since(start).Seconds()
	sys.Stop()
	if ingested == 0 || elapsed <= 0 {
		return 0, fmt.Errorf("bench: rate calibration ingested nothing")
	}
	return 1.2 * float64(ingested) / elapsed, nil
}
