package main

import (
	"fmt"
	"math/rand"
	"time"

	"fastjoin"
	"fastjoin/internal/stream"
	"fastjoin/internal/workload"
)

// This file is the one table BENCHMARK.json mirrors: the fixed
// configuration every workload runs, the phase lengths, and per workload
// its input, window, capacity emulation and paced rate.

// The fixed production configuration (see fixedOptions). Splitting is on
// everywhere at one threshold: a key must hold 40 % of its dispatcher
// task's traffic, which only hotkey_churn_capacity's mega-key reaches
// (zipf θ=1.0's top key holds about 31 % of its task).
const (
	joiners        = 8
	dispatchers    = 4
	shufflers      = 4
	statsInterval  = 50 * time.Millisecond
	theta          = 2.2
	splitThreshold = 0.4
	splitWays      = 4
	remoteChunk    = 64
	queueSize      = 32
	// gomaxprocs is pinned so a box with more cores reports the same
	// numbers as the 2-core reference box.
	gomaxprocs = 2
)

// Phase lengths as shares of -seconds (BENCHMARK.json run_seconds = 18:
// 10 s sat + 8 s paced). Windowed sat phases first warm up for one window
// span so the timed interval sees a full window; the paced phase reports
// latency only for results whose last event was due after one span.
const (
	satShare   = 10.0 / 18.0
	pacedShare = 8.0 / 18.0
	// sliceLen cuts the paced schedule into slices. Latency percentiles and
	// the generator's largest lag are taken per slice and reported as the
	// median over slices, which one stall of the shared box does not move
	// and a growing backlog does.
	sliceLen = 500 * time.Millisecond
	// latencySample is 1 in N results timed at OnResult.
	latencySample = 4
	// traceSample is 1 in N tuples (by Seq, per side) carrying a span
	// record in a traced run.
	traceSample = 64
	// setupRuns is how many times set-up is repeated; setup_s is the
	// median.
	setupRuns = 3
	// capacityCPUShare: a capacity-emulated workload whose process uses
	// this share of wall × gomaxprocs or more measures the scheduler, not
	// the emulated capacity, and fails.
	capacityCPUShare = 0.5
	// checkKeyMod selects the keys whose every pair is recorded and
	// checked: xhash(key) % checkKeyMod == 0.
	checkKeyMod = 256
)

// fixedOptions is the configuration under test; workloads add only their
// window span and capacity emulation.
func fixedOptions() fastjoin.Options {
	return fastjoin.Options{
		Kind:          fastjoin.KindFastJoin,
		Joiners:       joiners,
		Dispatchers:   dispatchers,
		Shufflers:     shufflers,
		StatsInterval: statsInterval,
		QueueSize:     queueSize,
		Seed:          placementSeed,
		StoreKind:     fastjoin.StoreChunked,
		Migration: fastjoin.MigrationOptions{
			Theta:          theta,
			SplitThreshold: splitThreshold,
			SplitWays:      splitWays,
		},
	}
}

// generator yields the next input tuple. elapsed is the tuple's position in
// the phase (its due offset when paced, wall time since the phase started
// when unpaced); only time-driven inputs read it. The caller owns Seq-based
// bookkeeping: every generator numbers each side from 0.
type generator func(elapsed time.Duration) fastjoin.Tuple

// spec is one workload.
type spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it).
	Why string
	// Span is the join window; 0 is a full-history join.
	Span time.Duration
	// ServiceRate/MatchCost emulate per-instance capacity; 0 is host speed.
	ServiceRate float64
	MatchCost   float64
	// PacedRate is the open-loop rate in tuples/s: about half of the seed
	// commit's sat_tuples_per_s on the 2-core reference box, fixed here
	// and never calibrated at run time.
	PacedRate float64
	// ScanRate, when set, makes the sat phase finite: ScanRate × the sat
	// seconds tuples, timed to completion. (A full-history join's cost per
	// tuple grows with the input, so a timed interval would not measure a
	// fixed amount of work.)
	ScanRate float64
	// Remote delivers the input over one loopback TCP connection.
	Remote bool
	// Gen builds the input stream from the seed.
	Gen func(seed int64) generator
}

// specs lists the workloads in BENCHMARK.json order.
var specs = []spec{
	{
		// The data plane with nothing to balance.
		Name:      "uniform_host",
		Why:       "uniform keys, 1-2 matches per probe: queues, batching, routing and window Add/Advance do all the work, the balancer none",
		Span:      2 * time.Second,
		PacedRate: 60000,
		Gen:       uniformGen,
	},
	{
		// The paper's regime (Figs. 3/4): throughput is set by the hottest
		// instance, so monitor + GreedyFit + migration move it and
		// data-plane speed does not.
		Name:        "zipf_capacity",
		Why:         "ride-hailing skew under emulated instance capacity: the hottest instance sets throughput, so monitor, GreedyFit and migration do the work",
		Span:        2 * time.Second,
		ServiceRate: 20000,
		MatchCost:   0.05,
		PacedRate:   5500,
		Gen:         rideHailingGen,
	},
	{
		// Uses the balancer continuously where zipf_capacity converges
		// once: a change that helps convergence but thrashes under churn
		// shows here.
		Name:        "hotkey_churn_capacity",
		Why:         "a 30% mega-key on both streams hopping every 3 s: only detection and split/drain/retire cycling can shed it",
		Span:        2 * time.Second,
		ServiceRate: 20000,
		MatchCost:   0.05,
		PacedRate:   2800,
		Gen:         hotkeyChurnGen,
	},
	{
		// The same store as uniform_host used read-heavy, and the one
		// workload whose result set is exactly determined.
		Name:      "zipf_scan_host",
		Why:       "zipf 1.0 full-history join, hundreds of matches per probe: ForEachMatch, pair emission and the single sink dominate",
		PacedRate: 9000,
		ScanRate:  21000,
		Gen:       zipfScanGen,
	},
	{
		// Everything behind the spout is uniform_host; only the wire
		// differs, so a codec change must move this and leave that flat.
		Name:      "remote_host",
		Why:       "uniform_host's input over one loopback TCP connection in 64-tuple chunks: the one workload that pays for gob, framing and syscalls",
		Span:      2 * time.Second,
		PacedRate: 60000,
		Remote:    true,
		Gen:       uniformGen,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// The seed drives only which tuples are sampled. Which keys are popular
// (popSeed) and where the hash router places them (placementSeed, part of
// the fixed configuration) stay the same for every seed, so two seeds give
// two samples of one workload — not two workloads whose hottest instance
// differs by a third, which is what seeding the popularity permutation did
// to zipf_capacity's sat_tuples_per_s.
const (
	popSeed       = 7
	placementSeed = 1
)

// interleave merges a pair's streams: one R tuple, then SPerR S tuples.
func interleave(p workload.Pair) generator {
	i := 0
	return func(time.Duration) fastjoin.Tuple {
		i++
		if (i-1)%(p.SPerR+1) == 0 {
			return p.R.Next()
		}
		return p.S.Next()
	}
}

func samplerPair(r, s workload.Sampler) workload.Pair {
	return workload.Pair{R: workload.NewSource(stream.R, r, nil), S: workload.NewSource(stream.S, s, nil), SPerR: 1}
}

// uniformGen: uniform keys over a 200 k universe, R:S 1:1.
func uniformGen(seed int64) generator {
	return interleave(samplerPair(workload.NewUniform(200_000, seed+1), workload.NewUniform(200_000, seed+2)))
}

// rideHailingGen: the paper's DiDi-style skew (orders ⋈ tracks on grid
// cell, about 20 % of the cells carrying 80 % of the tuples, 4 tracks per
// order) over 2 k cells.
func rideHailingGen(seed int64) generator {
	cfg := workload.DefaultRideHailingConfig()
	cfg.GridWidth, cfg.GridHeight = 45, 45
	cfg.TracksPerOrder = 4
	cfg.Seed = popSeed
	cfg.Variant = int(seed) // shifts the sampling seeds only
	return interleave(workload.NewRideHailing(cfg).Pair)
}

// zipfScanGen: zipf θ=1.0 on both streams over 10 k keys, same hot keys.
func zipfScanGen(seed int64) generator {
	return interleave(samplerPair(workload.NewZipfPerm(10_000, 1, seed+1, popSeed), workload.NewZipfPerm(10_000, 1, seed+2, popSeed)))
}

// Hot-key churn parameters: the mega-key's share of both streams, how
// often it hops, and the background it rides on.
const (
	hotShare    = 0.30
	hotHopEvery = 3 * time.Second
	hotBgKeys   = 10_000
	hotBgTheta  = 0.5
)

// hotkeyChurnGen: a mega-key carrying hotShare of both streams that hops
// to a fresh key every hotHopEvery, over a mild zipf background.
func hotkeyChurnGen(seed int64) generator {
	bg := interleave(samplerPair(workload.NewZipfPerm(hotBgKeys, hotBgTheta, seed+1, popSeed), workload.NewZipfPerm(hotBgKeys, hotBgTheta, seed+2, popSeed)))
	rng := rand.New(rand.NewSource(seed + 3))
	return func(elapsed time.Duration) fastjoin.Tuple {
		t := bg(elapsed)
		if rng.Float64() < hotShare {
			// Keys past the background universe, one per hop, all routed by
			// the same dispatcher task (the shuffler routes by key modulo
			// the task count): its detector then sees every hot key arrive
			// and cool at the full hot rate, so a key that went cold retires
			// within the phase.
			t.Key = hotBgKeys + dispatchers*fastjoin.Key(elapsed/hotHopEvery)
		}
		return t
	}
}
