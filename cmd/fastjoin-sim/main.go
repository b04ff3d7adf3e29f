// fastjoin-sim runs the discrete-event simulator at cluster scale: the
// paper's 48-instance deployment on any host, in deterministic virtual
// time. It complements fastjoin-bench (which measures the live runtime)
// with paper-scale sweeps.
//
// Usage:
//
//	fastjoin-sim -sweep systems                  # FastJoin vs baselines
//	fastjoin-sim -sweep instances                # Fig. 5/6 analog at scale
//	fastjoin-sim -sweep theta                    # Fig. 9/10 analog
//	fastjoin-sim -sweep skew                     # Fig. 12/13 analog
//	fastjoin-sim -sweep selector                 # Fig. 14 analog
//	fastjoin-sim -instances 48 -rate 250000 -duration 30
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"fastjoin/internal/core"
	"fastjoin/internal/sim"
	"fastjoin/internal/workload"
)

func main() {
	var (
		sweep     = flag.String("sweep", "systems", "systems | instances | theta | skew | selector")
		instances = flag.Int("instances", 48, "join instances per side (paper default 48)")
		rate      = flag.Float64("rate", 700000, "offered load, tuples/second")
		duration  = flag.Float64("duration", 30, "virtual seconds per run")
		service   = flag.Float64("service", 20000, "per-instance capacity, ops/second")
		keys      = flag.Int("keys", 1000000, "key universe size")
		thetaR    = flag.Float64("zipfR", 0.95, "stream R zipf exponent")
		thetaS    = flag.Float64("zipfS", 0.90, "stream S zipf exponent")
		theta     = flag.Float64("theta", 2.2, "load imbalance threshold Θ")
		window    = flag.Float64("window", 2, "join window, virtual seconds (0 = full history)")
		seed      = flag.Int64("seed", 7, "workload/placement seed")

		chaosName = flag.String("chaos", "", "fault drill preset (none, droponly, delayonly, duponly, mixed)")
	)
	flag.Parse()

	chaosCfg, err := sim.ChaosPreset(*chaosName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	base := func() sim.Config {
		return sim.Config{
			Instances:   *instances,
			ServiceRate: *service,
			ArrivalRate: *rate,
			Duration:    *duration,
			WindowSpan:  *window,
			Theta:       *theta,
			CooldownSec: 1,
			MatchCost:   0.0002,
			SPerR:       4,
			SampleEvery: 1,
			Seed:        uint64(*seed),
			Chaos:       chaosCfg,
		}
	}
	samplers := func(tR, tS float64) (workload.Sampler, workload.Sampler) {
		permSeed := *seed ^ 0x5a5a
		return workload.NewZipfPerm(*keys, tR, *seed+1, permSeed),
			workload.NewZipfPerm(*keys, tS, *seed+2, permSeed)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	header := func(cols ...any) {
		fmt.Fprintln(w, join(cols))
	}
	row := func(label string, r *sim.Result) {
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%.2f\t%d\n",
			label, r.MeanThroughput, r.MeanLatencySec*1e3, r.P99LatencySec*1e3,
			r.SteadyLI, r.Migrations)
	}

	runOne := func(cfg sim.Config, tR, tS float64) *sim.Result {
		cfg.SamplerR, cfg.SamplerS = samplers(tR, tS)
		res, err := sim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return res
	}

	fmt.Printf("simulated cluster: %d instances/side x %.0f ops/s, offered %.0f tuples/s, %gs virtual\n",
		*instances, *service, *rate, *duration)
	if *chaosName != "" && *chaosName != "none" {
		fmt.Printf("fault drill: chaos preset %q (stall p=%.2f/%.0fms)\n",
			*chaosName, chaosCfg.StallProb, chaosCfg.StallSec*1e3)
	}
	fmt.Println()

	switch *sweep {
	case "systems":
		header("system", "results/s", "lat(ms)", "p99(ms)", "LI", "migrations")
		for _, v := range []struct {
			name      string
			strategy  sim.Strategy
			migration bool
		}{
			{"FastJoin", sim.StrategyHash, true},
			{"BiStream-ContRand", sim.StrategyContRand, false},
			{"BiStream", sim.StrategyHash, false},
		} {
			cfg := base()
			cfg.Strategy = v.strategy
			cfg.Migration = v.migration
			row(v.name, runOne(cfg, *thetaR, *thetaS))
		}
	case "instances":
		header("instances", "results/s", "lat(ms)", "p99(ms)", "LI", "migrations")
		for _, n := range []int{16, 32, 48, 64} {
			cfg := base()
			cfg.Instances = n
			cfg.Migration = true
			row(fmt.Sprintf("FastJoin/%d", n), runOne(cfg, *thetaR, *thetaS))
			cfg2 := base()
			cfg2.Instances = n
			row(fmt.Sprintf("BiStream/%d", n), runOne(cfg2, *thetaR, *thetaS))
		}
	case "theta":
		header("theta", "results/s", "lat(ms)", "p99(ms)", "LI", "migrations")
		for _, th := range []float64{1.2, 1.6, 2.2, 3.2, 5.0, 10, 1e9} {
			cfg := base()
			// Moderate load, so the steady LI sits inside the swept Θ
			// range; at heavy overload every threshold triggers alike.
			cfg.ArrivalRate = *rate * 0.45
			cfg.Migration = true
			cfg.Theta = th
			label := fmt.Sprintf("Θ=%.1f", th)
			if th >= 1e9 {
				label = "Θ=∞ (off)"
			}
			row(label, runOne(cfg, *thetaR, *thetaS))
		}
	case "skew":
		header("group", "results/s", "lat(ms)", "p99(ms)", "LI", "migrations")
		for _, g := range []struct{ r, s float64 }{
			{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2},
		} {
			cfg := base()
			cfg.Migration = true
			row(fmt.Sprintf("FastJoin/G%d%d", int(g.r), int(g.s)), runOne(cfg, g.r, g.s))
			cfg2 := base()
			row(fmt.Sprintf("BiStream/G%d%d", int(g.r), int(g.s)), runOne(cfg2, g.r, g.s))
		}
	case "selector":
		header("selector", "results/s", "lat(ms)", "p99(ms)", "LI", "migrations")
		cfg := base()
		cfg.Migration = true
		row("GreedyFit", runOne(cfg, *thetaR, *thetaS))
		cfg2 := base()
		cfg2.Migration = true
		cfg2.Selector = core.SAFitSelector(core.DefaultSAConfig())
		row("SAFit", runOne(cfg2, *thetaR, *thetaS))
	default:
		fmt.Fprintf(os.Stderr, "unknown sweep %q\n", *sweep)
		os.Exit(2)
	}
}

func join(cols []any) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += "\t"
		}
		out += fmt.Sprint(c)
	}
	return out
}
