package bench

import (
	"fmt"
	"time"

	"fastjoin"
	"fastjoin/internal/workload"
)

// Experiment regenerates one (or several closely related) paper figures.
type Experiment struct {
	// ID is the canonical identifier ("fig3").
	ID string
	// Aliases are other figure ids this experiment also produces (an
	// experiment that compares throughput and latency in one run covers
	// two figures).
	Aliases []string
	// Title describes the experiment.
	Title string
	// Run executes the experiment and returns its reports.
	Run func(p Params) ([]*Report, error)
}

// Covers reports whether the experiment produces the given figure id.
func (e *Experiment) Covers(id string) bool {
	if e.ID == id {
		return true
	}
	for _, a := range e.Aliases {
		if a == id {
			return true
		}
	}
	return false
}

// All returns every experiment in figure order.
func All() []*Experiment {
	return []*Experiment{
		expFig1ab(),
		expFig1cd(),
		expFig3_4_11(),
		expFig5_6(),
		expFig7_8(),
		expFig9_10(),
		expFig12_13(),
		expFig14(),
		Ablation(),
	}
}

// Find returns the experiment covering the figure id, or nil.
func Find(id string) *Experiment {
	for _, e := range All() {
		if e.Covers(id) {
			return e
		}
	}
	return nil
}

// calibrationTime is the warm-up the offered-rate calibration skips before
// its 2-second steady measurement: at least one full window plus slack.
func calibrationTime(p Params) time.Duration {
	d := timedWindow + 500*time.Millisecond
	if p.Quick {
		d = timedWindow
	}
	return d
}

// timedWindow is the join window used by the timed experiments
// (Figs. 1cd/3/4/11): it keeps the per-probe work stationary so the
// measured series compare steady states rather than the unbounded growth
// of a full-history store. The batch sweeps run full-history.
const timedWindow = 2 * time.Second

// rideHailingSources builds the default (DiDi-style) workload with an
// optional tuple budget (0 = unbounded).
func rideHailingSources(p Params, budget int) []fastjoin.TupleSource {
	return rideHailingSourcesRate(p, budget, 0)
}

// rideHailingSourcesRate is rideHailingSources with a paced ingest rate.
func rideHailingSourcesRate(p Params, budget int, rate float64) []fastjoin.TupleSource {
	w := fastjoin.NewRideHailingWorkload(fastjoin.RideHailingOptions{
		Cells:    p.Keys,
		Tuples:   budget,
		Rate:     rate,
		Parallel: 3,
		Seed:     p.Seed,
	})
	return w.Sources
}

// ---------------------------------------------------------------- fig 1ab

func expFig1ab() *Experiment {
	return &Experiment{
		ID:      "fig1ab",
		Aliases: []string{"fig1a", "fig1b"},
		Title:   "Key-frequency skew of the ride-hailing streams (paper Fig. 1a/1b)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			cfg := workload.DefaultRideHailingConfig()
			side := isqrtInt(p.Keys)
			cfg.GridWidth, cfg.GridHeight = side, (p.Keys+side-1)/side
			cfg.Seed = p.Seed
			rh := workload.NewRideHailing(cfg)

			samples := p.TupleBudget
			rep := &Report{
				ID:      "fig1ab",
				Title:   "Skew of orders (R) and taxi tracks (S); paper: 20%/24% of locations hold 80%",
				XLabel:  "stream",
				Columns: []string{"keys_for_80%_mass(%)", "top_20%_keys_share(%)", "tuples_per_key(c)"},
			}
			for _, sc := range []struct {
				name string
				src  *workload.Source
			}{{"orders(R)", rh.R}, {"tracks(S)", rh.S}} {
				d := workload.NewDistribution()
				for i := 0; i < samples; i++ {
					d.Observe(sc.src.Next().Key)
				}
				rep.AddRow(sc.name,
					d.KeysForMass(0.8)*100,
					d.TopShare(0.2)*100,
					d.MeanTuplesPerKey(),
				)
			}
			rep.AddNote("calibrated zipf exponents: orders θ=%.3f, tracks θ=%.3f", rh.OrderTheta, rh.TrackTheta)
			rep.AddNote("paper reports ~20%% of locations holding 80%% of orders and ~24%% for tracks")
			return []*Report{rep}, nil
		},
	}
}

// ---------------------------------------------------------------- fig 1cd

func expFig1cd() *Experiment {
	return &Experiment{
		ID:      "fig1cd",
		Aliases: []string{"fig1c", "fig1d"},
		Title:   "Load divergence and throughput decay under plain hash partitioning (paper Fig. 1c/1d)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			calOpts := sysOptions(fastjoin.KindBiStream, p, p.Joiners, rideHailingSources(p, 0))
			calOpts.Windowing.Span = timedWindow
			rate, err := calibrateOfferedRate(calOpts, calibrationTime(p))
			if err != nil {
				return nil, err
			}
			opts := sysOptions(fastjoin.KindBiStream, p, p.Joiners, rideHailingSourcesRate(p, 0, rate))
			opts.Windowing.Span = timedWindow
			res, err := runTimed(fastjoin.KindBiStream, opts, p.Duration, p.SampleEvery)
			if err != nil {
				return nil, err
			}

			// Fig 1c: per-instance load over time (first 8 instances).
			n := len(res.Loads)
			if n > 8 {
				n = 8
			}
			loadRep := &Report{
				ID:     "fig1cd",
				Title:  "Fig 1c: per-instance load L_i = |R_i|*φ_si over time (BiStream, R side)",
				XLabel: "sample#",
			}
			maxLen := 0
			for i := 0; i < n; i++ {
				loadRep.Columns = append(loadRep.Columns, fmt.Sprintf("I%d", i))
				if len(res.Loads[i]) > maxLen {
					maxLen = len(res.Loads[i])
				}
			}
			for s := 0; s < maxLen; s++ {
				cells := make([]float64, n)
				for i := 0; i < n; i++ {
					if s < len(res.Loads[i]) {
						cells[i] = res.Loads[i][s].Value
					}
				}
				loadRep.AddRow(fmt.Sprintf("%d", s), cells...)
			}
			loadRep.AddNote("loads diverge over time: hash partitioning concentrates hot keys")

			thrRep := &Report{
				ID:      "fig1cd",
				Title:   "Fig 1d: BiStream throughput over time under the skewed workload",
				XLabel:  "t",
				Columns: []string{"results/s"},
			}
			for _, s := range res.Samples {
				thrRep.AddRow(s.At.String(), s.Throughput)
			}
			return []*Report{loadRep, thrRep}, nil
		},
	}
}

// ------------------------------------------------------------ fig 3/4/11

func expFig3_4_11() *Experiment {
	return &Experiment{
		ID:      "fig3",
		Aliases: []string{"fig4", "fig11"},
		Title:   "Real-time throughput, latency and load imbalance (paper Figs. 3, 4, 11)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			calOpts := sysOptions(fastjoin.KindBiStream, p, p.Joiners, rideHailingSources(p, 0))
			calOpts.Windowing.Span = timedWindow
			rate, err := calibrateOfferedRate(calOpts, calibrationTime(p))
			if err != nil {
				return nil, err
			}
			results := make([]TimedResult, 0, len(comparedSystems))
			for _, kind := range comparedSystems {
				opts := sysOptions(kind, p, p.Joiners, rideHailingSourcesRate(p, 0, rate))
				opts.Windowing.Span = timedWindow
				res, err := runTimed(kind, opts, p.Duration, p.SampleEvery)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
			}

			cols := make([]string, len(results))
			for i, r := range results {
				cols[i] = r.Kind.String()
			}
			minSamples := len(results[0].Samples)
			for _, r := range results {
				if len(r.Samples) < minSamples {
					minSamples = len(r.Samples)
				}
			}

			thr := &Report{ID: "fig3", Title: "Fig 3: real-time throughput (results/s)", XLabel: "t", Columns: cols}
			lat := &Report{ID: "fig4", Title: "Fig 4: real-time processing latency (µs)", XLabel: "t", Columns: cols}
			li := &Report{ID: "fig11", Title: "Fig 11: real-time degree of load imbalance LI (R side)", XLabel: "t", Columns: cols}
			for s := 0; s < minSamples; s++ {
				x := results[0].Samples[s].At.String()
				thrCells := make([]float64, len(results))
				latCells := make([]float64, len(results))
				liCells := make([]float64, len(results))
				for i, r := range results {
					thrCells[i] = r.Samples[s].Throughput
					latCells[i] = r.Samples[s].LatencyUs
					if s < len(r.LI) {
						liCells[i] = r.LI[s]
					}
				}
				thr.AddRow(x, thrCells...)
				lat.AddRow(x, latCells...)
				li.AddRow(x, liCells...)
			}
			thr.AddNote("offered load: %.0f tuples/s (1.2x the BiStream baseline's calibrated skew-limited capacity)", rate)
			for i, r := range results {
				thr.AddNote("%s: mean %s = %.0f results/s, migrations = %d",
					cols[i], "throughput", r.MeanThroughput(), r.Migrations)
				lat.AddNote("%s: mean latency = %.0f µs", cols[i], r.MeanLatencyUs())
				li.AddNote("%s: steady LI (tail mean) = %.2f (Θ = %.1f)", cols[i], meanTail(r.LI, 0.5), p.Theta)
			}
			return []*Report{thr, lat, li}, nil
		},
	}
}

// -------------------------------------------------------------- fig 5/6

func expFig5_6() *Experiment {
	return &Experiment{
		ID:      "fig5",
		Aliases: []string{"fig6"},
		Title:   "Throughput and latency vs number of join instances (paper Figs. 5, 6)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			sweep := []int{2, 4, 8, 12}
			if p.Quick {
				sweep = []int{2, 4}
			}
			return timedSweepReports(p, "fig5", "fig6",
				"Fig 5: avg throughput vs #join instances per side",
				"Fig 6: avg latency vs #join instances per side",
				"instances", intLabels(sweep),
				func(i int, kind fastjoin.Kind) fastjoin.Options {
					return sysOptions(kind, p, sweep[i], rideHailingSources(p, 0))
				})
		},
	}
}

// -------------------------------------------------------------- fig 7/8

func expFig7_8() *Experiment {
	return &Experiment{
		ID:      "fig7",
		Aliases: []string{"fig8"},
		Title:   "Throughput and latency vs dataset scale (paper Figs. 7, 8)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			fractions := []float64{0.25, 0.5, 1, 1.5, 2}
			if p.Quick {
				fractions = []float64{0.5, 1}
			}
			labels := make([]string, len(fractions))
			budgets := make([]int, len(fractions))
			for i, f := range fractions {
				budgets[i] = int(f * float64(p.TupleBudget))
				labels[i] = fmt.Sprintf("%dk", budgets[i]/1000)
			}
			return sweepReports(p, "fig7", "fig8",
				"Fig 7: avg throughput vs dataset scale (tuple budget; paper: 10-70 GB)",
				"Fig 8: avg latency vs dataset scale",
				"tuples", labels,
				func(i int, kind fastjoin.Kind) (BatchResult, error) {
					opts := sysOptions(kind, p, p.Joiners, rideHailingSources(p, budgets[i]))
					return runBatch(kind, opts)
				})
		},
	}
}

// ------------------------------------------------------------- fig 9/10

func expFig9_10() *Experiment {
	return &Experiment{
		ID:      "fig9",
		Aliases: []string{"fig10"},
		Title:   "Throughput and latency vs load imbalance threshold Θ (paper Figs. 9, 10)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			thetas := []float64{1.2, 1.6, 2.2, 3.2, 5.0}
			if p.Quick {
				thetas = []float64{1.2, 2.2}
			}
			labels := make([]string, len(thetas))
			for i, th := range thetas {
				labels[i] = fmt.Sprintf("%.1f", th)
			}
			return timedSweepReports(p, "fig9", "fig10",
				"Fig 9: avg throughput vs threshold Θ (baselines are Θ-independent)",
				"Fig 10: avg latency vs threshold Θ",
				"theta", labels,
				func(i int, kind fastjoin.Kind) fastjoin.Options {
					pp := p
					pp.Theta = thetas[i]
					return sysOptions(kind, pp, p.Joiners, rideHailingSources(p, 0))
				})
		},
	}
}

// ------------------------------------------------------------ fig 12/13

func expFig12_13() *Experiment {
	return &Experiment{
		ID:      "fig12",
		Aliases: []string{"fig13"},
		Title:   "Throughput and latency across synthetic skew groups Gxy (paper Figs. 12, 13)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			thetas := []float64{0, 1, 2}
			var labels []string
			var groups [][2]float64
			for _, tr := range thetas {
				for _, ts := range thetas {
					labels = append(labels, fmt.Sprintf("G%d%d", int(tr), int(ts)))
					groups = append(groups, [2]float64{tr, ts})
				}
			}
			if p.Quick {
				labels = []string{"G00", "G22"}
				groups = [][2]float64{{0, 0}, {2, 2}}
			}
			cols := make([]string, len(comparedSystems))
			for i, k := range comparedSystems {
				cols[i] = k.String()
			}
			thr := &Report{ID: "fig12", Title: "Fig 12: avg throughput across skew groups (Gxy: R zipf x, S zipf y)", XLabel: "group", Columns: cols}
			lat := &Report{ID: "fig13", Title: "Fig 13: avg latency across skew groups", XLabel: "group", Columns: cols}
			// Timed saturated runs: each system processes each group at its
			// own capacity for a fixed wall-clock window.
			for i, label := range labels {
				thrCells := make([]float64, len(comparedSystems))
				latCells := make([]float64, len(comparedSystems))
				for k, kind := range comparedSystems {
					w := fastjoin.NewZipfWorkload(fastjoin.ZipfOptions{
						Keys:     p.Keys,
						ThetaR:   groups[i][0],
						ThetaS:   groups[i][1],
						Parallel: 3,
						Seed:     p.Seed,
					})
					opts := sysOptions(kind, p, p.Joiners, w.Sources)
					opts.Windowing.Span = timedWindow
					res, err := runTimed(kind, opts, p.Duration, p.SampleEvery)
					if err != nil {
						return nil, fmt.Errorf("fig12 %s@%s: %w", kind, label, err)
					}
					thrCells[k] = res.MeanThroughput()
					latCells[k] = res.MeanLatencyUs()
				}
				thr.AddRow(label, thrCells...)
				lat.AddRow(label, latCells...)
			}
			thr.AddNote("offered load: unbounded; each system runs each group at its own capacity")
			return []*Report{thr, lat}, nil
		},
	}
}

// --------------------------------------------------------------- fig 14

func expFig14() *Experiment {
	return &Experiment{
		ID:    "fig14",
		Title: "GreedyFit vs SAFit key selection (paper Fig. 14)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			rep := &Report{
				ID:      "fig14",
				Title:   "Fig 14: processing latency of FastJoin with the two key selectors",
				XLabel:  "selector",
				Columns: []string{"latency_mean_us", "latency_p99_us", "throughput", "migrations"},
			}
			for _, kind := range []fastjoin.Kind{fastjoin.KindFastJoin, fastjoin.KindFastJoinSAFit} {
				opts := sysOptions(kind, p, p.Joiners, rideHailingSources(p, p.TupleBudget))
				res, err := runBatch(kind, opts)
				if err != nil {
					return nil, err
				}
				rep.AddRow(kind.String(), res.LatencyMeanUs, res.LatencyP99Us, res.Throughput, float64(res.Migrations))
			}
			rep.AddNote("paper finding: the two selectors perform nearly the same")
			return []*Report{rep}, nil
		},
	}
}

// timedSweepReports runs every compared system across a sweep as timed
// saturated runs (windowed, unbounded offered load) and renders the
// throughput and latency tables.
func timedSweepReports(p Params, idA, idB, titleA, titleB, xLabel string, labels []string,
	mkOpts func(i int, kind fastjoin.Kind) fastjoin.Options) ([]*Report, error) {

	cols := make([]string, len(comparedSystems))
	for i, k := range comparedSystems {
		cols[i] = k.String()
	}
	thr := &Report{ID: idA, Title: titleA, XLabel: xLabel, Columns: cols}
	lat := &Report{ID: idB, Title: titleB, XLabel: xLabel, Columns: cols}
	var migrations int64
	for i, label := range labels {
		thrCells := make([]float64, len(comparedSystems))
		latCells := make([]float64, len(comparedSystems))
		for k, kind := range comparedSystems {
			opts := mkOpts(i, kind)
			opts.Windowing.Span = timedWindow
			res, err := runTimed(kind, opts, p.Duration, p.SampleEvery)
			if err != nil {
				return nil, fmt.Errorf("%s %s@%s: %w", idA, kind, label, err)
			}
			thrCells[k] = res.MeanThroughput()
			latCells[k] = res.MeanLatencyUs()
			if kind == fastjoin.KindFastJoin {
				migrations += res.Migrations
			}
		}
		thr.AddRow(label, thrCells...)
		lat.AddRow(label, latCells...)
	}
	thr.AddNote("timed saturated runs (window %v): each system at its own capacity", timedWindow)
	thr.AddNote("FastJoin migrations across the sweep: %d", migrations)
	return []*Report{thr, lat}, nil
}

// sweepReports runs every compared system across a sweep and renders the
// throughput and latency tables.
func sweepReports(p Params, idA, idB, titleA, titleB, xLabel string, labels []string,
	run func(i int, kind fastjoin.Kind) (BatchResult, error)) ([]*Report, error) {

	cols := make([]string, len(comparedSystems))
	for i, k := range comparedSystems {
		cols[i] = k.String()
	}
	thr := &Report{ID: idA, Title: titleA, XLabel: xLabel, Columns: cols}
	lat := &Report{ID: idB, Title: titleB, XLabel: xLabel, Columns: cols}
	var migrations int64
	for i, label := range labels {
		thrCells := make([]float64, len(comparedSystems))
		latCells := make([]float64, len(comparedSystems))
		for k, kind := range comparedSystems {
			res, err := run(i, kind)
			if err != nil {
				return nil, fmt.Errorf("%s %s@%s: %w", idA, kind, label, err)
			}
			thrCells[k] = res.Throughput
			latCells[k] = res.LatencyMeanUs
			if kind == fastjoin.KindFastJoin {
				migrations += res.Migrations
			}
		}
		thr.AddRow(label, thrCells...)
		lat.AddRow(label, latCells...)
	}
	thr.AddNote("FastJoin migrations across the sweep: %d", migrations)
	return []*Report{thr, lat}, nil
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

// isqrtInt is integer sqrt (floor, >= 1).
func isqrtInt(n int) int {
	if n <= 0 {
		return 1
	}
	x, y := n, (n+1)/2
	for y < x {
		x, y = y, (y+n/y)/2
	}
	if x < 1 {
		return 1
	}
	return x
}

// RunAll executes every experiment and returns all reports in order.
func RunAll(p Params) ([]*Report, error) {
	var out []*Report
	for _, e := range All() {
		reps, err := e.Run(p)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, reps...)
	}
	return out, nil
}
