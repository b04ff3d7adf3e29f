// fastjoin-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	fastjoin-bench -figure all                 # every experiment
//	fastjoin-bench -figure fig3                # one figure (aliases work)
//	fastjoin-bench -figure fig5 -joiners 16    # scale a knob up
//	fastjoin-bench -list                       # show the experiment index
//
// Each experiment prints one or more plain-text tables; -csv <dir> also
// writes each table as a CSV file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fastjoin"
	"fastjoin/internal/bench"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "figure id (fig1ab, fig1cd, fig3..fig14) or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "shrink sweeps and durations (smoke test)")
		joiners  = flag.Int("joiners", 0, "join instances per side (default 8; paper 48)")
		duration = flag.Duration("duration", 0, "timed-run duration (default 4s)")
		budget   = flag.Int("budget", 0, "tuple budget per batch run (default 200000)")
		keys     = flag.Int("keys", 0, "key universe size (default 10000)")
		theta    = flag.Float64("theta", 0, "load imbalance threshold Θ (default 2.2)")
		seed     = flag.Int64("seed", 0, "workload/placement seed (default 7)")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		jsonOut  = flag.String("json", "", "write all reports plus resolved params as one JSON document")

		chaosProfile = flag.String("chaos", "", "fault drill: chaos profile (none, droponly, delayonly, duponly, mixed)")
		chaosSeed    = flag.Int64("chaos.seed", 1, "chaos injector seed (a drill replays exactly per seed)")

		observe = flag.String("observe", "", "observability endpoint address for every run (e.g. 127.0.0.1:9144; serves /metrics, /stats.json, /trace.json, /debug/pprof)")
	)
	flag.Parse()

	chaos, err := fastjoin.ParseChaosProfile(*chaosProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.All() {
			ids := e.ID
			if len(e.Aliases) > 0 {
				ids += " (" + strings.Join(e.Aliases, ", ") + ")"
			}
			fmt.Printf("  %-28s %s\n", ids, e.Title)
		}
		return
	}

	p := bench.Params{
		Joiners:     *joiners,
		Duration:    *duration,
		TupleBudget: *budget,
		Keys:        *keys,
		Theta:       *theta,
		Seed:        *seed,
		Quick:       *quick,

		ChaosProfile: chaos,
		ChaosSeed:    *chaosSeed,
		Observe:      *observe,
	}
	if p.ChaosProfile != fastjoin.ChaosNone {
		fmt.Printf("fault drill: chaos profile %q seed %d\n", p.ChaosProfile, p.ChaosSeed)
	}

	var experiments []*bench.Experiment
	if *figure == "all" {
		experiments = bench.All()
	} else {
		e := bench.Find(*figure)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown figure %q; try -list\n", *figure)
			os.Exit(2)
		}
		experiments = []*bench.Experiment{e}
	}

	start := time.Now()
	var allReports []*bench.Report
	for _, e := range experiments {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		expStart := time.Now()
		reports, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		allReports = append(allReports, reports...)
		for i, rep := range reports {
			if err := rep.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "render: %v\n", err)
				os.Exit(1)
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, e.ID, i, rep); err != nil {
					fmt.Fprintf(os.Stderr, "csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s finished in %s)\n\n", e.ID, time.Since(expStart).Round(time.Millisecond))
	}
	if *jsonOut != "" {
		doc := bench.Doc{Figure: *figure, Params: p.Resolved(), Reports: allReports}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		if err := doc.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	fmt.Printf("all done in %s\n", time.Since(start).Round(time.Millisecond))
}

func writeCSV(dir, id string, idx int, rep *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", id, idx))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return rep.CSV(f)
}
