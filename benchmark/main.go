// Command benchmark is FastJoin's regression benchmark: five named
// workloads, each run closed-loop (sat) and open-loop (paced) against one
// fixed production configuration through the public facade, with the
// correctness check in the same command. See README.md and the
// BENCHMARK.json at the repository root.
//
//	cd benchmark && go run .                      # every workload, end-to-end metrics
//	cd benchmark && go run . -workload zipf_capacity -trace 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Samples, when non-zero, is the sample count behind a percentile.
	Samples int64
}

// result is one workload's outcome; its JSON form is the last line of
// standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloads = flag.String("workload", "", "workload name[,name...] (default: all)")
		seed      = flag.Int64("seed", 1, "input seed; the program under test sees only the generated tuples")
		seconds   = flag.Float64("seconds", 18, "timed seconds per run, split 8:10 between the sat and paced phases")
		trace     = flag.Int("trace", 0, "1: traced run — per-layer metrics and a span file instead of the end-to-end metrics")
		phase     = flag.String("phase", "", "run only this phase: sat or paced (default: both)")
		jsonOut   = flag.String("json", "", "also write the result object to this file")
		outDir    = flag.String("out", "out", "directory for trace files")
		varName   = flag.String("variant", "", "option stand-in for the sensitivity table: bistream, nosplit, batch1, storemap, chunk1")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || (*phase != "" && *phase != "sat" && *phase != "paced") {
		fatal(errors.New("want -seconds > 0, -trace 0|1, -phase sat|paced"))
	}

	names := strings.Split(*workloads, ",")
	if *workloads == "" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	var res result
	var err error
	if len(names) == 1 {
		var c config
		if c, err = newConfig(names[0], *seed, *seconds, *trace == 1, *varName, *outDir); err == nil {
			res, err = runOne(c, *phase)
		}
	} else {
		res, err = runEach(names)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(line, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runEach runs every named workload in a fresh process (so one workload's
// heap, peak RSS and set-up never leak into the next) by re-executing this
// binary with the same flags, and merges the children's result lines under
// "<workload>.<metric>" names.
func runEach(names []string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	merged := result{Correct: true, Metrics: make(map[string]jsonValue)}
	for _, name := range names {
		args := []string{"-workload", name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" && f.Name != "json" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		var child result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &child); err != nil {
			return result{}, fmt.Errorf("%s: result line: %w", name, err)
		}
		merged.Correct = merged.Correct && child.Correct
		merged.Attempted += child.Attempted
		merged.Failed += child.Failed
		for k, v := range child.Metrics {
			merged.Metrics[name+"."+k] = v
		}
	}
	return merged, nil
}

func newConfig(name string, seed int64, seconds float64, trace bool, varName, outDir string) (config, error) {
	sp, err := findSpec(name)
	if err != nil {
		return config{}, err
	}
	c := config{
		spec:   sp,
		seed:   seed,
		sat:    time.Duration(seconds * satShare * float64(time.Second)),
		paced:  time.Duration(seconds * pacedShare * float64(time.Second)),
		trace:  trace,
		outDir: outDir,

		latencyEvery: latencySample,
		maxCPUShare:  capacityCPUShare,
	}
	if varName != "" {
		found := false
		for _, v := range variants {
			if v.name == varName {
				c.variant, found = v, true
			}
		}
		if !found {
			return config{}, fmt.Errorf("unknown variant %q", varName)
		}
	}
	return c, nil
}

// runOne runs one workload in this process. phase is "", "sat" or "paced".
func runOne(c config, phase string) (result, error) {
	sp, name, trace := c.spec, c.spec.Name, c.trace
	runtime.GOMAXPROCS(gomaxprocs)

	var metrics []metric
	var problems []string
	var attempted, failed int64
	note := func(v verdict) {
		failed += v.failedTuples
		problems = append(problems, v.problems...)
	}
	invalid := func(format string, args ...any) {
		failed++
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Set-up, first of setupRuns: inputs and references from the seed, then
	// the system (and for a remote workload its listener, dial and accept).
	if trace {
		c.sat /= 2 // a traced run does the sat phase twice, untraced and traced
	}
	setupStart := time.Now()
	in := prepare(c)
	untraced := c
	untraced.trace = false
	first, err := build(untraced, in, false)
	if err != nil {
		return result{}, err
	}
	setups := []float64{time.Since(setupStart).Seconds()}

	var sat satResult
	if phase != "paced" {
		if sat, err = measureSat(untraced, in, first); err != nil {
			return result{}, err
		}
		note(sat.verdict)
		attempted += sat.tuples
		if sp.ServiceRate > 0 && sat.cpuShare >= c.maxCPUShare {
			invalid("sat: process CPU is %.0f%% of wall × %d cores; a capacity-emulated workload must stay under %.0f%% or it measures the scheduler", sat.cpuShare*100, gomaxprocs, c.maxCPUShare*100)
		}
	} else {
		first.discard()
	}
	overhead := math.NaN()
	if trace && phase != "paced" {
		traced, err := runSat(c, in)
		if err != nil {
			return result{}, err
		}
		note(traced.verdict)
		attempted += traced.tuples
		overhead = (sat.tuplesPerSec - traced.tuplesPerSec) / sat.tuplesPerSec * 100
	}

	var paced pacedResult
	if phase != "sat" {
		if paced, err = runPaced(c, in); err != nil {
			return result{}, err
		}
		note(paced.verdict)
		attempted += int64(len(in.paced))
		if sp.ServiceRate > 0 && paced.cpuShare >= c.maxCPUShare {
			invalid("paced: process CPU is %.0f%% of wall × %d cores; a capacity-emulated workload must stay under %.0f%%", paced.cpuShare*100, gomaxprocs, c.maxCPUShare*100)
		}
	}
	rss, err := peakRSSMB() // before the repeated set-ups below can raise it
	if err != nil {
		return result{}, err
	}

	if !trace {
		for len(setups) < setupRuns {
			start := time.Now()
			b, err := build(c, prepare(c), false)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, time.Since(start).Seconds())
			b.discard()
		}
		metrics = append(metrics, metric{Name: "setup_s", Value: median(setups), Unit: "s", Samples: int64(len(setups))})
		if phase != "paced" {
			metrics = append(metrics, metric{Name: "sat_tuples_per_s", Value: sat.tuplesPerSec, Unit: "tuples/s"})
		}
		if phase != "sat" {
			if paced.beyond < 10 {
				invalid("paced: a slice has only %d latency samples beyond its p90 (%d samples in all); need 10", paced.beyond, paced.samples)
			}
			metrics = append(metrics,
				metric{Name: "paced_lat_p50_ms", Value: paced.p50Ms, Unit: "ms", Samples: paced.samples},
				metric{Name: "paced_lat_p90_ms", Value: paced.p90Ms, Unit: "ms", Samples: paced.samples})
		}
		metrics = append(metrics, metric{Name: "peak_rss_mb", Value: rss, Unit: "MB"})
	} else {
		layer, err := traceMetrics(c, in, sat, paced, overhead, phase)
		if err != nil {
			return result{}, err
		}
		for _, m := range layer {
			if m.Name == "workload.gen_ns_per_tuple" && phase != "paced" && m.Value*1e-9*sat.tuplesPerSec >= 0.2 {
				invalid("the generator takes %.0f ns per tuple, %.0f%% of the sat phase's time per tuple; it must stay under 20%%", m.Value, m.Value*1e-9*sat.tuplesPerSec*100)
			}
		}
		metrics = append(metrics, layer...)
	}

	if failed > attempted {
		failed = attempted
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonValue)}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", name, m.Name, m.Value)
		}
		if _, dup := res.Metrics[m.Name]; dup {
			return result{}, fmt.Errorf("%s: metric %s reported twice", name, m.Name)
		}
		res.Metrics[m.Name] = jsonValue{Value: m.Value, Unit: m.Unit}
		if m.Samples > 0 {
			fmt.Printf("%s %s %.6g %s n=%d\n", name, m.Name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Printf("%s %s %.6g %s\n", name, m.Name, m.Value, m.Unit)
		}
	}
	if attempted > 0 {
		fmt.Printf("%s failed_ops_share %.6g ratio n=%d\n", name, float64(failed)/float64(attempted), attempted)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", name, p)
	}
	return res, nil
}

// traceMetrics assembles a traced run's per-layer metrics and writes its
// span file.
func traceMetrics(c config, in *input, sat satResult, paced pacedResult, overhead float64, phase string) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{Name: name, Value: v, Unit: unit}) }

	tf := traceFile{Workload: c.spec.Name, Seed: c.seed, Phase: "paced", Sample: traceSample}
	if phase != "sat" {
		st := paced.stats
		var hists map[string]*hist
		tf.Spans, hists = paced.spans.spans(paced.startNs)
		tf.StartUnix = paced.startNs
		for _, name := range []string{spanAdmit, spanShuffle, spanTransit, spanSink} {
			h := hists[name]
			for _, q := range []struct {
				suffix string
				q      float64
			}{{"p50", 0.50}, {"p99", 0.99}} {
				v, _ := h.quantile(q.q)
				if h.n == 0 {
					v = 0 // no traced tuple got this far (e.g. no result at all)
				}
				out = append(out, metric{Name: name + "_us_" + q.suffix, Value: v / 1e3, Unit: "us", Samples: h.n})
			}
		}
		for _, comp := range []string{"shuffler", "dispatcher", "joinerR", "joinerS", "sink"} {
			add("engine."+comp+".queue_high_water", paced.queueHW[comp], "msgs")
		}
		// The balancer's counts cover both phases: it works hardest in sat,
		// and a split key's retirement can outlast the phase it began in.
		ss := sat.stats
		add("biclique.migrations", float64(ss.Migrations+st.Migrations), "count")
		add("biclique.migrated_tuples", float64(ss.MigratedTuples+st.MigratedTuples), "count")
		add("biclique.migration_aborts", float64(ss.MigrationAborts+st.MigrationAborts), "count")
		add("biclique.replayed_tuples", float64(ss.ReplayedTuples+st.ReplayedTuples), "count")
		add("biclique.keys_split", float64(ss.KeysSplit+st.KeysSplit), "count")
		add("biclique.keys_retired", float64(ss.KeysRetired+st.KeysRetired), "count")
		add("biclique.li_final_r", paced.liR, "ratio")
		add("biclique.li_final_s", paced.liS, "ratio")
		add("biclique.joiner_load_spread", paced.spread, "ratio")
		add("biclique.results_per_tuple", float64(paced.results)/float64(paced.tuples), "ratio")
		add("runtime.alloc_bytes_per_tuple", float64(st.AllocBytes)/float64(paced.tuples), "B")
		add("runtime.gc_cycles", float64(st.GCCycles), "count")
		add("runtime.gc_pause_ms", st.GCPauseTotalUs/1e3, "ms")
		out = append(out,
			metric{Name: "paced_lat_p99_ms", Value: paced.p99Ms, Unit: "ms", Samples: paced.samples},
			metric{Name: "paced_lag_max_ms", Value: paced.lagMaxMs, Unit: "ms", Samples: paced.tuples})
		add("paced.cpu_share", paced.cpuShare, "ratio")
	}
	if phase != "paced" {
		add("trace.overhead_pct", overhead, "%")
		add("sat_cpu_s_per_mtuple", sat.cpuPerMTuple, "s/Mtuple")
		add("sat.cpu_share", sat.cpuShare, "ratio")
	}
	add("reference.single_thread_tuples_per_s", in.pacedRef.tuplesPerSec, "tuples/s")

	timings, err := layerTimings(c, in, int(paced.stats.MigratedKeys))
	if err != nil {
		return nil, err
	}
	tf.Timings = timings
	for _, t := range timings {
		out = append(out, metric{Name: t.Name, Value: t.Value, Unit: t.Unit, Samples: int64(t.Calls)})
	}
	path, err := writeTrace(c.outDir, tf)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans written to %s\n", c.spec.Name, len(tf.Spans), path)
	return out, nil
}
