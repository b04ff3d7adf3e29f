package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the part of the root BENCHMARK.json the smoke test
// holds the program to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeConfig shrinks a workload to about a second: a 300 ms window instead
// of 2 s, 0.6 s sat and 0.9 s paced.
func smokeConfig(t *testing.T, name string, trace bool) config {
	c, err := newConfig(name, 42, 1.5, trace, "", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if c.spec.Span > 0 {
		c.spec.Span = 300 * time.Millisecond
	}
	c.sat, c.paced = 600*time.Millisecond, 900*time.Millisecond
	c.latencyEvery, c.maxCPUShare = 1, math.Inf(1)
	return c
}

// TestSmoke runs every workload at about one second's scale and holds the
// output to BENCHMARK.json: the correctness check passes, and every metric
// the file names is reported once with a finite value, by every workload.
// Per-layer names are the same for all workloads, so two traced runs (one
// windowed and capacity-emulated, one full-history) stand for the five.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(bj.Workloads), len(specs))
	}
	traced := map[string]bool{"hotkey_churn_capacity": true, "zipf_scan_host": true}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the table has %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
			continue
		}
		check := func(trace bool, want []struct{ Name, Unit string }) {
			res, err := runOne(smokeConfig(t, w.Name, trace), "")
			if err != nil {
				t.Errorf("%s (trace %v): %v", w.Name, trace, err)
				return
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				case !ok:
					t.Errorf("%s (trace %v): metric %s not reported", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				}
			}
		}
		check(false, bj.EndToEnd)
		if traced[w.Name] {
			check(true, bj.PerLayer)
		}
	}
}
