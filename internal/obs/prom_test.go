package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenFamilies is a fixed exposition exercising every formatting path:
// help escaping, label escaping, summary suffixes, float and integral
// values, and numeric label ordering.
func goldenFamilies() []Family {
	inst := Family{
		Name: "fastjoin_instance_load",
		Help: "Per-instance load L_i = |R_i|*phi_si.",
		Type: TypeGauge,
	}
	for _, task := range []string{"0", "1", "2", "10"} {
		inst.Samples = append(inst.Samples, Sample{
			Labels: L("side", "R", "instance", task),
			Value:  float64(len(task)) * 100,
		})
	}
	// Deliberately shuffled; SortSamples must order 0,1,2,10 numerically.
	inst.Samples[0], inst.Samples[3] = inst.Samples[3], inst.Samples[0]
	SortSamples(&inst)
	// Three labels, the shape of the per-instance store memory family.
	store := Family{
		Name: "fastjoin_store_bytes",
		Help: "Store memory per join instance.",
		Type: TypeGauge,
	}
	for _, kind := range []string{"reserved", "live"} {
		store.Samples = append(store.Samples, Sample{
			Labels: L("side", "S", "instance", "3", "kind", kind),
			Value:  float64(len(kind)) * 65536,
		})
	}
	return []Family{
		{
			Name: "fastjoin_results_total", Help: "Joined pairs emitted.",
			Type:    TypeCounter,
			Samples: []Sample{{Value: 123456}},
		},
		{
			Name: "fastjoin_latency_us",
			Help: "Latency summary with\na newline and a back\\slash in help.",
			Type: TypeSummary,
			Samples: []Sample{
				{Labels: L("quantile", "0.95"), Value: 1234.5},
				{Labels: L("quantile", "0.99"), Value: 0.000125},
				{Suffix: "_sum", Value: 98765.5},
				{Suffix: "_count", Value: 42},
			},
		},
		inst,
		store,
		{
			Name: "fastjoin_info", Help: "Escaped label value below.",
			Type:    TypeGauge,
			Samples: []Sample{{Labels: L("system", `Fast"Join\v1`), Value: 1}},
		},
		{
			Name:    "fastjoin_untyped_default",
			Samples: []Sample{{Value: -7}},
		},
	}
}

// TestWritePromGolden pins the exact exposition bytes. Run with -update to
// regenerate testdata/metrics.golden after an intentional format change.
func TestWritePromGolden(t *testing.T) {
	fams := goldenFamilies()
	if err := Validate(fams); err != nil {
		t.Fatalf("golden families invalid: %v", err)
	}
	var b strings.Builder
	if err := WriteProm(&b, fams); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestWritePromLineShape(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, goldenFamilies()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		// Every sample line is "name{labels} value" or "name value".
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	// Summary suffixes attach to the family name.
	if !strings.Contains(b.String(), "fastjoin_latency_us_sum 98765.5") {
		t.Error("summary _sum series missing")
	}
	if !strings.Contains(b.String(), "fastjoin_latency_us_count 42") {
		t.Error("summary _count series missing")
	}
	if !strings.Contains(b.String(), `quantile="0.99"`) {
		t.Error("quantile label missing")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		fams []Family
	}{
		{"empty name", []Family{{Name: ""}}},
		{"bad charset", []Family{{Name: "fastjoin-results"}}},
		{"leading digit", []Family{{Name: "0fastjoin"}}},
		{"duplicate", []Family{{Name: "a_total"}, {Name: "a_total"}}},
		{"bad label", []Family{{Name: "a_total", Samples: []Sample{{Labels: L("bad-label", "x")}}}}},
	}
	for _, c := range cases {
		if err := Validate(c.fams); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := Validate(goldenFamilies()); err != nil {
		t.Errorf("golden families rejected: %v", err)
	}
}

func TestL(t *testing.T) {
	got := L("a", "1", "b", "2")
	if len(got) != 2 || got[0] != (Label{"a", "1"}) || got[1] != (Label{"b", "2"}) {
		t.Fatalf("L = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd L() argument count did not panic")
		}
	}()
	L("only-one")
}
