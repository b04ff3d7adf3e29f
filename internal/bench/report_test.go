package bench

import (
	"strings"
	"testing"
	"time"
)

func sampleReport() *Report {
	r := &Report{
		ID:      "figX",
		Title:   "sample",
		XLabel:  "t",
		Columns: []string{"a", "b"},
	}
	r.AddRow("1s", 100, 2.5)
	r.AddRow("2s", 2000000, 0.125)
	r.AddNote("note %d", 42)
	return r
}

func TestReportRender(t *testing.T) {
	var sb strings.Builder
	if err := sampleReport().Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"## figX — sample", "t", "a", "b", "100", "2000000", "2.500", "* note 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Errorf("render too short: %d lines", len(lines))
	}
}

func TestReportCSV(t *testing.T) {
	var sb strings.Builder
	if err := sampleReport().CSV(&sb); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3", len(lines))
	}
	if lines[0] != "t,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1s,100,2.500" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestFormatCell(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		100:     "100",
		2.5:     "2.500",
		123.456: "123",
		-5:      "-5",
		0.001:   "0.001",
	}
	for v, want := range cases {
		if got := formatCell(v); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	d := DefaultParams()
	if p.Joiners != d.Joiners || p.Theta != d.Theta || p.Keys != d.Keys {
		t.Errorf("defaults not applied: %+v", p)
	}
	if p.ServiceRate != d.ServiceRate {
		t.Errorf("ServiceRate default missing: %+v", p)
	}
}

func TestParamsQuickShrinks(t *testing.T) {
	p := Params{Quick: true}.withDefaults()
	d := DefaultParams()
	if p.Duration >= d.Duration || p.TupleBudget >= d.TupleBudget {
		t.Errorf("quick did not shrink: %+v", p)
	}
	if p.Joiners > 4 {
		t.Errorf("quick joiners = %d", p.Joiners)
	}
}

func TestParamsExplicitPreserved(t *testing.T) {
	p := Params{Joiners: 32, Duration: 9 * time.Second, Theta: 3.3}.withDefaults()
	if p.Joiners != 32 || p.Duration != 9*time.Second || p.Theta != 3.3 {
		t.Errorf("explicit params overridden: %+v", p)
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("experiments = %d, want 9", len(all))
	}
	// Every paper figure id (plus the ablation) must be covered.
	for _, id := range []string{
		"fig1a", "fig1b", "fig1ab", "fig1c", "fig1d", "fig1cd",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ablation",
	} {
		if Find(id) == nil {
			t.Errorf("figure %s not covered by any experiment", id)
		}
	}
	if Find("fig99") != nil {
		t.Error("unknown figure should not resolve")
	}
	// IDs unique.
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestCoversSelf(t *testing.T) {
	e := &Experiment{ID: "x", Aliases: []string{"y"}}
	if !e.Covers("x") || !e.Covers("y") || e.Covers("z") {
		t.Error("Covers logic wrong")
	}
}

func TestFig1abExperiment(t *testing.T) {
	// fig1ab is pure generation (no topology): cheap enough for a unit test.
	e := Find("fig1ab")
	reps, err := e.Run(Params{Quick: true, TupleBudget: 20000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	rep := reps[0]
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (orders, tracks)", len(rep.Rows))
	}
	// Shape check: both streams heavily skewed — well under 40% of keys
	// carry 80% of mass.
	for _, row := range rep.Rows {
		if row.Cells[0] > 40 {
			t.Errorf("%s: keys for 80%% mass = %.1f%%, want < 40%%", row.X, row.Cells[0])
		}
	}
}

func TestMeanTail(t *testing.T) {
	xs := []float64{100, 100, 2, 4}
	if got := meanTail(xs, 0.5); got != 3 {
		t.Errorf("meanTail = %f, want 3", got)
	}
	if got := meanTail(nil, 0.5); got != 0 {
		t.Errorf("meanTail(nil) = %f", got)
	}
	if got := meanTail([]float64{7}, 0.1); got != 7 {
		t.Errorf("meanTail single = %f", got)
	}
}

func TestIntLabels(t *testing.T) {
	got := intLabels([]int{1, 22})
	if got[0] != "1" || got[1] != "22" {
		t.Errorf("intLabels = %v", got)
	}
}

func TestIsqrtInt(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 9: 3, 10000: 100} {
		if got := isqrtInt(n); got != want {
			t.Errorf("isqrtInt(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFig1cdExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timed experiment smoke test skipped in short mode")
	}
	e := Find("fig1cd")
	reps, err := e.Run(Params{Quick: true, Seed: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(reps) != 2 {
		t.Fatalf("reports = %d, want 2 (loads + throughput)", len(reps))
	}
	if len(reps[0].Columns) == 0 || len(reps[0].Rows) == 0 {
		t.Errorf("load report empty: %+v", reps[0])
	}
	if len(reps[1].Rows) == 0 {
		t.Errorf("throughput report empty")
	}
	// The throughput series must contain non-zero samples.
	nonZero := false
	for _, row := range reps[1].Rows {
		if len(row.Cells) > 0 && row.Cells[0] > 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Error("throughput series all zero")
	}
}
