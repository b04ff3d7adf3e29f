package sim

import (
	"testing"

	"fastjoin/internal/workload"
)

// baseline returns a small but non-trivial simulation config.
func baseline(strategy Strategy, migration bool, theta float64) Config {
	return Config{
		Instances:   8,
		ServiceRate: 20000,
		ArrivalRate: 30000,
		Duration:    10,
		WindowSpan:  2,
		Strategy:    strategy,
		Migration:   migration,
		Theta:       theta,
		CooldownSec: 1,
		SamplerR:    workload.NewZipfShuffled(5000, 1.0, 11),
		SamplerS:    workload.NewZipfShuffled(5000, 1.0, 12),
		SPerR:       3,
		SampleEvery: 0.5,
		Seed:        7,
	}
}

func TestValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Instances = 0 },
		func(c *Config) { c.ServiceRate = 0 },
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.SamplerR = nil },
		func(c *Config) { c.Strategy = StrategyRandom; c.Migration = true },
	}
	for i, mutate := range cases {
		cfg := baseline(StrategyHash, false, 2.2)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := baseline(StrategyHash, true, 1.8)
		cfg.Duration = 5
		// Fresh samplers per run: they carry rng state.
		cfg.SamplerR = workload.NewZipfShuffled(2000, 1.0, 11)
		cfg.SamplerS = workload.NewZipfShuffled(2000, 1.0, 12)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Results != b.Results || a.Processed != b.Processed || a.Migrations != b.Migrations {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
	if a.MeanLatencySec != b.MeanLatencySec {
		t.Errorf("latency differs: %v vs %v", a.MeanLatencySec, b.MeanLatencySec)
	}
}

func TestIngestMatchesArrivalRate(t *testing.T) {
	cfg := baseline(StrategyHash, false, 2.2)
	cfg.Duration = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(cfg.ArrivalRate * cfg.Duration)
	if res.Ingested < want*95/100 || res.Ingested > want*105/100 {
		t.Errorf("ingested %d, want ~%d", res.Ingested, want)
	}
	if res.Results == 0 {
		t.Error("no join results produced")
	}
	if res.MeanLatencySec <= 0 {
		t.Error("no latency recorded")
	}
	if len(res.Throughput) == 0 || len(res.LI) == 0 {
		t.Error("series not recorded")
	}
}

func TestUniformWorkloadBalanced(t *testing.T) {
	cfg := baseline(StrategyHash, false, 2.2)
	cfg.SamplerR = workload.NewUniform(5000, 11)
	cfg.SamplerS = workload.NewUniform(5000, 12)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SteadyLI > 3 {
		t.Errorf("uniform workload LI = %.2f, want small", res.SteadyLI)
	}
}

func TestSkewedWorkloadImbalancedWithoutMigration(t *testing.T) {
	cfg := baseline(StrategyHash, false, 2.2)
	cfg.SamplerR = workload.NewZipfShuffled(5000, 1.5, 11)
	cfg.SamplerS = workload.NewZipfShuffled(5000, 1.5, 12)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SteadyLI < 3 {
		t.Errorf("skewed BiStream LI = %.2f, want large", res.SteadyLI)
	}
	if res.Migrations != 0 {
		t.Errorf("baseline migrated %d times", res.Migrations)
	}
}

func TestMigrationReducesImbalance(t *testing.T) {
	mk := func(migration bool) *Result {
		cfg := baseline(StrategyHash, migration, 2.2)
		cfg.SamplerR = workload.NewZipfShuffled(5000, 1.0, 11)
		cfg.SamplerS = workload.NewZipfShuffled(5000, 1.0, 12)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	bistream := mk(false)
	fastjoin := mk(true)
	if fastjoin.Migrations == 0 {
		t.Fatal("FastJoin never migrated under skew")
	}
	if fastjoin.SteadyLI >= bistream.SteadyLI {
		t.Errorf("migration did not reduce LI: FastJoin %.2f vs BiStream %.2f",
			fastjoin.SteadyLI, bistream.SteadyLI)
	}
}

// TestPaperScaleFastJoinWins is the headline reproduction at the paper's
// instance count: 48 join instances per side, overloaded skewed input;
// FastJoin must beat BiStream on throughput and latency.
func TestPaperScaleFastJoinWins(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation skipped in short mode")
	}
	mk := func(migration bool) *Result {
		cfg := Config{
			Instances:   48,
			ServiceRate: 20000,
			// Offered load ~ 60% of aggregate nominal capacity: far above
			// what the skew-bottlenecked instances can absorb.
			ArrivalRate: 250000,
			Duration:    20,
			WindowSpan:  2,
			Strategy:    StrategyHash,
			Migration:   migration,
			Theta:       2.2,
			CooldownSec: 1,
			SamplerR:    workload.NewZipfPerm(100000, 0.95, 11, 99),
			SamplerS:    workload.NewZipfPerm(100000, 0.9, 12, 99),
			SPerR:       4,
			SampleEvery: 1,
			Seed:        7,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	bistream := mk(false)
	fastjoin := mk(true)
	t.Logf("BiStream: thr=%.0f lat=%.3fs LI=%.1f", bistream.MeanThroughput, bistream.MeanLatencySec, bistream.SteadyLI)
	t.Logf("FastJoin: thr=%.0f lat=%.3fs LI=%.1f migrations=%d", fastjoin.MeanThroughput, fastjoin.MeanLatencySec, fastjoin.SteadyLI, fastjoin.Migrations)
	if fastjoin.MeanThroughput <= bistream.MeanThroughput {
		t.Errorf("FastJoin throughput %.0f <= BiStream %.0f",
			fastjoin.MeanThroughput, bistream.MeanThroughput)
	}
	if fastjoin.MeanLatencySec >= bistream.MeanLatencySec {
		t.Errorf("FastJoin latency %.4f >= BiStream %.4f",
			fastjoin.MeanLatencySec, bistream.MeanLatencySec)
	}
	if fastjoin.SteadyLI >= bistream.SteadyLI {
		t.Errorf("FastJoin LI %.2f >= BiStream %.2f", fastjoin.SteadyLI, bistream.SteadyLI)
	}
}

func TestWindowBoundsState(t *testing.T) {
	run := func(window float64) int64 {
		cfg := baseline(StrategyHash, false, 2.2)
		cfg.WindowSpan = window
		cfg.SamplerR = workload.NewUniform(100, 11)
		cfg.SamplerS = workload.NewUniform(100, 12)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Results
	}
	full := run(0)
	windowed := run(1)
	// A window strictly bounds |R_k| and therefore total matches.
	if windowed >= full {
		t.Errorf("windowed results %d >= full-history %d", windowed, full)
	}
}

func TestContRandSpreadsHotKey(t *testing.T) {
	mk := func(strategy Strategy) *Result {
		cfg := baseline(strategy, false, 2.2)
		cfg.SamplerR = workload.NewZipfShuffled(5000, 1.5, 11)
		cfg.SamplerS = workload.NewZipfShuffled(5000, 1.5, 12)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	hash := mk(StrategyHash)
	contrand := mk(StrategyContRand)
	// ContRand's subgroup spreading should reduce the steady imbalance
	// versus plain hash under heavy skew.
	if contrand.SteadyLI >= hash.SteadyLI {
		t.Errorf("ContRand LI %.2f >= hash LI %.2f", contrand.SteadyLI, hash.SteadyLI)
	}
}

func TestBroadcastStrategyRuns(t *testing.T) {
	cfg := baseline(StrategyRandom, false, 2.2)
	cfg.Duration = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Results == 0 {
		t.Error("broadcast produced no results")
	}
}

func TestSelectorSwap(t *testing.T) {
	cfg := baseline(StrategyHash, true, 1.8)
	cfg.Duration = 5
	cfg.SamplerR = workload.NewZipfShuffled(2000, 1.2, 11)
	cfg.SamplerS = workload.NewZipfShuffled(2000, 1.2, 12)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Migrations == 0 {
		t.Skip("no migrations triggered; selector comparison moot")
	}
	if res.MigratedTuples == 0 {
		t.Error("migrations moved no tuples")
	}
}

// TestDriftingHotspotAdaptation is the scenario the paper's introduction
// motivates: workloads shift over time, so no static assignment stays
// balanced. FastJoin re-migrates as the hot set moves; the BiStream
// baseline degrades each time the hotspot lands on an already-loaded
// instance.
func TestDriftingHotspotAdaptation(t *testing.T) {
	mk := func(migration bool) *Result {
		cfg := baseline(StrategyHash, migration, 2.2)
		cfg.Duration = 16
		cfg.CooldownSec = 0.5
		// The hot set rotates roughly every ~2 virtual seconds of arrivals.
		period := int64(cfg.ArrivalRate) * 2 / int64(cfg.SPerR+1)
		cfg.SamplerR = workload.NewDriftingZipf(5000, 1.3, period, 997, 11, 5)
		cfg.SamplerS = workload.NewDriftingZipf(5000, 1.3, period*int64(cfg.SPerR), 997, 12, 5)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	bistream := mk(false)
	fastjoin := mk(true)
	t.Logf("drift BiStream: thr=%.0f LI=%.1f", bistream.MeanThroughput, bistream.SteadyLI)
	t.Logf("drift FastJoin: thr=%.0f LI=%.1f migrations=%d", fastjoin.MeanThroughput, fastjoin.SteadyLI, fastjoin.Migrations)
	if fastjoin.Migrations < 4 {
		t.Errorf("FastJoin should keep migrating as the hotspot drifts: %d", fastjoin.Migrations)
	}
	if fastjoin.SteadyLI >= bistream.SteadyLI {
		t.Errorf("FastJoin LI %.2f >= BiStream %.2f under drift", fastjoin.SteadyLI, bistream.SteadyLI)
	}
}

func TestChaosPresets(t *testing.T) {
	for _, name := range []string{"", "none", "droponly", "delayonly", "duponly", "mixed"} {
		if _, err := ChaosPreset(name); err != nil {
			t.Errorf("preset %q: %v", name, err)
		}
	}
	if _, err := ChaosPreset("no-such-preset"); err == nil {
		t.Error("unknown preset did not error")
	}
	cfg := baseline(StrategyHash, false, 2.2)
	cfg.Chaos.StallProb = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range chaos probability did not error")
	}
}

func TestChaosStallsSlowLatency(t *testing.T) {
	run := func(c Chaos) *Result {
		cfg := baseline(StrategyHash, false, 2.2)
		cfg.Chaos = c
		cfg.SamplerR = workload.NewZipfShuffled(2000, 0, 11)
		cfg.SamplerS = workload.NewZipfShuffled(2000, 0, 12)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	clean := run(Chaos{})
	stalled := run(Chaos{StallProb: 0.5, StallSec: 0.2})
	t.Logf("mean latency: clean %.4fs stalled %.4fs", clean.MeanLatencySec, stalled.MeanLatencySec)
	if stalled.MeanLatencySec <= clean.MeanLatencySec {
		t.Errorf("stalls did not raise latency: %.5f <= %.5f",
			stalled.MeanLatencySec, clean.MeanLatencySec)
	}
	// Chaos draws are seeded: identical configs replay exactly.
	if again := run(Chaos{StallProb: 0.5, StallSec: 0.2}); again.Results != stalled.Results ||
		again.MeanLatencySec != stalled.MeanLatencySec {
		t.Errorf("chaos run not deterministic: %+v vs %+v", again, stalled)
	}
}
