package biclique

import (
	"testing"
	"time"

	"fastjoin/internal/engine"
	"fastjoin/internal/stream"
)

// newTestJoiner builds a joinerBolt outside a running topology; only the
// pure paths (keyStats, consume) are exercised.
func newTestJoiner(t *testing.T, cfg Config) *joinerBolt {
	t.Helper()
	cfg.Sources = []TupleSource{func() (stream.Tuple, bool) { return stream.Tuple{}, false }}
	if cfg.JoinersPerSide == 0 {
		cfg.JoinersPerSide = 2
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := &joinerBolt{cfg: &cfg, side: stream.R, met: NewSystemMetrics(cfg.JoinersPerSide)}
	b.Prepare(engine.Context{Component: CompJoinerR, Task: 0, Parallelism: cfg.JoinersPerSide}, nil)
	return b
}

func TestKeyStatsCombinesStoreAndProbes(t *testing.T) {
	b := newTestJoiner(t, Config{})
	b.store.Add(stream.Tuple{Key: 1, Seq: 0})
	b.store.Add(stream.Tuple{Key: 1, Seq: 1})
	b.store.Add(stream.Tuple{Key: 2, Seq: 2})
	b.probeCur[1] = 10
	b.probePrev[1] = 10
	b.probeCur[3] = 5 // probe-only key

	stats := b.keyStats(20) // aggregate equals raw total: scale 1
	byKey := map[stream.Key][2]int64{}
	for _, ks := range stats {
		byKey[ks.Key] = [2]int64{ks.Stored, ks.Probe}
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %v", stats)
	}
	if byKey[1] != [2]int64{2, 16} { // 20/25 scale: 20*(20/25)=16
		t.Errorf("key 1 = %v", byKey[1])
	}
	if byKey[2] != [2]int64{1, 0} {
		t.Errorf("key 2 = %v", byKey[2])
	}
	if byKey[3][0] != 0 || byKey[3][1] != 4 { // 5*(20/25)=4
		t.Errorf("key 3 = %v", byKey[3])
	}
}

func TestKeyStatsRescalesToAggregate(t *testing.T) {
	b := newTestJoiner(t, Config{})
	b.store.Add(stream.Tuple{Key: 1, Seq: 0})
	b.probeCur[1] = 4
	b.probeCur[2] = 4

	// Aggregate probe pressure is 10x the raw counts (the monitor's φ
	// includes the backlog): per-key probes scale up proportionally.
	stats := b.keyStats(80)
	var total int64
	for _, ks := range stats {
		total += ks.Probe
	}
	if total != 80 {
		t.Errorf("scaled probe total = %d, want 80", total)
	}
}

func TestKeyStatsTruncatesNoise(t *testing.T) {
	b := newTestJoiner(t, Config{})
	// 100 noise keys with one probe each, plus one hot key.
	for k := stream.Key(0); k < 100; k++ {
		b.probeCur[k] = 1
	}
	b.probeCur[500] = 900
	// Aggregate is a tenth of raw: noise keys must round down to zero,
	// not up to one (which would inflate their benefit 10x).
	stats := b.keyStats(100)
	for _, ks := range stats {
		if ks.Key != 500 && ks.Probe != 0 {
			t.Fatalf("noise key %d kept probe %d", ks.Key, ks.Probe)
		}
		if ks.Key == 500 && ks.Probe != 90 {
			t.Fatalf("hot key probe = %d, want 90", ks.Probe)
		}
	}
}

func TestKeyStatsZeroAggregate(t *testing.T) {
	b := newTestJoiner(t, Config{})
	b.probeCur[1] = 7
	stats := b.keyStats(0) // no aggregate info: keep raw counts
	if len(stats) != 1 || stats[0].Probe != 7 {
		t.Errorf("stats = %v", stats)
	}
}

func TestConsumeDisabledByDefault(t *testing.T) {
	b := newTestJoiner(t, Config{})
	start := time.Now()
	for i := 0; i < 1000; i++ {
		b.consume(100)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("consume slept although ServiceRate is zero")
	}
}

func TestConsumePacesAtServiceRate(t *testing.T) {
	b := newTestJoiner(t, Config{ServiceRate: 10000})
	start := time.Now()
	// 500 ops at 10k ops/s should take ~50ms of virtual time.
	for i := 0; i < 50; i++ {
		b.consume(10)
	}
	elapsed := time.Since(start)
	if elapsed < 25*time.Millisecond {
		t.Errorf("consume too fast: %v for 500 ops at 10k/s", elapsed)
	}
	if elapsed > 300*time.Millisecond {
		t.Errorf("consume too slow: %v", elapsed)
	}
}

// Regression: probe() used to observe stream.Now() - SentAt for every
// probe, so tuples replayed from a migration flush carried stamps stale
// by the whole handshake and every migration spiked the latency tail by
// its own wall-time. Replays must be metered separately instead.
func TestReplayedTuplesSkipLatencyHistogram(t *testing.T) {
	b := newTestJoiner(t, Config{})
	b.handleTuple(TupleMsg{T: stream.Tuple{Side: stream.R, Key: 5, Seq: 1}, Op: OpStore, SentAt: stream.Now()}, nil)

	// A fresh probe lands in the histogram.
	b.handleTuple(TupleMsg{T: stream.Tuple{Side: stream.S, Key: 5, Seq: 1}, Op: OpProbe, SentAt: stream.Now()}, nil)
	if got := b.met.Latency.Count(); got != 1 {
		t.Fatalf("fresh probe: latency samples = %d, want 1", got)
	}

	// A migration flush replays a probe whose SentAt is 10s stale — the
	// real replay path: install an inbound batch, then flush it.
	stale := stream.Now() - int64(10*time.Second)
	b.installBatch(MigrateBatch{Side: stream.R, From: 1, Epoch: 1, Keys: []stream.Key{9}})
	b.handleFlush(MigrateFlush{Side: stream.R, From: 1, Epoch: 1, Queued: []TupleMsg{
		{T: stream.Tuple{Side: stream.S, Key: 5, Seq: 2}, Op: OpProbe, SentAt: stale},
	}}, nil)

	if got := b.met.Latency.Count(); got != 1 {
		t.Fatalf("replayed probe entered the latency histogram: samples = %d, want 1", got)
	}
	if max := b.met.Latency.Max(); max > int64(5*time.Second) {
		t.Errorf("latency tail polluted by stale stamp: max = %v", time.Duration(max))
	}
	if got := b.met.ReplayedTuples.Count(); got != 1 {
		t.Errorf("ReplayedTuples = %d, want 1", got)
	}
}

// Regression: consume() only ever grew ops while opsSince stayed fixed,
// so an idle spell banked unbounded service credit and a following burst
// ran entirely unthrottled — under-modeling exactly the overload the
// balancer is supposed to detect. The deficit must be clamped to one
// burst window.
func TestConsumeThrottlesAfterIdle(t *testing.T) {
	b := newTestJoiner(t, Config{ServiceRate: 10000})
	// Emulate 10 minutes of idle: wall clock far ahead of virtual time.
	b.opsSince = time.Now().Add(-10 * time.Minute)
	start := time.Now()
	for i := 0; i < 50; i++ {
		b.consume(10) // 500 ops = 50ms of virtual time at 10k ops/s
	}
	elapsed := time.Since(start)
	// The clamp leaves at most burstWindow (20ms) of credit, so at least
	// ~30ms of the 50ms virtual cost must be slept off.
	if elapsed < 20*time.Millisecond {
		t.Errorf("burst after idle ran unthrottled: %v for 500 ops at 10k/s", elapsed)
	}
	if elapsed > 300*time.Millisecond {
		t.Errorf("consume too slow: %v", elapsed)
	}
}
