package biclique

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fastjoin/internal/chaos"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// churnWindow is the churn scenario's time window. It must comfortably
// exceed the wall time the tuple traffic takes to settle: every tuple's
// event time is within nanoseconds of workload creation, so all salted
// shares expire together at creation+window — after the last probe has
// been processed (keeping the windowed result equal to the full-history
// reference) but early enough that the test can watch the drain rounds
// complete.
const churnWindow = 10 * time.Second

// makeChurnWorkload is the retire scenario: a hot phase (first 40%, two
// heavy hitters at ~50% bias) that forces splits, then a uniform cold
// tail long enough — a dozen detector epochs per dispatcher task — that
// every split key cools below the hysteresis and deactivates before the
// traffic ends, even when a profile's drops push the activation several
// epochs into the tail. Retirement then rides on wall clock alone: the
// window expires the residual shares and the drain handshake empties the
// table.
func makeChurnWorkload(n int, seed int64) []stream.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]stream.Tuple, 0, n)
	var rSeq, sSeq uint64
	now := stream.Now()
	pick := func(i int) stream.Key {
		if i*100 < n*40 && rng.Float64() < 0.5 {
			return stream.Key(rng.Intn(2)) // two hot keys, hot phase only
		}
		return stream.Key(10 + rng.Intn(28))
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			tuples = append(tuples, stream.Tuple{
				Side: stream.R, Key: pick(i), Seq: rSeq, EventTime: now + int64(i),
			})
			rSeq++
		} else {
			tuples = append(tuples, stream.Tuple{
				Side: stream.S, Key: pick(i), Seq: sSeq, EventTime: now + int64(i),
			})
			sSeq++
		}
	}
	return tuples
}

// runChurn executes one seeded churn run: split-enabled, windowed stores,
// fault profile applied. After the data traffic settles it keeps the
// system running — the stats ticks drive the window Advance, the members'
// drain reports, and the dispatcher's retires — and polls the gauges
// until the split table is empty again. That emptiness is the scenario's
// bounded-memory claim: every key that ever split is accounted for as
// retired, with no entry, taint, or salted share left behind, so split
// state cannot accumulate across hot-key churn. The pair set must equal
// the brute-force reference exactly.
func runChurn(t *testing.T, profileName string, seed uint64, mutate ...func(*Config)) *System {
	t.Helper()
	profile, err := chaos.Lookup(profileName)
	if err != nil {
		t.Fatal(err)
	}
	tuples := makeChurnWorkload(6000, int64(seed)+200)
	cfg := chaosBaseConfig(seed)
	cfg.Window = churnWindow
	cfg.Chaos = chaos.NewInjector(profile, int64(seed))
	enableSplit(&cfg)
	// Migration off: a joiner mid-migration of a key defers the split ack,
	// and with the hot phase finite an unlucky schedule can starve the
	// handshake until the key cools — leaving nothing to retire and the
	// scenario void. The split×migration interleavings have their own
	// differential (TestSplitMigrateUnsplitInterleaving, the base matrix);
	// this matrix isolates the drain protocol, whose liveness must not
	// depend on migration timing.
	cfg.Migration = MigrationConfig{}
	for _, m := range mutate {
		m(&cfg)
	}

	col := newPairCollector()
	cfg.EmitResults = true
	cfg.OnResult = col.add
	// Paced: the scenario's liveness claim — splits activate, cool, and
	// retire — assumes the stream arrives over time rather than as one
	// burst. On a loaded single-core box a burst lets the spout and
	// dispatcher race the entire finite workload through before the owner
	// joiner is ever scheduled, so the ack returns after the hot keys have
	// cooled and the pending is abandoned — a void run. The sleep points
	// (several per detector epoch) bound how far the dispatcher can run
	// ahead of the handshake round trip.
	cfg.Sources = []TupleSource{paced(sliceSource(tuples))}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitChaosSettled(t, sys)

	met := sys.Metrics()
	// Generous headroom past the window expiry: the drain itself needs
	// only a few stats ticks, but on a loaded single-core box (the full
	// suite, concurrent CI jobs) wall clock stretches several-fold.
	deadline := time.Now().Add(churnWindow + 90*time.Second)
	for met.SplitKeys.Value() != 0 || met.ResidualKeys.Value() != 0 || met.KeysRetired.Value() == 0 {
		if time.Now().After(deadline) {
			sys.Stop()
			t.Fatalf("split table never drained: split=%d splits=%d residual=%d retired=%d",
				met.SplitKeys.Value(), met.KeysSplit.Value(),
				met.ResidualKeys.Value(), met.KeysRetired.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	sys.Stop()

	if met.KeysSplit.Value() == 0 {
		t.Error("churn run never split a key: the lifecycle went unexercised")
	}
	counts := cfg.Chaos.Counts()
	t.Logf("profile=%s seed=%d: splits=%d unsplits=%d retired=%d faults=%+v",
		profileName, seed, met.KeysSplit.Value(), met.KeysUnsplit.Value(),
		met.KeysRetired.Value(), counts)
	assertExactlyOnce(t, referenceJoin(tuples, cfg.Predicate), col.snapshot())
	return sys
}

// TestChaosChurnRetire is the retire differential matrix: under every
// fault profile, splits must occur, cool, drain, and retire — the split
// table returning to empty — while the emitted pair set stays exactly
// the brute-force reference. SplitDrained is droppable (re-announced
// every tick) and SplitRetire is a fenced data-lane mark, so the drain
// handshake must survive drops, delays, and duplicates unaided.
func TestChaosChurnRetire(t *testing.T) {
	profiles := []string{"droponly", "delayonly", "duponly", "mixed"}
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for _, profile := range profiles {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			profile, seed := profile, seed
			t.Run(fmt.Sprintf("%s/seed=%d", profile, seed), func(t *testing.T) {
				t.Parallel()
				runChurn(t, profile, seed)
			})
		}
	}
}

// TestChurnRetireTraceSpans runs the churn scenario fault-free with the
// tracer attached: every span must validate, and — because the run ends
// with the split table empty — every split span must have reached a
// terminal event, with at least one full
// pending→activate→residual→drained→retire lifecycle on record.
func TestChurnRetireTraceSpans(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	sys := runChurn(t, "none", 3, func(c *Config) { c.Tracer = tr })
	traceSpanCheck(t, sys, tr)

	splitSpans, retires := 0, 0
	for _, s := range obs.Spans(tr.Snapshot()) {
		if !s.ID.SplitSpan() {
			continue
		}
		splitSpans++
		switch s.Terminal() {
		case obs.KindSplitRetire:
			retires++
		case obs.KindSplitAbandon:
		default:
			t.Errorf("split span %v left dangling after the table drained: %v", s.ID, kindsOf(s))
		}
	}
	if splitSpans == 0 {
		t.Error("no split spans recorded")
	}
	if retires == 0 {
		t.Error("no split span ended in retire; the full lifecycle never traced")
	}
	if got := int(sys.Metrics().KeysRetired.Value()); got != retires {
		t.Errorf("retire spans = %d, KeysRetired counter = %d", retires, got)
	}
}
