package biclique

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/stream"
)

// laneShapes watches every enqueue (as the engine's fault hook, never
// faulting) and records any shuffler→dispatcher or dispatcher→joiner
// message that is not a batch of 1..size tuples.
type laneShapes struct {
	size int

	mu      sync.Mutex
	batches [2]int   // guarded by mu; ShuffleBatch and TupleBatch messages seen
	bad     []string // guarded by mu; the first few offenders
}

func (l *laneShapes) inject(target engine.Context, streamName string, _ bool, v any) engine.FaultDecision {
	n, hop := -1, 0
	switch {
	case target.Component == CompDispatcher && streamName == streamTuples:
		if b, ok := v.(ShuffleBatch); ok {
			n = len(b.Tuples)
		}
	case streamName == streamToR || streamName == streamToS:
		hop = 1
		if b, ok := v.(TupleBatch); ok {
			n = len(b.Msgs)
		}
	default:
		return engine.FaultDecision{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n >= 1 && n <= l.size {
		l.batches[hop]++
	} else if len(l.bad) < 5 {
		what := fmt.Sprintf("%T", v)
		if n >= 0 {
			what = fmt.Sprintf("%s of %d tuples", what, n)
		}
		l.bad = append(l.bad, fmt.Sprintf("%s on %s to %v", what, streamName, target))
	}
	return engine.FaultDecision{}
}

func (l *laneShapes) check(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.bad {
		t.Errorf("BatchSize %d: %s", l.size, b)
	}
	if l.batches[0] == 0 || l.batches[1] == 0 {
		t.Errorf("BatchSize %d: saw %d shuffle and %d tuple batches; want both hops observed", l.size, l.batches[0], l.batches[1])
	}
}

// TestBatchingExactlyOnceMatchesUnbatched runs the identical workload at
// several batch sizes and requires each to produce exactly the reference
// pair set, with every tuple on both data hops inside a batch of at most
// that size. Size 1 ships one-tuple batches through the same code as any
// other size; an odd size that never divides the lane traffic evenly is
// included so partial-batch flushes (linger/idle) carry real weight.
func TestBatchingExactlyOnceMatchesUnbatched(t *testing.T) {
	tuples := makeWorkload(6000, 50, 0.3, 11)
	want := referenceJoin(tuples, nil)
	for _, size := range []int{1, 7, DefaultBatchSize} {
		cfg := baseConfig()
		cfg.Strategy = StrategyHash
		cfg.BatchSize = size
		shapes := &laneShapes{size: size}
		cfg.Engine.Inject = shapes.inject
		_, got := runFinite(t, cfg, tuples)
		assertExactlyOnce(t, want, got)
		shapes.check(t)
	}
}

// TestBatchingExactlyOnceUnderMigration is the marker-fencing check for
// the batched data plane: migrations fire under heavy skew while lanes
// carry open batches, and exactly-once only holds if the dispatcher
// flushes every open batch BEFORE emitting a marker — otherwise tuples
// buffered in a lane would arrive after the marker they must precede.
// Size 1 is the degenerate lane that never holds an open batch.
func TestBatchingExactlyOnceUnderMigration(t *testing.T) {
	tuples := makeWorkload(8000, 40, 0.5, 6)
	pred := func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 }
	want := referenceJoin(tuples, pred)
	for _, size := range []int{1, DefaultBatchSize} {
		cfg := baseConfig()
		cfg.Strategy = StrategyHash
		cfg.Predicate = pred
		cfg.BatchSize = size
		cfg.BatchLinger = time.Millisecond
		cfg.Migration = MigrationConfig{
			Enabled: true,
			Policy: core.MonitorPolicy{
				Theta:     1.2,
				Cooldown:  25 * time.Millisecond,
				MinStored: 16,
			},
		}
		sys, got := runFinitePaced(t, cfg, tuples)
		assertExactlyOnce(t, want, got)
		if sys.Metrics().Migrations.Value() == 0 {
			t.Errorf("BatchSize %d: expected at least one migration; batched fencing untested otherwise", size)
		}
	}
}

// TestBatchConfigValidation pins the BatchSize knob semantics: zero means
// the default size, any positive size is kept as given, negatives are
// rejected.
func TestBatchConfigValidation(t *testing.T) {
	base := func() Config {
		cfg := baseConfig()
		cfg.Sources = []TupleSource{sliceSource(nil)}
		return cfg
	}
	cfg := base()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.BatchSize != DefaultBatchSize {
		t.Errorf("zero BatchSize resolved to %d, want default %d", cfg.BatchSize, DefaultBatchSize)
	}
	if cfg.BatchLinger <= 0 {
		t.Errorf("zero BatchLinger not defaulted: %v", cfg.BatchLinger)
	}

	cfg = base()
	cfg.BatchSize = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(BatchSize=1): %v", err)
	}
	if cfg.BatchSize != 1 {
		t.Errorf("BatchSize=1 rewritten to %d; an explicit size must be kept", cfg.BatchSize)
	}

	cfg = base()
	cfg.BatchSize = -3
	if err := cfg.Validate(); err == nil {
		t.Error("negative BatchSize accepted")
	}
}
