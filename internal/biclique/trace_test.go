package biclique

import (
	"sort"
	"sync/atomic"
	"testing"

	"fastjoin/internal/obs"
)

// traceSpanCheck validates a settled run's trace: every span complete and
// correctly ordered per obs.Span.Err, migrations of one side strictly
// serial (sideSerialCheck), terminal counts matching the migration
// counters, and no events outside a span. It returns the (commit,
// rollback) span counts so sweeps can assert coverage.
func traceSpanCheck(t *testing.T, sys *System, tr *obs.Tracer) (int64, int64) {
	t.Helper()
	if tr.Evicted() != 0 {
		t.Fatalf("trace ring evicted %d events; size the test tracer larger", tr.Evicted())
	}
	events := tr.Snapshot()
	for i, ev := range events {
		if ev.Span == 0 {
			t.Errorf("event %d (%v) has no span", i, ev.Kind)
		}
	}
	spans := obs.Spans(events)
	sideSerialCheck(t, spans)
	var commits, rollbacks, noops int64
	for _, s := range spans {
		if err := s.Err(); err != nil {
			t.Errorf("incomplete or mis-ordered span: %v\n  events: %v", err, kindsOf(s))
			continue
		}
		switch s.Terminal() {
		case obs.KindCommit:
			commits++
		case obs.KindRollback:
			rollbacks++
		case obs.KindNoop:
			noops++
		}
	}
	m := sys.Metrics()
	if got := m.Migrations.Value(); commits != got {
		t.Errorf("commit spans = %d, Migrations counter = %d", commits, got)
	}
	if got := m.MigrationAborts.Value(); rollbacks != got {
		t.Errorf("rollback spans = %d, MigrationAborts counter = %d", rollbacks, got)
	}
	// Every completed migration in the log must have a matching span; the
	// log records commits and rollbacks, not noop attempts.
	if logged := int64(len(m.MigrationLog())); commits+rollbacks != logged {
		t.Errorf("terminal spans (%d commits + %d rollbacks) != migration log entries (%d)",
			commits, rollbacks, logged)
	}
	t.Logf("trace: %d events, %d spans (%d commit, %d rollback, %d noop)",
		len(events), len(spans), commits, rollbacks, noops)
	return commits, rollbacks
}

// sideSerialCheck asserts one migration per side: epochs are the side's
// decision IDs, and on each side every event of span d except the
// monitor's KindDone has a lower Seq than span d+1's KindTrigger — the
// source, target, and dispatchers are all finished with an attempt
// before the next one starts.
func sideSerialCheck(t *testing.T, spans []obs.Span) {
	t.Helper()
	var bySide [2][]obs.Span
	for _, s := range spans {
		if !s.ID.SplitSpan() {
			bySide[s.ID.Side()] = append(bySide[s.ID.Side()], s)
		}
	}
	for side, ss := range bySide {
		sort.Slice(ss, func(i, j int) bool { return ss[i].ID.Epoch() < ss[j].ID.Epoch() })
		for i := 1; i < len(ss); i++ {
			prev, next := ss[i-1], ss[i]
			if prev.ID.Epoch() == next.ID.Epoch() {
				t.Errorf("side %d: epoch %d has two spans, %v and %v", side, next.ID.Epoch(), prev.ID, next.ID)
				continue
			}
			var trigger uint64
			for _, ev := range next.Events {
				if ev.Kind == obs.KindTrigger {
					trigger = ev.Seq
					break
				}
			}
			for _, ev := range prev.Events {
				if ev.Kind != obs.KindDone && ev.Seq > trigger {
					t.Errorf("side %d: span %v's %v (seq %d) follows span %v's trigger (seq %d)",
						side, prev.ID, ev.Kind, ev.Seq, next.ID, trigger)
					break
				}
			}
		}
	}
}

func kindsOf(s obs.Span) []obs.Kind {
	out := make([]obs.Kind, len(s.Events))
	for i, ev := range s.Events {
		out[i] = ev.Kind
	}
	return out
}

// TestTraceSpansCleanRun checks that a fault-free skewed run produces one
// complete span per migration and that migrations actually happen (the
// trace has something to say) — on any host, hence the paced input.
func TestTraceSpansCleanRun(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	sys := runChaos(t, "none", 3, 6000, func(c *Config) {
		c.Tracer = tr
		c.Sources[0] = paced(c.Sources[0])
	})
	if sys.Metrics().Migrations.Value() == 0 {
		t.Fatal("run produced no migrations; trace test exercised nothing")
	}
	traceSpanCheck(t, sys, tr)
}

// TestTraceSpansUnderChaos seeds fault profiles that force retransmits,
// duplicate markers, and aborted handshakes, then asserts every migration
// attempt still yields a complete, correctly ordered span — the tracer's
// dedup (first route application, distinct markers) must hold under
// exactly the message weather that creates duplicates.
func TestTraceSpansUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos trace sweep is not short")
	}
	var commits, rollbacks atomic.Int64
	t.Run("sweep", func(t *testing.T) {
		for _, profile := range []string{"droponly", "duponly", "mixed", "abortstorm"} {
			profile := profile
			t.Run(profile, func(t *testing.T) {
				t.Parallel()
				for seed := uint64(1); seed <= 2; seed++ {
					tr := obs.NewTracer(1 << 16)
					sys := runChaos(t, profile, seed, 8000, func(c *Config) { c.Tracer = tr })
					c, r := traceSpanCheck(t, sys, tr)
					commits.Add(c)
					rollbacks.Add(r)
				}
			})
		}
	})
	// The sweep must exercise both terminal paths, or the span validation
	// proved nothing: abortstorm reliably forces rollbacks, the milder
	// profiles commit.
	if commits.Load() == 0 {
		t.Error("sweep produced no committed migration spans")
	}
	if rollbacks.Load() == 0 {
		t.Error("sweep produced no rollback spans")
	}
}
