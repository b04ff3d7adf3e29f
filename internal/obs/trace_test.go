package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanIDPacking(t *testing.T) {
	cases := []struct {
		side   uint8
		source int
		epoch  uint64
	}{
		{0, 0, 1},
		{1, 3, 17},
		{0, 32767, 1 << 40},
		{1, 7, 0xffffffffffff},
	}
	for _, c := range cases {
		id := NewSpanID(c.side, c.source, c.epoch)
		if id.Side() != c.side || id.Source() != c.source || id.Epoch() != c.epoch {
			t.Errorf("NewSpanID(%d,%d,%d) round-tripped to (%d,%d,%d)",
				c.side, c.source, c.epoch, id.Side(), id.Source(), id.Epoch())
		}
	}
	if got := NewSpanID(1, 3, 17).String(); got != "S/3/17" {
		t.Errorf("String() = %q, want S/3/17", got)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for e := uint64(1); e <= 6; e++ {
		tr.Emit(Event{Kind: KindTrigger, Span: NewSpanID(0, 1, e), Epoch: e})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want capacity 4", got)
	}
	if got := tr.Emitted(); got != 6 {
		t.Fatalf("Emitted = %d, want 6", got)
	}
	if got := tr.Evicted(); got != 2 {
		t.Fatalf("Evicted = %d, want 2", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(i + 3); ev.Epoch != want || ev.Seq != want {
			t.Errorf("snapshot[%d]: epoch=%d seq=%d, want %d (oldest first)", i, ev.Epoch, ev.Seq, want)
		}
		if ev.At == 0 {
			t.Errorf("snapshot[%d]: At not stamped", i)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindTrigger}) // must not panic
	if tr.Len() != 0 || tr.Emitted() != 0 || tr.Evicted() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer must report zeros")
	}
}

func TestKindJSONAndString(t *testing.T) {
	b, err := json.Marshal(KindRouteApplied)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"route-applied"` {
		t.Fatalf("marshal = %s", b)
	}
	for k := KindNone; k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// ev is shorthand for building span event sequences with increasing Seq.
func evs(kinds ...Kind) []Event {
	id := NewSpanID(0, 2, 9)
	out := make([]Event, len(kinds))
	for i, k := range kinds {
		out[i] = Event{Seq: uint64(i + 1), Span: id, Kind: k}
	}
	return out
}

func TestSpanErr(t *testing.T) {
	valid := [][]Event{
		// Committed migration: full handshake, flush, commit; target's
		// install and replay trail the source's commit (concurrency), the
		// monitor's done comes last.
		evs(KindTrigger, KindSelect, KindFence, KindRouteApplied, KindMarker,
			KindMarker, KindFlush, KindInstall, KindCommit, KindReplay, KindDone),
		// Empty selection: trigger, select, noop.
		evs(KindTrigger, KindSelect, KindNoop, KindDone),
	}
	for i, events := range valid {
		if err := (Span{ID: events[0].Span, Events: events}).Err(); err != nil {
			t.Errorf("valid span %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"no trigger", evs(KindSelect, KindNoop)},
		{"no select", evs(KindTrigger, KindNoop)},
		{"marker before fence", evs(KindTrigger, KindSelect, KindMarker)},
		{"flush without marker", evs(KindTrigger, KindSelect, KindFence, KindFlush)},
		{"commit without flush", evs(KindTrigger, KindSelect, KindFence, KindMarker, KindCommit)},
		{"noop after fence", evs(KindTrigger, KindSelect, KindFence, KindNoop)},
		{"event after terminal", evs(KindTrigger, KindSelect, KindNoop, KindFence)},
		{"no terminal", evs(KindTrigger, KindSelect, KindFence, KindMarker)},
	}
	for _, c := range invalid {
		span := Span{ID: NewSpanID(0, 2, 9), Events: c.events}
		if err := span.Err(); err == nil {
			t.Errorf("%s: invalid span accepted", c.name)
		}
	}

	// Out-of-order Seq within a span is a tracer bug worth catching.
	events := evs(KindTrigger, KindSelect, KindNoop)
	events[2].Seq = 1
	if err := (Span{ID: events[0].Span, Events: events}).Err(); err == nil {
		t.Error("out-of-Seq span accepted")
	}
}

func TestSpansGrouping(t *testing.T) {
	a := NewSpanID(0, 1, 1)
	b := NewSpanID(1, 2, 1)
	events := []Event{
		{Seq: 1, Span: a, Kind: KindTrigger},
		{Seq: 2, Span: b, Kind: KindTrigger},
		{Seq: 3, Span: 0, Kind: KindDone}, // no span: skipped
		{Seq: 4, Span: a, Kind: KindSelect},
		{Seq: 5, Span: b, Kind: KindSelect},
		{Seq: 6, Span: a, Kind: KindNoop},
		{Seq: 7, Span: b, Kind: KindNoop},
	}
	spans := Spans(events)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != a || spans[1].ID != b {
		t.Fatalf("span order: %v, %v (want first-appearance order a, b)", spans[0].ID, spans[1].ID)
	}
	for _, s := range spans {
		if len(s.Events) != 3 {
			t.Errorf("span %v: %d events, want 3", s.ID, len(s.Events))
		}
		if s.Terminal() != KindNoop {
			t.Errorf("span %v: terminal %v, want noop", s.ID, s.Terminal())
		}
		if err := s.Err(); err != nil {
			t.Errorf("span %v: %v", s.ID, err)
		}
	}
}
