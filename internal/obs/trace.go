// Package obs is FastJoin's live observability plane: a bounded,
// lock-cheap control-plane tracer for the migration protocol and a
// dependency-free Prometheus-text-format HTTP exporter.
//
// The paper's whole contribution is runtime-observable — per-instance load
// L_i = |R_i|·φ_si, the degree of load imbalance LI, and the phases of the
// key-migration protocol — yet snapshots alone cannot show a live system
// detect, fence, migrate, and rebalance. This package provides the
// introspection plane: internal/biclique feeds typed trace events into a
// Tracer, and the facade exposes them (plus metric families built from the
// system's counters and gauges) over HTTP.
//
// Design constraints, in order:
//
//   - Nothing here may touch the data plane. Events exist only for
//     control-plane transitions (migration protocol steps); there are no
//     per-tuple events, and a nil *Tracer no-ops every method so call
//     sites need no branches.
//   - Bounded memory. The event buffer is a fixed-capacity ring; under an
//     event storm old events are evicted, never allocated around.
//   - No dependencies. The exporter writes the Prometheus text exposition
//     format by hand; the HTTP server uses only net/http.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind is the type of one control-plane trace event. The taxonomy follows
// the migration protocol (Algorithm 2 plus the abort/rollback refinement);
// see DESIGN.md "Observability" for the span lifecycle.
type Kind uint8

const (
	// KindNone is the zero Kind; it never appears in emitted events.
	KindNone Kind = iota
	// KindTrigger opens a span: the migration source received the
	// monitor's command. Carries the triggering LI, the configured Θ, and
	// the chosen source/target instances.
	KindTrigger
	// KindSelect records the key selection: how many keys GreedyFit (or
	// SAFit) chose and their total migration benefit ΣF_k.
	KindSelect
	// KindNoop terminates a span whose selection chose nothing (or whose
	// gap closed before the command arrived): no routing changed.
	KindNoop
	// KindFence records the source broadcasting the routing update to all
	// dispatcher tasks — the start of the marker handshake.
	KindFence
	// KindRouteApplied records one dispatcher task applying the update
	// (first application only; re-deliveries are idempotent and silent).
	// Revert distinguishes the rollback update of an aborting attempt.
	KindRouteApplied
	// KindMarker records one dispatcher's forward marker reaching the
	// source (distinct dispatchers only — duplicates are not re-traced).
	KindMarker
	// KindInstall records the target installing the migrated batch.
	KindInstall
	// KindFlush records the source flushing its temporary queue to the
	// target after the forward-marker fence completed.
	KindFlush
	// KindReplay records buffered tuples being replayed: at the target
	// after a flush (commit path) or at the source after a rollback.
	KindReplay
	// KindCommit terminates a committed span: routing moved, the
	// temporary queue flushed, exactly-once preserved.
	KindCommit
	// KindAbort records the marker handshake timing out: the attempt
	// flips into the rollback protocol.
	KindAbort
	// KindRevertMarker records one dispatcher's revert marker arriving
	// (at the target or the source — Instance tells which end).
	KindRevertMarker
	// KindReturn records the target's rollback payload (installed batch
	// plus buffered tuples) reaching the source.
	KindReturn
	// KindRollback terminates an aborted span: routing restored, payload
	// re-installed, buffers replayed in original order.
	KindRollback
	// KindDone records the side's monitor seeing a load report whose
	// Done reached the span's decision ID and re-arming its trigger: both
	// ends are clean. It trails the span's terminal event; a span is
	// complete without it (a run can end before the next report lands).
	KindDone

	// The split-lifecycle kinds below open a second span family: one span
	// per split key's lifetime at its owning dispatcher task (pending →
	// active → residual → … → abandoned or retired), identified by
	// NewSplitSpanID. They never mix with migration spans.

	// KindSplitPending opens a split span: the detector promoted a heavy
	// hitter and the intent/ack handshake started. Carries the key.
	KindSplitPending
	// KindSplitActivate records the key switching to salted routing —
	// after the first handshake or again on a residual reheat, so it can
	// repeat within the span.
	KindSplitActivate
	// KindSplitResidual records a cool-down: salting stops, members keep
	// their shares, the drain phase begins. Repeats when a reheated key
	// cools again (each round bumps the residual generation).
	KindSplitResidual
	// KindSplitDrained records one member's first drain report of the
	// current generation (Target is the reporting instance).
	KindSplitDrained
	// KindSplitAbandon terminates a span whose key cooled off before the
	// intent/ack handshake completed: no salted routing ever started.
	KindSplitAbandon
	// KindSplitRetire terminates a retired span: every non-owner member
	// of both sides drained, the entry is deleted, routing unfreezes and
	// the taint lifts.
	KindSplitRetire

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:          "none",
	KindTrigger:       "trigger",
	KindSelect:        "select",
	KindNoop:          "noop",
	KindFence:         "fence",
	KindRouteApplied:  "route-applied",
	KindMarker:        "marker",
	KindInstall:       "install",
	KindFlush:         "flush",
	KindReplay:        "replay",
	KindCommit:        "commit",
	KindAbort:         "abort",
	KindRevertMarker:  "revert-marker",
	KindReturn:        "return",
	KindRollback:      "rollback",
	KindDone:          "done",
	KindSplitPending:  "split-pending",
	KindSplitActivate: "split-activate",
	KindSplitResidual: "split-residual",
	KindSplitDrained:  "split-drained",
	KindSplitAbandon:  "split-abandon",
	KindSplitRetire:   "split-retire",
}

// String names the kind as DESIGN.md's taxonomy does.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON renders the kind by name, so /trace.json reads as prose.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Terminal reports whether the kind ends a span's protocol work at the
// source. KindDone and the target's post-flush KindReplay may still trail
// a terminal event (they are causally downstream of it).
func (k Kind) Terminal() bool {
	if int(k) >= len(spanRules) {
		return false
	}
	return spanRules[k].Terminal
}

// KindRule is one kind's place in the migration span lifecycle. The rule
// constrains where the kind may appear relative to the kinds already seen
// in the same span (in Seq order).
type KindRule struct {
	// Requires lists kinds that must all have appeared earlier in the
	// span before this kind is valid.
	Requires []Kind
	// Forbids lists kinds that must not have appeared earlier.
	Forbids []Kind
	// Terminal marks the kinds that end the span's protocol work.
	Terminal bool
	// Trailing marks the kinds that may still appear after a terminal
	// event (they are causally downstream of it: the target runs
	// concurrently with the source's commit, and the monitor re-arms only
	// after the last step of the attempt).
	Trailing bool
}

// spanRules is the single source of truth for the migration-event state
// machine: one entry per emittable kind, encoding the causal skeleton of
// Algorithm 2 plus the abort/rollback refinement. Span.Err interprets it
// at runtime, and the spanstate analyzer (internal/lint) extracts it
// statically to check every tracer emit site in internal/biclique —
// adding a Kind constant or an emit site without a rule here fails lint,
// and so does weakening a rule the emit sites rely on. Keep the table
// keyed (spanstate reads the keys) and keep every emittable kind present,
// even when its rule is empty.
var spanRules = [numKinds]KindRule{
	KindTrigger:      {Forbids: []Kind{KindTrigger}},
	KindSelect:       {Requires: []Kind{KindTrigger}},
	KindNoop:         {Forbids: []Kind{KindFence}, Terminal: true},
	KindFence:        {Requires: []Kind{KindSelect}},
	KindRouteApplied: {},
	KindMarker:       {Requires: []Kind{KindFence}},
	KindInstall:      {Trailing: true},
	KindFlush:        {Requires: []Kind{KindMarker}},
	KindReplay:       {Trailing: true},
	KindCommit:       {Requires: []Kind{KindFlush}, Forbids: []Kind{KindAbort}, Terminal: true},
	KindAbort:        {Requires: []Kind{KindFence}},
	KindRevertMarker: {Requires: []Kind{KindAbort}},
	KindReturn:       {Requires: []Kind{KindAbort}},
	KindRollback:     {Requires: []Kind{KindReturn}, Terminal: true},
	KindDone:         {Trailing: true},
	// Split lifecycle. Activate repeats on reheats (no Forbids), residual
	// requires a preceding activation, and a retire requires residual —
	// but NOT a drained event: a split whose member sets hold no
	// non-owner instance retires the moment it cools, with zero reports.
	KindSplitPending:  {Forbids: []Kind{KindSplitPending}},
	KindSplitActivate: {Requires: []Kind{KindSplitPending}},
	KindSplitResidual: {Requires: []Kind{KindSplitActivate}},
	KindSplitDrained:  {Requires: []Kind{KindSplitResidual}},
	KindSplitAbandon:  {Requires: []Kind{KindSplitPending}, Forbids: []Kind{KindSplitActivate}, Terminal: true},
	KindSplitRetire:   {Requires: []Kind{KindSplitResidual}, Terminal: true},
}

// Rule returns the lifecycle rule for k (the zero rule for out-of-range
// kinds). It exposes the shared table read-only for tests and tooling.
func (k Kind) Rule() KindRule {
	if int(k) >= len(spanRules) {
		return KindRule{}
	}
	return spanRules[k]
}

// SpanID identifies one migration attempt: (side, source instance, epoch)
// packed into 64 bits. Every event of the attempt — from the source, the
// target, the dispatchers, and the monitor — carries the same SpanID.
type SpanID uint64

// NewSpanID packs (side, source, epoch). Side uses the top bit, the source
// instance the next 15, the source's attempt epoch the low 48.
func NewSpanID(side uint8, source int, epoch uint64) SpanID {
	return SpanID(uint64(side&1)<<63 | uint64(source&0x7fff)<<48 | epoch&0xffffffffffff)
}

// Side returns the biclique side bit (0 = R, 1 = S).
func (id SpanID) Side() uint8 { return uint8(id >> 63) }

// Source returns the migration source instance.
func (id SpanID) Source() int { return int(id >> 48 & 0x7fff) }

// Epoch returns the source's attempt epoch.
func (id SpanID) Epoch() uint64 { return uint64(id) & 0xffffffffffff }

// splitSpanBit marks a split-lifecycle span inside the SpanID's 15-bit
// source field, keeping the two span families disjoint: a dispatcher
// task index can never reach 0x4000, so no split span collides with a
// migration span.
const splitSpanBit = 0x4000

// NewSplitSpanID packs the identity of one split key's lifecycle span:
// the owning dispatcher task (tagged with splitSpanBit in the source
// field) and the task's split span sequence number. Side is 0 — a split
// spans both side groups.
func NewSplitSpanID(task int, seq uint64) SpanID {
	return NewSpanID(0, splitSpanBit|(task&0x3fff), seq)
}

// SplitSpan reports whether the span belongs to the split-lifecycle
// family.
func (id SpanID) SplitSpan() bool { return id.Source()&splitSpanBit != 0 }

// String renders "side/source/epoch" for migration spans and
// "split/task/seq" for split-lifecycle spans.
func (id SpanID) String() string {
	if id.SplitSpan() {
		return fmt.Sprintf("split/%d/%d", id.Source()&^splitSpanBit, id.Epoch())
	}
	side := "R"
	if id.Side() == 1 {
		side = "S"
	}
	return fmt.Sprintf("%s/%d/%d", side, id.Source(), id.Epoch())
}

// Event is one control-plane trace event. Fields beyond Kind/Span/At are
// populated per kind; zero values mean "not applicable".
type Event struct {
	// Seq is the tracer-assigned global sequence number. It is a total
	// order consistent with causality: an event emitted after receiving a
	// message always carries a higher Seq than the event traced before
	// that message was sent.
	Seq uint64 `json:"seq"`
	// At is the emission wall time in unix nanoseconds.
	At int64 `json:"at"`
	// Span ties the event to one migration attempt.
	Span SpanID `json:"span"`
	Kind Kind   `json:"kind"`
	// Side is the biclique side of the migration (0 = R, 1 = S).
	Side uint8 `json:"side"`
	// Instance is the task that emitted the event: a join instance for
	// joiner events, the dispatcher task for KindRouteApplied, -1 for the
	// monitor's KindDone.
	Instance int `json:"instance"`
	// Source and Target are the migration's endpoints.
	Source int `json:"source"`
	Target int `json:"target"`
	// Epoch is the source's attempt number (also packed in Span).
	Epoch uint64 `json:"epoch"`
	// Dispatcher is the acking dispatcher task for marker events.
	Dispatcher int `json:"dispatcher,omitempty"`
	// Keys and Moved count migrated keys and tuples (per kind: selected,
	// installed, flushed, replayed, returned…).
	Keys  int `json:"keys,omitempty"`
	Moved int `json:"moved,omitempty"`
	// Key is the subject key of a split-lifecycle event (migration events
	// carry key counts, never individual keys).
	Key uint64 `json:"key,omitempty"`
	// Benefit is the selection's total migration benefit ΣF_k.
	Benefit int64 `json:"benefit,omitempty"`
	// LI is the imbalance that triggered the span; Theta the configured Θ.
	LI    float64 `json:"li,omitempty"`
	Theta float64 `json:"theta,omitempty"`
	// Revert marks a KindRouteApplied of the rollback update.
	Revert bool `json:"revert,omitempty"`
}

// DefaultTraceCapacity is the ring capacity used when NewTracer is given
// a non-positive one. At ~160 bytes per event this bounds the tracer near
// 700 KiB — thousands of migrations of history, since a span is O(10)
// events.
const DefaultTraceCapacity = 4096

// Tracer is a bounded ring buffer of trace events. All methods are safe
// for concurrent use and all no-op on a nil receiver, so producers hold
// no conditional wiring. Emission takes one short mutex-guarded critical
// section and never allocates: the ring is carved once at construction.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int    // ring write cursor
	full    bool   // the ring has wrapped at least once
	seq     uint64 // events ever emitted
	evicted uint64 // events overwritten by the ring
}

// NewTracer returns a tracer with the given ring capacity
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit stamps and records one event. Seq and At are assigned here; the
// caller fills every other field.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	if ev.At == 0 {
		ev.At = now
	}
	if t.full {
		t.evicted++
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Emitted returns the total number of events ever emitted.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Evicted returns how many events the ring has overwritten.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Snapshot copies the buffered events, oldest first.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Span is the event sequence of one migration attempt, in Seq order.
type Span struct {
	ID     SpanID
	Events []Event
}

// Spans groups events by SpanID, preserving Seq order within each span
// and ordering spans by their first event. Events with a zero SpanID are
// skipped.
func Spans(events []Event) []Span {
	index := make(map[SpanID]int)
	var out []Span
	for _, ev := range events {
		if ev.Span == 0 {
			continue
		}
		i, ok := index[ev.Span]
		if !ok {
			i = len(out)
			index[ev.Span] = i
			out = append(out, Span{ID: ev.Span})
		}
		out[i].Events = append(out[i].Events, ev)
	}
	return out
}

// Terminal returns the span's terminal event kind (KindCommit,
// KindRollback, or KindNoop), or KindNone if the span has not finished.
func (s Span) Terminal() Kind {
	for _, ev := range s.Events {
		if ev.Kind.Terminal() {
			return ev.Kind
		}
	}
	return KindNone
}

// Err validates the span against the protocol's lifecycle and returns a
// description of the first violation, or nil for a complete, correctly
// ordered span. The per-kind rules — prerequisites, exclusions, terminal
// and trailing roles — come from spanRules, the same table the spanstate
// analyzer checks emit sites against; Err adds only the structural
// scaffolding the table cannot express (the span opens with trigger then
// select, Seq order is monotone, exactly one terminal event appears).
//
// The causal skeleton the table encodes:
//
//   - markers appear only inside the fence (after KindFence);
//   - a commit is preceded by the full forward-marker handshake and the
//     flush; a rollback by KindAbort, the revert markers, and KindReturn;
//   - only KindReplay and KindInstall (the target runs concurrently with
//     the marker handshake, so its events can trail the source's commit)
//     and KindDone may trail the terminal event.
//
// Split-lifecycle spans (NewSplitSpanID) validate against the same table
// with their own opening rule: the first event must be KindSplitPending,
// and the rules chain pending → activate → residual → drained/retire (or
// abandon) from there.
//
// The ring can evict a span's oldest events under an event storm; callers
// that need full validation should size the tracer generously. Err reports
// a truncated span (first event not the family's opener) as a violation.
func (s Span) Err() error {
	if len(s.Events) == 0 {
		return fmt.Errorf("span %v: empty", s.ID)
	}
	if s.ID.SplitSpan() {
		if s.Events[0].Kind != KindSplitPending {
			return fmt.Errorf("span %v: opens with %v, want split-pending", s.ID, s.Events[0].Kind)
		}
	} else {
		if s.Events[0].Kind != KindTrigger {
			return fmt.Errorf("span %v: opens with %v, want trigger", s.ID, s.Events[0].Kind)
		}
		if len(s.Events) < 2 || s.Events[1].Kind != KindSelect {
			return fmt.Errorf("span %v: trigger not followed by select", s.ID)
		}
	}
	var (
		terminal Kind
		seen     [numKinds]bool
		lastSeq  uint64
	)
	for i, ev := range s.Events {
		if ev.Seq < lastSeq {
			return fmt.Errorf("span %v: event %d (%v) out of Seq order", s.ID, i, ev.Kind)
		}
		lastSeq = ev.Seq
		if int(ev.Kind) >= int(numKinds) {
			return fmt.Errorf("span %v: unknown kind %d", s.ID, uint8(ev.Kind))
		}
		rule := spanRules[ev.Kind]
		if terminal != KindNone && !rule.Trailing {
			return fmt.Errorf("span %v: %v after terminal %v", s.ID, ev.Kind, terminal)
		}
		for _, req := range rule.Requires {
			if !seen[req] {
				return fmt.Errorf("span %v: %v without earlier %v", s.ID, ev.Kind, req)
			}
		}
		for _, bad := range rule.Forbids {
			if seen[bad] {
				return fmt.Errorf("span %v: %v after %v", s.ID, ev.Kind, bad)
			}
		}
		if rule.Terminal {
			terminal = ev.Kind
		}
		seen[ev.Kind] = true
	}
	if terminal == KindNone {
		return fmt.Errorf("span %v: no terminal event (last is %v)",
			s.ID, s.Events[len(s.Events)-1].Kind)
	}
	return nil
}
