package core

import (
	"testing"
	"time"
)

func balancedLoads() []InstanceLoad {
	return []InstanceLoad{
		{Instance: 0, Stored: 100, Probe: 10},
		{Instance: 1, Stored: 100, Probe: 10},
	}
}

func skewedLoads() []InstanceLoad {
	return []InstanceLoad{
		{Instance: 0, Stored: 1000, Probe: 100}, // 100000
		{Instance: 1, Stored: 100, Probe: 100},  // 10000
	}
}

func TestMonitorTriggersOnImbalance(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 2.2, Cooldown: time.Second, MinStored: 1, SustainTicks: 1})
	now := time.Now()
	d := m.Evaluate(now, skewedLoads())
	if d == nil {
		t.Fatal("expected a migration decision")
	}
	if d.Source.Instance != 0 || d.Target.Instance != 1 {
		t.Errorf("decision %+v, want source 0 target 1", d)
	}
	if d.LI != 10 {
		t.Errorf("LI = %f, want 10", d.LI)
	}
	if d.ID != 1 {
		t.Errorf("first decision ID = %d, want 1", d.ID)
	}
	if !m.InFlight() {
		t.Error("monitor should mark migration in flight")
	}
}

func TestMonitorNoTriggerWhenBalanced(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 2.2, Cooldown: time.Second, MinStored: 1, SustainTicks: 1})
	if d := m.Evaluate(time.Now(), balancedLoads()); d != nil {
		t.Errorf("unexpected decision %+v", d)
	}
}

func TestMonitorInFlightSuppression(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 2.2, Cooldown: time.Nanosecond, MinStored: 1, SustainTicks: 1})
	now := time.Now()
	d := m.Evaluate(now, skewedLoads())
	if d == nil {
		t.Fatal("first evaluation should trigger")
	}
	if d := m.Evaluate(now.Add(time.Hour), skewedLoads()); d != nil {
		t.Errorf("in-flight migration not suppressed: %+v", d)
	}
	if !m.Done(d.ID) {
		t.Error("Done of the in-flight ID should re-arm")
	}
	next := m.Evaluate(now.Add(2*time.Hour), skewedLoads())
	if next == nil {
		t.Fatal("after Done the monitor should trigger again")
	}
	if next.ID != d.ID+1 {
		t.Errorf("next decision ID = %d, want %d", next.ID, d.ID+1)
	}
}

// TestMonitorDoneNeedsInFlightID: only a report that reaches the
// in-flight decision's ID re-arms the monitor. A late report of an
// earlier decision, a repeated one, or an ID the monitor never issued
// leaves the decision in flight.
func TestMonitorDoneNeedsInFlightID(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 2.2, Cooldown: time.Nanosecond, MinStored: 1, SustainTicks: 1})
	now := time.Now()
	first := m.Evaluate(now, skewedLoads())
	if first == nil || !m.Done(first.ID) {
		t.Fatal("first decision should trigger and complete")
	}
	second := m.Evaluate(now.Add(time.Second), skewedLoads())
	if second == nil {
		t.Fatal("second evaluation should trigger")
	}
	for _, id := range []uint64{0, first.ID, first.ID, second.ID + 1} {
		if m.Done(id) {
			t.Errorf("Done(%d) re-armed with decision %d in flight", id, second.ID)
		}
		if !m.InFlight() {
			t.Fatalf("Done(%d) cleared decision %d", id, second.ID)
		}
		if d := m.Evaluate(now.Add(time.Hour), skewedLoads()); d != nil {
			t.Fatalf("Done(%d) let a second decision through: %+v", id, d)
		}
	}
	if !m.Done(second.ID) || m.InFlight() {
		t.Fatal("Done of the in-flight ID must re-arm")
	}
	if m.Done(second.ID) {
		t.Error("a repeated Done must not report a second re-arm")
	}
}

func TestMonitorCooldown(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 2.2, Cooldown: time.Minute, MinStored: 1, SustainTicks: 1})
	now := time.Now()
	d := m.Evaluate(now, skewedLoads())
	if d == nil {
		t.Fatal("first evaluation should trigger")
	}
	m.Done(d.ID)
	if d := m.Evaluate(now.Add(time.Second), skewedLoads()); d != nil {
		t.Errorf("cooldown violated: %+v", d)
	}
	if m.Evaluate(now.Add(2*time.Minute), skewedLoads()) == nil {
		t.Error("cooldown elapsed but no trigger")
	}
}

func TestMonitorMinStored(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 1.5, Cooldown: time.Nanosecond, MinStored: 10000, SustainTicks: 1})
	if d := m.Evaluate(time.Now(), skewedLoads()); d != nil {
		t.Errorf("MinStored not honored: %+v", d)
	}
}

func TestMonitorTooFewInstances(t *testing.T) {
	m := NewMonitor(DefaultMonitorPolicy())
	if d := m.Evaluate(time.Now(), skewedLoads()[:1]); d != nil {
		t.Errorf("single instance triggered migration: %+v", d)
	}
}

func TestMonitorThetaBoundary(t *testing.T) {
	// LI exactly equal to Theta must NOT trigger (strictly greater).
	m := NewMonitor(MonitorPolicy{Theta: 10, Cooldown: time.Nanosecond, MinStored: 1, SustainTicks: 1})
	if d := m.Evaluate(time.Now(), skewedLoads()); d != nil {
		t.Errorf("LI == Theta should not trigger: %+v", d)
	}
	m2 := NewMonitor(MonitorPolicy{Theta: 9.99, Cooldown: time.Nanosecond, MinStored: 1, SustainTicks: 1})
	if m2.Evaluate(time.Now(), skewedLoads()) == nil {
		t.Error("LI > Theta should trigger")
	}
}

func TestMonitorPolicyDefaults(t *testing.T) {
	m := NewMonitor(MonitorPolicy{})
	p := m.Policy()
	if p.Theta != 2.2 || p.Cooldown != time.Second {
		t.Errorf("defaults = %+v", p)
	}
	// Theta <= 1 is nonsensical (LI >= 1 always): replaced by default.
	m = NewMonitor(MonitorPolicy{Theta: 0.5})
	if m.Policy().Theta != 2.2 {
		t.Errorf("Theta 0.5 should be replaced, got %f", m.Policy().Theta)
	}
}

func TestMonitorHysteresis(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 2.2, Cooldown: time.Nanosecond, MinStored: 1, SustainTicks: 3})
	now := time.Now()
	if m.Evaluate(now, skewedLoads()) != nil {
		t.Fatal("first observation must not trigger with SustainTicks=3")
	}
	if m.Evaluate(now.Add(time.Millisecond), skewedLoads()) != nil {
		t.Fatal("second observation must not trigger")
	}
	if m.Evaluate(now.Add(2*time.Millisecond), skewedLoads()) == nil {
		t.Fatal("third consecutive observation should trigger")
	}
}

func TestMonitorHysteresisResetsWhenBalanced(t *testing.T) {
	m := NewMonitor(MonitorPolicy{Theta: 2.2, Cooldown: time.Nanosecond, MinStored: 1, SustainTicks: 2})
	now := time.Now()
	m.Evaluate(now, skewedLoads())
	// A balanced observation resets the streak.
	m.Evaluate(now.Add(time.Millisecond), balancedLoads())
	if m.Evaluate(now.Add(2*time.Millisecond), skewedLoads()) != nil {
		t.Fatal("streak should have been reset by the balanced observation")
	}
}

func TestMonitorTargetProtection(t *testing.T) {
	m := NewMonitor(MonitorPolicy{
		Theta: 1.5, Cooldown: time.Nanosecond, MinStored: 1,
		SustainTicks: 1, TargetProtection: time.Hour,
	})
	now := time.Now()
	d := m.Evaluate(now, skewedLoads())
	if d == nil {
		t.Fatal("expected initial trigger")
	}
	m.Done(d.ID)
	// Now the previous target (instance 1) reports as the heaviest; it
	// must be protected from immediately becoming the source.
	flipped := []InstanceLoad{
		{Instance: 0, Stored: 100, Probe: 100},
		{Instance: 1, Stored: 1000, Probe: 100},
	}
	if got := m.Evaluate(now.Add(time.Millisecond), flipped); got != nil {
		t.Fatalf("protected target became source: %+v", got)
	}
	// After the protection window it may be selected.
	if m.Evaluate(now.Add(2*time.Hour), flipped) == nil {
		t.Fatal("protection should expire")
	}
}

func TestDefaultMonitorPolicyMatchesPaper(t *testing.T) {
	if got := DefaultMonitorPolicy().Theta; got != 2.2 {
		t.Errorf("default Theta = %f, want the paper's 2.2", got)
	}
}
