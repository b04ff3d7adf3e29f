package core

import (
	"time"
)

// MonitorPolicy configures the load-imbalance detector of one monitor
// (there is one monitor per biclique side, §III-A).
type MonitorPolicy struct {
	// Theta is the load imbalance threshold Θ: a migration is triggered
	// when LI = L_heaviest / L_lightest exceeds it. The paper's default
	// is 2.2.
	Theta float64
	// Cooldown is the minimum interval between two migration triggers.
	// The paper notes migrations "can never take place frequently": at
	// most one decision is in flight (see Done), and the cooldown spaces
	// the next one from the previous trigger.
	Cooldown time.Duration
	// MinStored is the minimum number of stored tuples the heaviest
	// instance must hold before migration is considered; it suppresses
	// spurious migrations during warm-up when all loads are tiny.
	MinStored int64
	// SustainTicks is how many consecutive evaluations must observe
	// LI > Theta before a migration triggers (default 3). Hysteresis
	// filters transient spikes — notably the backlog blob a migration
	// flush momentarily deposits on its target.
	SustainTicks int
	// TargetProtection is how long after a migration its target cannot be
	// selected as the next source (default 2 * Cooldown). Without it, the
	// flushed backlog makes the fresh target look like the new hot spot
	// and keys ping-pong.
	TargetProtection time.Duration
}

// DefaultMonitorPolicy returns the paper's default configuration
// (Θ = 2.2) with a conservative cooldown.
func DefaultMonitorPolicy() MonitorPolicy {
	return MonitorPolicy{Theta: 2.2, Cooldown: time.Second, MinStored: 64}
}

func (p MonitorPolicy) withDefaults() MonitorPolicy {
	if p.Theta <= 1 {
		p.Theta = 2.2
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
	if p.SustainTicks <= 0 {
		p.SustainTicks = 3
	}
	if p.TargetProtection <= 0 {
		p.TargetProtection = 2 * p.Cooldown
	}
	return p
}

// Decision is a migration trigger produced by the monitor: move load from
// the heaviest instance (Source) to the lightest (Target). It carries the
// target's aggregate statistics, which the source needs to run the key
// selection algorithm locally (§III-C: "The source instance I_{R-i}
// collects the statistics of the target instance").
type Decision struct {
	// ID numbers the monitor's decisions, starting at 1 and increasing
	// by one per decision. It names the migration attempt end to end:
	// the source uses it as the attempt's epoch, and completion is
	// reported back as this ID (see Monitor.Done).
	ID     uint64
	Source InstanceLoad
	Target InstanceLoad
	// LI is the imbalance degree that triggered the decision.
	LI float64
}

// Monitor is the decision state machine of one monitoring component. It is
// fed load snapshots and decides when a migration should start. It owns its
// side's single migration: a decision stays in flight until Done reports
// its ID, and no new decision is made meanwhile. Monitor is not safe for
// concurrent use; the owning monitor bolt serializes access.
type Monitor struct {
	policy MonitorPolicy

	lastTrigger time.Time
	// lastID is the ID of the latest decision; done is the highest
	// decision ID reported finished. A decision is in flight while
	// done < lastID.
	lastID uint64
	done   uint64

	sustained  int
	lastTarget int
	protectTil time.Time
}

// NewMonitor returns a monitor with the given policy (zero fields are
// filled with defaults).
func NewMonitor(policy MonitorPolicy) *Monitor {
	return &Monitor{policy: policy.withDefaults(), lastTarget: -1}
}

// Policy returns the effective policy.
func (m *Monitor) Policy() MonitorPolicy { return m.policy }

// Evaluate inspects a load snapshot and returns a migration decision, or
// nil when balanced, cooling down, or a migration is already in flight.
func (m *Monitor) Evaluate(now time.Time, loads []InstanceLoad) *Decision {
	if len(loads) < 2 || m.InFlight() {
		return nil
	}
	li, hi, lo := Imbalance(loads)
	if li <= m.policy.Theta || hi == lo {
		m.sustained = 0
		return nil
	}
	// The imbalance is real only if it persists: transient spikes (e.g.
	// the backlog a migration just flushed onto its target) must not
	// trigger a counter-migration.
	m.sustained++
	if m.sustained < m.policy.SustainTicks {
		return nil
	}
	if now.Sub(m.lastTrigger) < m.policy.Cooldown {
		return nil
	}
	if loads[hi].Stored < m.policy.MinStored {
		return nil
	}
	if loads[hi].Instance == m.lastTarget && now.Before(m.protectTil) {
		return nil
	}
	m.lastTrigger = now
	m.lastID++
	m.sustained = 0
	m.lastTarget = loads[lo].Instance
	m.protectTil = now.Add(m.policy.TargetProtection)
	return &Decision{ID: m.lastID, Source: loads[hi], Target: loads[lo], LI: li}
}

// Done records that every decision up to id has finished: its last step
// ran and neither end holds state for it. Reports may arrive late,
// duplicated, or out of order, so only the highest ID counts, and an ID
// the monitor never issued is ignored. Done returns true when the call
// completes the in-flight decision, re-arming Evaluate (after the
// cooldown).
func (m *Monitor) Done(id uint64) bool {
	if id <= m.done || id > m.lastID {
		return false
	}
	m.done = id
	return id == m.lastID
}

// InFlight reports whether the latest decision has not yet completed.
func (m *Monitor) InFlight() bool { return m.done < m.lastID }
