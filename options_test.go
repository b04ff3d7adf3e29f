package fastjoin

import (
	"strings"
	"testing"
	"time"
)

func TestValidateDefaults(t *testing.T) {
	o := Options{Kind: KindFastJoin, Windowing: WindowOptions{Span: time.Second}}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Joiners != 4 || o.Dispatchers != 2 || o.Shufflers != 2 || o.QueueSize != 1024 {
		t.Errorf("topology defaults: joiners=%d dispatchers=%d shufflers=%d queue=%d",
			o.Joiners, o.Dispatchers, o.Shufflers, o.QueueSize)
	}
	if o.Migration.Theta != 2.2 || o.Migration.Cooldown != time.Second ||
		o.Migration.SustainTicks != 3 || o.Migration.MinBenefit != 1 {
		t.Errorf("migration defaults: %+v", o.Migration)
	}
	if o.Batching.Size != DefaultBatchSize || o.Batching.Linger != 2*time.Millisecond {
		t.Errorf("batch defaults: %+v", o.Batching)
	}
	if o.Windowing.SubWindows != 8 {
		t.Errorf("sub-window default: %d", o.Windowing.SubWindows)
	}
	if o.Observe.TraceCapacity != 4096 {
		t.Errorf("trace capacity default: %d", o.Observe.TraceCapacity)
	}
	// Idempotent: a second pass changes nothing.
	before := o
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Migration != before.Migration || o.Batching != before.Batching ||
		o.Windowing != before.Windowing || o.Observe != before.Observe {
		t.Error("Validate is not idempotent")
	}

	// Baselines do not get migration defaults forced on them.
	b := Options{Kind: KindBiStream}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Migration.Theta != 0 {
		t.Errorf("baseline got migration defaults: %+v", b.Migration)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"bad store kind", Options{StoreKind: StoreKind(9)}, "unknown store"},
		{"bad chaos kind", Options{Chaos: ChaosOptions{Profile: ChaosProfile(9)}}, "unknown chaos profile"},
		{"bad kind", Options{Kind: Kind(42)}, "unknown system kind"},
		{"negative batch", Options{Batching: BatchOptions{Size: -1}}, "batch"},
		{"negative window", Options{Windowing: WindowOptions{Span: -time.Second}}, "window"},
		{"split threshold over one", Options{Kind: KindFastJoin,
			Migration: MigrationOptions{SplitThreshold: 1.5}}, "SplitThreshold"},
		{"split threshold negative", Options{Kind: KindFastJoin,
			Migration: MigrationOptions{SplitThreshold: -0.1}}, "SplitThreshold"},
		{"split on baseline", Options{Kind: KindBiStream,
			Migration: MigrationOptions{SplitThreshold: 0.2}}, "FastJoin kind"},
	}
	for _, c := range cases {
		err := c.o.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestStoreKindRoundTrip(t *testing.T) {
	for k, want := range map[StoreKind]string{StoreChunked: "chunked", StoreMap: "map", StoreKind(9): "StoreKind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("StoreKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestChaosProfileRoundTrip(t *testing.T) {
	all := []ChaosProfile{ChaosNone, ChaosDropOnly, ChaosDelayOnly, ChaosDupOnly, ChaosMixed}
	for _, p := range all {
		got, err := ParseChaosProfile(p.String())
		if err != nil || got != p {
			t.Errorf("ParseChaosProfile(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParseChaosProfile(""); err != nil || p != ChaosNone {
		t.Errorf(`ParseChaosProfile("") = %v, %v; want none`, p, err)
	}
	if _, err := ParseChaosProfile("bogus"); err == nil {
		t.Error("bogus profile accepted")
	}
}
