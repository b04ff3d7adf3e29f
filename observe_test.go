package fastjoin

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fastjoin/internal/obs"
)

func startObserved(t testing.TB, n int) *System {
	t.Helper()
	sys, err := New(Options{
		Kind:    KindFastJoin,
		Joiners: 2,
		Sources: []TupleSource{finiteSource(n, 8)},
		Observe: ObserveOptions{Addr: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, string(body)
}

// TestObserveEndpoint boots a real system with an ephemeral observability
// endpoint and scrapes it end to end: /metrics must be valid Prometheus
// text exposition carrying the per-instance and migration families,
// /stats.json and /trace.json must decode.
func TestObserveEndpoint(t *testing.T) {
	sys := startObserved(t, 2000)
	if err := sys.WaitComplete(time.Minute); err != nil {
		t.Fatal(err)
	}
	addr := sys.ObserveAddr()
	if addr == "" {
		t.Fatal("ObserveAddr empty with Observe.Addr set")
	}
	base := "http://" + addr

	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, family := range []string{
		"fastjoin_results_total",
		"fastjoin_ingested_total",
		"fastjoin_instance_load",
		"fastjoin_store_bytes",
		"fastjoin_load_imbalance",
		"fastjoin_engine_queue_depth",
		"fastjoin_engine_queue_high_water",
		"fastjoin_migrations_total",
		"fastjoin_trace_events_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// Per-instance samples are labeled by side and instance.
	if !strings.Contains(body, `fastjoin_instance_load{side="R",instance="0"}`) {
		t.Errorf("/metrics missing per-instance load sample:\n%s", body)
	}

	// Store memory is labeled by side, instance and kind, and Stats sums it.
	for _, kind := range []string{"reserved", "live"} {
		if !strings.Contains(body, `fastjoin_store_bytes{side="S",instance="1",kind="`+kind+`"}`) {
			t.Errorf("/metrics missing store bytes sample of kind %s", kind)
		}
	}
	// The numbers ride the joiners' load reports: wait for the first tick
	// after the (full-history) run, by which every stored tuple is counted.
	st := sys.Stats()
	for deadline := time.Now().Add(10 * time.Second); st.StoreLiveBytes == 0 && time.Now().Before(deadline); st = sys.Stats() {
		time.Sleep(10 * time.Millisecond)
	}
	if st.StoreLiveBytes <= 0 || st.StoreReservedBytes < st.StoreLiveBytes {
		t.Errorf("Stats store bytes: reserved=%d live=%d after a completed run", st.StoreReservedBytes, st.StoreLiveBytes)
	}

	resp, body = get(t, base+"/stats.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats.json status %d", resp.StatusCode)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/stats.json does not decode: %v", err)
	}
	if _, ok := stats["results"]; !ok {
		t.Errorf("/stats.json missing results: %v", stats)
	}

	resp, body = get(t, base+"/trace.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace.json status %d", resp.StatusCode)
	}
	var trace []map[string]any
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace.json does not decode: %v", err)
	}

	if resp, _ := get(t, base+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof status %d", resp.StatusCode)
	}

	// The exposition itself must satisfy the validator the unit tests pin.
	src := (*obsSource)(sys)
	if err := obs.Validate(src.ObsFamilies()); err != nil {
		t.Errorf("live families invalid: %v", err)
	}
}

// TestObserveAddrInUse checks that New surfaces an endpoint bind failure
// instead of leaking a half-started system.
func TestObserveAddrInUse(t *testing.T) {
	sys := startObserved(t, 100)
	_, err := New(Options{
		Kind:    KindFastJoin,
		Joiners: 2,
		Sources: []TupleSource{finiteSource(100, 8)},
		Observe: ObserveOptions{Addr: sys.ObserveAddr()},
	})
	if err == nil {
		t.Fatal("New bound the same observability address twice")
	}
	if !strings.Contains(err.Error(), "observability endpoint") {
		t.Errorf("error does not name the endpoint: %v", err)
	}
}

// BenchmarkObsScrape measures a full /metrics render against a live
// system — the cost a Prometheus scrape interval pays.
func BenchmarkObsScrape(b *testing.B) {
	sys := startObserved(b, 5000)
	if err := sys.WaitComplete(time.Minute); err != nil {
		b.Fatal(err)
	}
	src := (*obsSource)(sys)
	var sink strings.Builder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if err := obs.WriteProm(&sink, src.ObsFamilies()); err != nil {
			b.Fatal(err)
		}
	}
}
