// fastjoin-node runs a stream join system as a network service, or feeds
// one — splitting tuple production and join processing across processes or
// hosts (the paper's Kafka-producers / Storm-cluster split).
//
// Join server (waits for -ingest client connections, joins their tuples,
// prints live stats, exits when every client closes; exits non-zero, naming
// the connection, when one breaks mid-stream):
//
//	fastjoin-node -listen 127.0.0.1:7100 -ingest 2 -joiners 8
//
// Workload client (streams a generated workload to a server):
//
//	fastjoin-node -connect 127.0.0.1:7100 -workload ridehailing -tuples 200000
//	fastjoin-node -connect 127.0.0.1:7100 -workload zipf -zipfR 1 -zipfS 1 -tuples 100000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastjoin"
	"fastjoin/internal/remote"
	"fastjoin/internal/transport"
)

func main() {
	var (
		listen  = flag.String("listen", "", "server mode: address to accept ingestion on")
		ingest  = flag.Int("ingest", 1, "server mode: ingestion connections to wait for")
		joiners = flag.Int("joiners", 8, "server mode: join instances per side")
		kind    = flag.String("system", "fastjoin", "server mode: fastjoin | bistream | contrand")
		theta   = flag.Float64("theta", 2.2, "server mode: load imbalance threshold Θ")
		observe = flag.String("observe", "", "server mode: observability endpoint address (e.g. :9144; serves /metrics, /stats.json, /trace.json, /debug/pprof)")

		connect = flag.String("connect", "", "client mode: server address to stream to")
		wl      = flag.String("workload", "ridehailing", "client mode: ridehailing | zipf")
		tuples  = flag.Int("tuples", 200000, "client mode: tuples to stream")
		rate    = flag.Float64("rate", 0, "client mode: tuples/second (0 = unlimited)")
		zipfR   = flag.Float64("zipfR", 1.0, "client mode: zipf workload R exponent")
		zipfS   = flag.Float64("zipfS", 1.0, "client mode: zipf workload S exponent")
		seed    = flag.Int64("seed", 7, "workload seed")
	)
	flag.Parse()

	switch {
	case *listen != "" && *connect != "":
		fatal(fmt.Errorf("choose one of -listen or -connect"))
	case *listen != "":
		serve(*listen, *ingest, *joiners, *kind, *theta, *observe)
	case *connect != "":
		feed(*connect, *wl, *tuples, *rate, *zipfR, *zipfS, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func serve(addr string, ingest, joiners int, kindName string, theta float64, observe string) {
	var kind fastjoin.Kind
	switch kindName {
	case "fastjoin":
		kind = fastjoin.KindFastJoin
	case "bistream":
		kind = fastjoin.KindBiStream
	case "contrand":
		kind = fastjoin.KindBiStreamContRand
	default:
		fatal(fmt.Errorf("unknown system %q", kindName))
	}

	srv, err := transport.Listen(addr)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("join server (%s) on %s; waiting for %d ingestion connection(s)\n",
		kind, srv.Addr(), ingest)

	sources, closeConns, err := remote.AcceptSources(srv, ingest)
	if err != nil {
		fatal(err)
	}

	sys, err := fastjoin.New(fastjoin.Options{
		Kind:      kind,
		Joiners:   joiners,
		Migration: fastjoin.MigrationOptions{Theta: theta},
		Observe:   fastjoin.ObserveOptions{Addr: observe},
		Sources:   sources,
	})
	if err != nil {
		fatal(err)
	}
	if oa := sys.ObserveAddr(); oa != "" {
		fmt.Printf("observability endpoint on http://%s/metrics\n", oa)
	}
	fmt.Println("ingesting...")

	// SIGINT/SIGTERM cancels the wait; the system then drains what is in
	// flight and reports the partial run instead of dying mid-migration.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	done := make(chan error, 1)
	go func() { done <- sys.WaitCompleteCtx(ctx) }()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st := sys.Stats()
			fmt.Printf("  ingested=%d results=%d (%.0f/s) latency=%.0fµs migrations=%d\n",
				sys.Ingested(), st.Results, sys.ThroughputTick(), st.LatencyMeanUs, st.Migrations)
		case err := <-done:
			var broken error
			switch {
			case err == nil:
				// Every source has ended; a broken connection ended its
				// source early, and that is a failed run, not a finished one.
				if broken = closeConns(); broken == nil {
					fmt.Println("all clients finished.")
				}
			case errors.Is(err, context.Canceled):
				fmt.Println("interrupted; draining...")
				drainCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
				if derr := sys.DrainCtx(drainCtx); derr != nil {
					fmt.Fprintln(os.Stderr, "fastjoin-node: drain:", derr)
				}
				stop()
				broken = closeConns()
			default:
				fatal(err)
			}
			sys.Stop()
			fmt.Println(sys.Stats())
			if broken != nil {
				fatal(broken)
			}
			return
		}
	}
}

func feed(addr, wl string, tuples int, rate, zipfR, zipfS float64, seed int64) {
	var w fastjoin.Workload
	switch wl {
	case "ridehailing":
		w = fastjoin.NewRideHailingWorkload(fastjoin.RideHailingOptions{
			Tuples: tuples, Rate: rate, Seed: seed,
		})
	case "zipf":
		w = fastjoin.NewZipfWorkload(fastjoin.ZipfOptions{
			ThetaR: zipfR, ThetaS: zipfS, Tuples: tuples, Rate: rate, Seed: seed,
		})
	default:
		fatal(fmt.Errorf("unknown workload %q", wl))
	}
	start := time.Now()
	sent, err := remote.StreamTuples(addr, w.Sources[0])
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d tuples of %s in %v (%.0f tuples/s)\n",
		sent, w.Description, elapsed.Round(time.Millisecond),
		float64(sent)/elapsed.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastjoin-node:", err)
	os.Exit(1)
}
