package remote

import (
	"sync"
	"testing"
	"time"

	"fastjoin"
	"fastjoin/internal/transport"
)

// finiteSource emits n tuples alternating sides over k shared keys.
func finiteSource(n, k int, seqOffset, stride uint64) fastjoin.TupleSource {
	i := 0
	rSeq, sSeq := seqOffset, seqOffset
	return func() (fastjoin.Tuple, bool) {
		if i >= n {
			return fastjoin.Tuple{}, false
		}
		t := fastjoin.Tuple{Key: fastjoin.Key((i / 2) % k)}
		if i%2 == 0 {
			t.Side, t.Seq = fastjoin.R, rSeq
			rSeq += stride
		} else {
			t.Side, t.Seq = fastjoin.S, sSeq
			sSeq += stride
		}
		i++
		return t, true
	}
}

// TestNetworkIngestionJoin runs a join server fed by two TCP clients and
// checks the result count against the closed-form expectation.
func TestNetworkIngestionJoin(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// Two clients, disjoint sequence spaces, same key universe.
	var wg sync.WaitGroup
	clientErr := make([]error, 2)
	clientSent := make([]int, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clientSent[c], clientErr[c] = StreamTuples(srv.Addr(), finiteSource(1000, 10, uint64(c), 2))
		}(c)
	}

	sources, closeConns, err := AcceptSources(srv, 2)
	if err != nil {
		t.Fatalf("AcceptSources: %v", err)
	}
	defer closeConns()

	sys, err := fastjoin.New(fastjoin.Options{
		Kind:    fastjoin.KindFastJoin,
		Joiners: 3,
		Sources: sources,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	wg.Wait()
	for c := 0; c < 2; c++ {
		if clientErr[c] != nil {
			t.Fatalf("client %d: %v", c, clientErr[c])
		}
		if clientSent[c] != 1000 {
			t.Fatalf("client %d sent %d", c, clientSent[c])
		}
	}

	// 1000 R tuples and 1000 S tuples over 10 keys: 10 * 100 * 100 pairs.
	if got := sys.Stats().Results; got != 10*100*100 {
		t.Errorf("results = %d, want 100000", got)
	}
	if got := sys.Ingested(); got != 2000 {
		t.Errorf("ingested = %d, want 2000", got)
	}
}

func TestAcceptSourcesValidation(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	if _, _, err := AcceptSources(srv, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestStreamTuplesDialFailure(t *testing.T) {
	if _, err := StreamTuples("127.0.0.1:1", finiteSource(1, 1, 0, 1)); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestConnSourceIgnoresForeignMessages(t *testing.T) {
	a, b := transport.Pipe(8)
	defer a.Close()
	src := connSource(b)
	// A non-tuple message must be skipped, then the tuple delivered.
	if err := a.Send(transport.Message{Stream: "noise", Value: 42}); err != nil {
		t.Fatal(err)
	}
	want := fastjoin.Tuple{Side: fastjoin.R, Key: 9, Seq: 3}
	if err := a.Send(transport.Message{Stream: "tuples", Value: tupleChunk{Tuples: []fastjoin.Tuple{want}}}); err != nil {
		t.Fatal(err)
	}
	got, ok := src()
	if !ok || got.Key != 9 || got.Seq != 3 {
		t.Errorf("got %+v ok=%v", got, ok)
	}
	// Closing ends the source, permanently.
	a.Close()
	if _, ok := src(); ok {
		t.Error("source alive after close")
	}
	if _, ok := src(); ok {
		t.Error("source revived")
	}
}
