package remote

import (
	"bytes"
	"encoding/gob"
	"net"
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
	src := (&connSource{conn: b}).next
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

// TestBrokenIngestionIsReported feeds AcceptSources from a raw TCP client
// and checks that only a clean end reads as one: a client that dies
// mid-message, or between messages before its end message, or whose end
// message miscounts, ends its source after the last whole chunk and the
// closer reports the break; a client that sends its end message, or a
// closer that cuts a source blocked in Recv, leaves the closer with nil.
func TestBrokenIngestionIsReported(t *testing.T) {
	chunkOf := func(first, n int) tupleChunk {
		c := tupleChunk{Tuples: make([]fastjoin.Tuple, n)}
		for i := range c.Tuples {
			c.Tuples[i] = fastjoin.Tuple{Side: fastjoin.R, Key: fastjoin.Key(i % 3), Seq: uint64(first + i)}
		}
		return c
	}
	// Two 10-tuple messages as tcpConn.Send writes them, then an end
	// message carrying end unless it is negative; first is where the
	// first message ends.
	var first int
	wire := func(end int) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		msgs := []any{chunkOf(0, 10), chunkOf(10, 10)}
		if end >= 0 {
			msgs = append(msgs, streamEnd{Tuples: end})
		}
		for i, v := range msgs {
			if err := enc.Encode(&transport.Message{Stream: tupleStream, Value: v}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = buf.Len()
			}
		}
		return buf.Bytes()
	}
	all := wire(-1)
	half := first + (len(all)-first)/2
	cases := []struct {
		name       string
		write      []byte
		closeLocal bool // cut the source with the closer instead of a client close
		want       int  // tuples the source yields
		wantErr    bool // closer reports a broken connection
	}{
		{name: "peer dies mid-message", write: all[:half], want: 10, wantErr: true},
		{name: "peer dies between messages", write: all, want: 20, wantErr: true},
		{name: "end message miscounts", write: wire(25), want: 20, wantErr: true},
		{name: "peer closes between messages", write: wire(20), want: 20}, // after its end message
		{name: "closer cuts a blocked source", write: all, closeLocal: true, want: 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Write(tc.write); err != nil {
				t.Fatal(err)
			}
			if !tc.closeLocal {
				client.Close()
			}
			sources, closeConns, err := AcceptSources(srv, 1)
			if err != nil {
				t.Fatal(err)
			}

			got := make(chan fastjoin.Tuple, 32)
			go func() {
				defer close(got)
				for {
					tp, ok := sources[0]()
					if !ok {
						return
					}
					got <- tp
				}
			}()
			for i := 0; i < tc.want; i++ {
				select {
				case tp, ok := <-got:
					if !ok {
						t.Fatalf("source ended after %d tuples, want %d", i, tc.want)
					}
					if tp.Seq != uint64(i) {
						t.Fatalf("tuple %d has seq %d", i, tp.Seq)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("source yielded %d tuples, want %d", i, tc.want)
				}
			}
			if tc.closeLocal {
				// The source has handed out everything sent and now waits in
				// Recv for more; only the closer can end it.
				closeConns()
			}
			select {
			case tp, ok := <-got:
				if ok {
					t.Fatalf("source yielded extra tuple %+v", tp)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("source did not end")
			}
			err = closeConns()
			if tc.wantErr && err == nil {
				t.Error("closer returned nil for a connection that broke")
			}
			if !tc.wantErr && err != nil {
				t.Errorf("closer = %v for a clean end", err)
			}
		})
	}
}
