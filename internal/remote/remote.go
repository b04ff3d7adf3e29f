// Package remote provides network ingestion for a join system: a server
// accepts TCP connections (package transport) and turns each into a tuple
// source for fastjoin.Options.Sources, and a client streams a workload to
// such a server. This splits tuple production and join processing across
// processes/hosts the way the paper's deployment separates Kafka producers
// from the Storm cluster.
package remote

import (
	"errors"
	"fmt"
	"io"

	"fastjoin"
	"fastjoin/internal/stream"
	"fastjoin/internal/transport"
	"fastjoin/internal/workload"
)

// tupleStream is the transport stream name carrying tuples.
const tupleStream = "tuples"

// tupleChunk is the one message shape of the tuple stream: the tuples one
// Send carries, in source order. The slice is typed, so gob writes each
// tuple's fields directly, where a transport.Chunk would box every tuple
// and name its type on the wire.
type tupleChunk struct {
	Tuples []stream.Tuple
}

func init() {
	transport.RegisterValue(tupleChunk{})
	// Payload types that may travel inside tuples.
	transport.RegisterValue(workload.OrderPayload{})
	transport.RegisterValue(workload.TrackPayload{})
	transport.RegisterValue(workload.QueryPayload{})
	transport.RegisterValue(workload.ClickPayload{})
	// For tuples boxed in a transport.Chunk, as the benchmark's transport
	// timings still send them.
	transport.RegisterValue(stream.Tuple{})
}

// AcceptSources waits for n client connections on the server and returns
// one TupleSource per client. Each source yields the client's tuples in
// arrival order and ends when the client closes its connection. The
// returned closer shuts every accepted connection.
func AcceptSources(srv *transport.Server, n int) ([]fastjoin.TupleSource, func(), error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("remote: need at least one ingestion connection")
	}
	conns := make([]transport.Conn, 0, n)
	closer := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	sources := make([]fastjoin.TupleSource, 0, n)
	for i := 0; i < n; i++ {
		conn, err := srv.Accept()
		if err != nil {
			closer()
			return nil, nil, fmt.Errorf("remote: accept ingestion %d: %w", i, err)
		}
		conns = append(conns, conn)
		sources = append(sources, connSource(conn))
	}
	return sources, closer, nil
}

// connSource adapts one connection to a pull-based tuple source. The spout
// goroutine blocks in Recv between chunks and hands out each decoded
// tupleChunk's slice in order; messages of another stream or shape are
// skipped. EOF or any error ends the source for good.
func connSource(conn transport.Conn) fastjoin.TupleSource {
	done := false
	var chunk []stream.Tuple // what is left of the chunk being handed out
	return func() (fastjoin.Tuple, bool) {
		for len(chunk) == 0 {
			if done {
				return fastjoin.Tuple{}, false
			}
			m, err := conn.Recv()
			if err != nil {
				done = true
				return fastjoin.Tuple{}, false
			}
			if c, ok := m.Value.(tupleChunk); ok && m.Stream == tupleStream {
				chunk = c.Tuples
			}
		}
		t := chunk[0]
		chunk = chunk[1:]
		return t, true
	}
}

// StreamTuples dials a join server and pushes the source's tuples until it
// is exhausted, then closes the connection. A message carries at most
// DefaultChunkSize tuples and ships as soon as no further tuple is
// waiting (see StreamTuplesChunked). It returns how many tuples were sent.
func StreamTuples(addr string, src fastjoin.TupleSource) (int, error) {
	return StreamTuplesChunked(addr, src, transport.DefaultChunkSize)
}

// StreamTuplesChunked is StreamTuples with an explicit cap on the tuples
// one message carries; size < 1 counts as 1.
//
// It follows the engine's idle-flush rule: a chunk ships as soon as no
// further tuple is already waiting, and size is only a cap. src runs on a
// goroutine of its own that fills a queue of size tuples; the send loop
// blocks for the first tuple, takes whatever else is queued, and sends.
// Under saturation tuples pile up while Send runs, so chunks fill; a paced
// source leaves the sender idle, so a chunk carries the tuple or two that
// are ready. src is never called after StreamTuplesChunked returns, and
// never from two goroutines at once.
func StreamTuplesChunked(addr string, src fastjoin.TupleSource, size int) (int, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	return sendTuples(conn, src, size)
}

// sendTuples is StreamTuplesChunked's send loop over an established
// connection. It returns the number of tuples in chunks Send accepted.
func sendTuples(conn transport.Conn, src fastjoin.TupleSource, size int) (int, error) {
	size = max(size, 1)
	// One chunk's worth: what piles up while the previous chunk is in Send.
	queue := make(chan stream.Tuple, size)
	stop := make(chan struct{})
	go pull(src, queue, stop)
	sent := 0
	for t := range queue {
		// The loop is the queue's only receiver, so the tuples counted here
		// are still there to take.
		chunk := make([]stream.Tuple, min(1+len(queue), size))
		chunk[0] = t
		for i := 1; i < len(chunk); i++ {
			chunk[i] = <-queue
		}
		if err := conn.Send(transport.Message{Stream: tupleStream, Value: tupleChunk{Tuples: chunk}}); err != nil {
			close(stop)
			for range queue {
				// Discard until pull returns and closes queue.
			}
			if errors.Is(err, io.EOF) {
				return sent, nil
			}
			return sent, fmt.Errorf("remote: send after %d tuples: %w", sent, err)
		}
		sent += len(chunk)
	}
	return sent, nil
}

// pull feeds src into queue until src is exhausted or stop is closed, then
// closes queue. It starts no src call once it has seen stop.
func pull(src fastjoin.TupleSource, queue chan<- stream.Tuple, stop <-chan struct{}) {
	defer close(queue)
	for {
		select {
		case <-stop:
			return
		default:
		}
		t, ok := src()
		if !ok {
			return
		}
		select {
		case queue <- t:
		case <-stop:
			return
		}
	}
}
