package transport

import "encoding/gob"

// Chunk batches several payload values of one logical stream into a
// single Message.Value, so the pipe encodes the whole group as ONE gob
// message. Values preserve send order; element types must be
// registered with RegisterValue like any other payload. Each element is
// boxed and carries its type name on the wire, so a stream of one type
// does better with a typed slice message of its own, as remote's tuple
// stream does. No product path sends Chunk; the one sender left is the
// benchmark's transport timing (benchmark/layers.go).
type Chunk struct {
	Values []any
}

func init() { gob.Register(Chunk{}) }

// DefaultChunkSize caps the tuples one message of remote.StreamTuples
// carries. It is a cap, not a target: the sender ships as soon as no
// further tuple is waiting, so messages fill only while the wire is busy.
// No size limit applies beyond it: the TCP pipe writes each message as
// one gob value, whatever its size.
const DefaultChunkSize = 64
