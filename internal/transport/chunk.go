package transport

import "encoding/gob"

// Chunk batches several payload values of one logical stream into a
// single Message.Value, so the pipe encodes, frames, and (on the
// reliable layer) sequences, buffers, and acknowledges the whole group
// as ONE unit. Values preserve send order; element types must be
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
// It is sized so a full message of typical tuples stays far below
// MaxFramePayload.
const DefaultChunkSize = 64
