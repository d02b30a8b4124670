package transport

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// recvBuf is a pooled, reference-counted receive buffer. The read loop
// reads one frame's payload into a recvBuf and lends it to the handler
// goroutine; the borrow takes a reference, and the buffer returns to its
// size-class pool when the last reference is released. This is what lets
// the receive path deliver payloads with zero copies: the Handler
// contract — the payload must not be retained after the handler returns —
// is exactly the license to recycle.
//
// Response payloads are the one exception: Call callers keep their reply
// after Call returns, so the dispatch path copies those out of the pooled
// buffer instead of lending it.
type recvBuf struct {
	b     []byte
	class int32 // pool index, -1 for oversized one-shot buffers
	refs  atomic.Int32
}

// Receive pools are size-classed by power of two from 512 B to 1 MiB;
// larger buffers (bulk recovery transfers) are allocated directly and
// left to the GC — pooling them would pin worst-case memory forever.
const (
	minRecvClass = 9  // 512 B
	maxRecvClass = 20 // 1 MiB
)

var recvPools [maxRecvClass + 1]sync.Pool

// getRecvBuf returns a buffer with capacity >= n and refcount 1.
func getRecvBuf(n int) *recvBuf {
	class := minRecvClass
	if n > 1<<minRecvClass {
		class = bits.Len(uint(n - 1))
	}
	if class > maxRecvClass {
		rb := &recvBuf{b: make([]byte, n), class: -1}
		rb.refs.Store(1)
		return rb
	}
	if v := recvPools[class].Get(); v != nil {
		rb := v.(*recvBuf)
		rb.refs.Store(1)
		return rb
	}
	rb := &recvBuf{b: make([]byte, 1<<class), class: int32(class)}
	rb.refs.Store(1)
	return rb
}

// retain takes one more reference; pair every retain with a release.
func (rb *recvBuf) retain() { rb.refs.Add(1) }

// release drops one reference, recycling the buffer when none remain.
func (rb *recvBuf) release() {
	if n := rb.refs.Add(-1); n == 0 {
		if rb.class >= 0 {
			recvPools[rb.class].Put(rb)
		}
	} else if n < 0 {
		panic("transport: recvBuf released below zero")
	}
}
