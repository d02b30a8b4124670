package transport

import (
	"sync"
	"sync/atomic"
)

// LocalFabric connects n places inside one process. Each place gets an
// endpoint via Endpoint(p). One-way messages are queued and dispatched by
// a per-place goroutine, which preserves per-pair ordering; Call traffic
// invokes the destination handler synchronously.
//
// Payloads are copied at the fabric boundary so that a handler can never
// alias the sender's buffer — the same isolation a real wire gives, which
// keeps the engine honest about what data actually moves between places.
// The copies land in the same pooled receive buffers the TCP read path
// uses (recvBuf) and are recycled when the handler returns, so steady-state
// traffic allocates nothing.
//
// Kill(p) fails place p: all subsequent traffic to or from p reports
// ErrDeadPlace and p's queued messages are dropped.
type LocalFabric struct {
	n    int
	eps  []*localEndpoint
	dead []atomic.Bool
}

// NewLocalFabric creates a fabric with n places, numbered 0..n-1.
func NewLocalFabric(n int) *LocalFabric {
	if n <= 0 {
		panic("transport: fabric needs at least one place")
	}
	f := &LocalFabric{
		n:    n,
		eps:  make([]*localEndpoint, n),
		dead: make([]atomic.Bool, n),
	}
	for p := 0; p < n; p++ {
		ep := &localEndpoint{
			fabric: f,
			self:   p,
			queue:  make(chan localMsg, 1024),
			closed: make(chan struct{}),
		}
		f.eps[p] = ep
		go ep.dispatch()
	}
	return f
}

// Endpoint returns place p's transport.
func (f *LocalFabric) Endpoint(p int) Transport { return f.eps[p] }

// Kill marks place p dead. In-flight and future messages involving p fail
// with ErrDeadPlace. Killing an already-dead place is a no-op.
func (f *LocalFabric) Kill(p int) { f.dead[p].Store(true) }

// Alive reports whether place p is alive.
func (f *LocalFabric) Alive(p int) bool { return !f.dead[p].Load() }

// Close shuts down every endpoint.
func (f *LocalFabric) Close() error {
	for _, ep := range f.eps {
		ep.Close()
	}
	return nil
}

type localMsg struct {
	from    int
	kind    uint8
	payload []byte   // sub-slice of rb's buffer
	rb      *recvBuf // released after dispatch
}

// copyToPool copies b into a fresh pooled buffer (refcount 1).
func copyToPool(b []byte) (*recvBuf, []byte) {
	rb := getRecvBuf(len(b))
	p := rb.b[:len(b)]
	copy(p, b)
	return rb, p
}

type localEndpoint struct {
	fabric *LocalFabric
	self   int
	stats  Stats

	mu       sync.RWMutex
	handlers [256]Handler

	queue     chan localMsg
	closed    chan struct{}
	closeOnce sync.Once
}

var _ Transport = (*localEndpoint)(nil)

func (e *localEndpoint) Self() int     { return e.self }
func (e *localEndpoint) NPlaces() int  { return e.fabric.n }
func (e *localEndpoint) Stats() *Stats { return &e.stats }

func (e *localEndpoint) Handle(kind uint8, h Handler) {
	e.mu.Lock()
	e.handlers[kind] = h
	e.mu.Unlock()
}

func (e *localEndpoint) handler(kind uint8) Handler {
	e.mu.RLock()
	h := e.handlers[kind]
	e.mu.RUnlock()
	return h
}

func (e *localEndpoint) Alive(p int) bool { return e.fabric.Alive(p) }

// MarkDead records that place p failed, fabric-wide. The failure detector
// calls it when it declares a place dead, so every endpoint observes the
// death immediately — the analogue of the X10 runtime raising
// DeadPlaceException at all places (and of TCP.MarkDead).
func (e *localEndpoint) MarkDead(p int) {
	if p >= 0 && p < e.fabric.n {
		e.fabric.Kill(p)
	}
}

func (e *localEndpoint) checkLink(to int) error {
	if to < 0 || to >= e.fabric.n {
		return ErrDeadPlace
	}
	if !e.fabric.Alive(e.self) || !e.fabric.Alive(to) {
		return ErrDeadPlace
	}
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	return nil
}

// Send queues a one-way message for delivery at the destination.
func (e *localEndpoint) Send(to int, kind uint8, payload []byte) error {
	if err := e.checkLink(to); err != nil {
		return err
	}
	dst := e.fabric.eps[to]
	rb, p := copyToPool(payload)
	msg := localMsg{from: e.self, kind: kind, payload: p, rb: rb}
	select {
	case dst.queue <- msg:
	case <-dst.closed:
		rb.release()
		return ErrClosed
	}
	e.stats.SendsOut.Add(1)
	e.stats.BytesOut.Add(int64(len(payload)))
	return nil
}

// Call invokes the destination handler synchronously and returns its reply.
func (e *localEndpoint) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if err := e.checkLink(to); err != nil {
		return nil, err
	}
	dst := e.fabric.eps[to]
	h := dst.handler(kind)
	if h == nil {
		return nil, ErrNoHandler
	}
	e.stats.CallsOut.Add(1)
	e.stats.BytesOut.Add(int64(len(payload)))
	dst.stats.MsgsIn.Add(1)
	dst.stats.BytesIn.Add(int64(len(payload)))
	rb, p := copyToPool(payload)
	defer rb.release() // after the reply clone below: the reply may alias p
	reply, err := h(e.self, p)
	if err != nil {
		return nil, err
	}
	// A place that died while serving the request must not leak a reply:
	// the caller would otherwise act on state from a failed node.
	if err := e.checkLink(to); err != nil {
		return nil, err
	}
	e.stats.RepliesIn.Add(1)
	return cloneBytes(reply), nil
}

func (e *localEndpoint) dispatch() {
	for {
		select {
		case msg := <-e.queue:
			if e.fabric.Alive(e.self) && e.fabric.Alive(msg.from) {
				if h := e.handler(msg.kind); h != nil {
					e.stats.MsgsIn.Add(1)
					e.stats.BytesIn.Add(int64(len(msg.payload)))
					h(msg.from, msg.payload) //nolint:errcheck // one-way: no reply path
				}
			}
			msg.rb.release()
		case <-e.closed:
			return
		}
	}
}

func (e *localEndpoint) Close() error {
	e.closeOnce.Do(func() { close(e.closed) })
	return nil
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	c := make([]byte, len(b))
	copy(c, b)
	return c
}
