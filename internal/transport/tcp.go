package transport

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP is a Transport where each place is reachable at a TCP address,
// matching the deployment model of X10's Socket runtime (one process per
// place). Connections are dialed lazily and kept open; a connection error
// marks the peer dead and surfaces ErrDeadPlace to the engine.
//
// A sender writes its own frame: the goroutine that calls Send or Call
// takes the connection's write lock and puts header and payload on the
// wire in one vectored write. The read side parses frames out of pooled,
// reference-counted buffers that handlers borrow. See wire.go for the
// frame layout.
type TCP struct {
	self  int
	addrs []string
	ln    net.Listener
	stats Stats
	obs   PipeObserver

	hmu      sync.RWMutex
	handlers [256]Handler

	cmu      sync.Mutex
	conns    []*tcpConn      // indexed by peer place
	dialing  []chan struct{} // per-peer in-flight dial gate; closed when the dial settles
	accepted map[net.Conn]struct{}

	dead      []atomic.Bool
	connected []atomic.Bool // peer reached at least once

	// contact[p] closes the first time any traffic arrives from p (or we
	// reach p ourselves): the broadcast that wakes dial retry loops the
	// moment the peer is known to be up, instead of leaving them to their
	// timed fallback poll.
	contact   []chan struct{}
	contacted []atomic.Bool

	seq     atomic.Uint64
	pmu     sync.Mutex
	pending map[uint64]chan tcpReply

	closed    chan struct{}
	closeOnce sync.Once

	dialTimeout time.Duration
}

type tcpReply struct {
	payload []byte
	err     error
}

// TCPOptions is empty: the data plane has one implementation and nothing
// selects it.
//
// Deprecated: kept only because the benchmark module names it; goes with
// the next benchmark revision.
type TCPOptions struct{}

// PipeObserver receives data-plane events from a TCP endpoint; the node
// layer uses it to feed metrics histograms without the transport importing
// the metrics package. Set it before any traffic. Callbacks run on the
// sending goroutine and must not block.
type PipeObserver struct {
	// Flush observes one vectored write: the frame's wire size.
	Flush func(wireBytes int)
}

// tcpConn is one established outbound connection.
//
// Exactly one endpoint writes any given connection (each dials its own
// conn for outbound traffic, replies included), and it writes under mu, so
// per-peer FIFO order is the lock's order. The header and iovec buffers
// live here, so a write allocates nothing.
type tcpConn struct {
	c    net.Conn
	down atomic.Bool // set before c is closed: a sender waiting on mu fails fast

	mu   sync.Mutex
	hdr  [frameHeaderLen]byte
	vec  [2][]byte   // header, payload
	bufs net.Buffers // vec, consumed by WriteTo
}

// write puts one frame on the wire: header and payload in one vectored
// write, the payload referenced in place. On return the transport no
// longer references the payload.
func (tc *tcpConn) write(from int, kind, flags uint8, seq uint64, payload []byte) error {
	crc := crc32.ChecksumIEEE(payload)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.down.Load() {
		return net.ErrClosed
	}
	tc.vec = [2][]byte{putFrameHeader(tc.hdr[:0], kind, flags, from, seq, len(payload), crc), payload}
	tc.bufs = tc.vec[:]
	_, err := tc.bufs.WriteTo(tc.c)
	tc.vec[1] = nil
	return err
}

// close marks the connection down and closes its socket, which fails a
// write in progress. It never waits on mu.
func (tc *tcpConn) close() {
	tc.down.Store(true)
	tc.c.Close()
}

var _ Transport = (*TCP)(nil)

// NewTCPOpts is NewTCP; the options are empty.
//
// Deprecated: kept only because the benchmark module calls it; goes with
// the next benchmark revision.
func NewTCPOpts(self int, addrs []string, _ TCPOptions) (*TCP, error) {
	return NewTCP(self, addrs)
}

// NewTCP creates the endpoint for place self, listening on addrs[self].
// All places must share the same addrs slice (place id -> address).
func NewTCP(self int, addrs []string) (*TCP, error) {
	if self < 0 || self >= len(addrs) {
		return nil, fmt.Errorf("transport: place %d out of range (%d places)", self, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[self], err)
	}
	t := &TCP{
		self: self,
		// Copied, not aliased: callers (and in-process tests) share one
		// table across every endpoint, and SetAddrs on one endpoint must
		// not mutate storage another endpoint's dial loop is reading.
		addrs:       append([]string(nil), addrs...),
		ln:          ln,
		conns:       make([]*tcpConn, len(addrs)),
		dialing:     make([]chan struct{}, len(addrs)),
		accepted:    make(map[net.Conn]struct{}),
		dead:        make([]atomic.Bool, len(addrs)),
		connected:   make([]atomic.Bool, len(addrs)),
		contact:     make([]chan struct{}, len(addrs)),
		contacted:   make([]atomic.Bool, len(addrs)),
		pending:     make(map[uint64]chan tcpReply),
		closed:      make(chan struct{}),
		dialTimeout: 10 * time.Second,
	}
	for p := range t.contact {
		t.contact[p] = make(chan struct{})
	}
	go t.accept()
	return t, nil
}

// Addr returns the address this endpoint actually listens on, useful when
// addrs[self] used port 0.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetAddrs replaces the peer address table. It must be called before any
// traffic is sent; tests use it to bind every endpoint to port 0 first and
// then distribute the real addresses.
func (t *TCP) SetAddrs(addrs []string) error {
	if len(addrs) != len(t.addrs) {
		return fmt.Errorf("transport: address table has %d entries, need %d", len(addrs), len(t.addrs))
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	for _, tc := range t.conns {
		if tc != nil {
			return fmt.Errorf("transport: cannot replace address table after connecting")
		}
	}
	copy(t.addrs, addrs)
	return nil
}

// SetPipeObserver installs the data-plane event observer. It must be set
// before any traffic flows.
func (t *TCP) SetPipeObserver(o PipeObserver) { t.obs = o }

func (t *TCP) Self() int     { return t.self }
func (t *TCP) NPlaces() int  { return len(t.addrs) }
func (t *TCP) Stats() *Stats { return &t.stats }

func (t *TCP) Handle(kind uint8, h Handler) {
	t.hmu.Lock()
	t.handlers[kind] = h
	t.hmu.Unlock()
}

func (t *TCP) handler(kind uint8) Handler {
	t.hmu.RLock()
	h := t.handlers[kind]
	t.hmu.RUnlock()
	return h
}

func (t *TCP) Alive(p int) bool {
	return p >= 0 && p < len(t.addrs) && !t.dead[p].Load()
}

// MarkDead records that peer p has failed without waiting for a connection
// error; used when failure is learned out of band (e.g. a control message).
func (t *TCP) MarkDead(p int) {
	if p >= 0 && p < len(t.dead) {
		t.dead[p].Store(true)
	}
}

// noteContact records that peer p is demonstrably up (traffic arrived from
// it, or we reached it), broadcasting to any dial loop waiting on it.
func (t *TCP) noteContact(p int) {
	if p < 0 || p >= len(t.contacted) || t.contacted[p].Load() {
		return
	}
	if t.contacted[p].CompareAndSwap(false, true) {
		close(t.contact[p])
	}
}

func (t *TCP) accept() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed: the endpoint is shutting down
		}
		t.cmu.Lock()
		t.accepted[c] = struct{}{}
		t.cmu.Unlock()
		go t.readLoop(c, -1)
	}
}

// conn returns an established connection to peer p, dialing if needed.
// The dial itself runs with cmu released: holding the connection table
// lock across a retry loop of up to dialTimeout would stall traffic to
// every other (healthy) peer and block Close for the duration — the exact
// hazard dpx10-vet's lockheld analyzer exists to catch. A per-peer gate
// channel serializes dials to the same peer instead.
func (t *TCP) conn(p int) (*tcpConn, error) {
	var gate chan struct{}
	for {
		t.cmu.Lock()
		if !t.Alive(p) { // under cmu: see dropConn
			t.cmu.Unlock()
			return nil, ErrDeadPlace
		}
		if tc := t.conns[p]; tc != nil {
			t.cmu.Unlock()
			return tc, nil
		}
		if other := t.dialing[p]; other != nil {
			t.cmu.Unlock()
			select {
			case <-other: // that dial settled; re-check the table
			case <-t.closed:
				return nil, ErrClosed
			}
			continue
		}
		gate = make(chan struct{})
		t.dialing[p] = gate
		t.cmu.Unlock()
		break
	}

	c, err := t.dial(p) // no locks held

	t.cmu.Lock()
	t.dialing[p] = nil
	var tc *tcpConn
	if err == nil {
		select {
		case <-t.closed:
			// Close ran while we were dialing; don't resurrect the table.
			c.Close()
			err = ErrClosed
		default:
			tc = &tcpConn{c: c}
			t.conns[p] = tc
			go t.readLoop(c, p)
		}
	}
	t.cmu.Unlock()
	close(gate)
	if err != nil {
		return nil, err
	}
	return tc, nil
}

// dial establishes a raw connection to peer p. Until a peer has been
// reached once, failures are retried within the startup grace window (the
// peer's process may simply not be listening yet); after first contact, a
// failed re-dial means the peer died. Retries wake on the peer's contact
// broadcast — the instant its first frame reaches us we know its process
// is up — with a timed poll only as fallback.
func (t *TCP) dial(p int) (net.Conn, error) {
	deadline := time.Now().Add(t.dialTimeout)
	wake := t.contact[p]
	for {
		// Snapshot the peer address under cmu: a worker installs the real
		// table via SetAddrs concurrently with early dial attempts, and the
		// string header read must not race that copy. Re-read every retry so
		// a table installed mid-grace-window takes effect.
		t.cmu.Lock()
		addr := t.addrs[p]
		t.cmu.Unlock()
		c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err == nil {
			t.connected[p].Store(true)
			t.noteContact(p)
			return c, nil
		}
		if t.connected[p].Load() || time.Now().After(deadline) {
			t.dead[p].Store(true)
			return nil, ErrDeadPlace
		}
		select {
		case <-t.closed:
			return nil, ErrClosed
		case <-wake:
			// The peer spoke to us: retry immediately, then fall back to
			// the timed poll (the broadcast only fires once).
			wake = nil
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// dropConn marks p dead before it takes p's connection out of the table,
// and conn checks liveness under the same lock, so no Send re-dials p in
// between. Then it closes the connection.
func (t *TCP) dropConn(p int) {
	t.dead[p].Store(true)
	t.cmu.Lock()
	tc := t.conns[p]
	t.conns[p] = nil
	t.cmu.Unlock()
	if tc != nil {
		tc.close()
	}
}

// send writes one frame to peer p and returns once it is on the wire — the
// payload buffer is the caller's again when send returns.
func (t *TCP) send(p int, kind, flags uint8, seq uint64, payload []byte) error {
	tc, err := t.conn(p)
	if err != nil {
		return err
	}
	if err := tc.write(t.self, kind, flags, seq, payload); err != nil {
		select {
		case <-t.closed:
			return ErrClosed
		default:
		}
		t.dropConn(p)
		return ErrDeadPlace
	}
	wire := frameHeaderLen + len(payload)
	t.stats.WriteCalls.Add(1)
	t.stats.WireBytesOut.Add(int64(wire))
	if f := t.obs.Flush; f != nil {
		f(wire)
	}
	return nil
}

// Send delivers a one-way message.
func (t *TCP) Send(to int, kind uint8, payload []byte) error {
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	if err := t.send(to, kind, 0, 0, payload); err != nil {
		return err
	}
	t.stats.SendsOut.Add(1)
	t.stats.BytesOut.Add(int64(len(payload)))
	return nil
}

// Call sends a request and blocks until the matching response arrives or
// the peer fails.
func (t *TCP) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	select {
	case <-t.closed:
		return nil, ErrClosed
	default:
	}
	seq := t.seq.Add(1)
	ch := make(chan tcpReply, 1)
	t.pmu.Lock()
	t.pending[seq] = ch
	t.pmu.Unlock()
	defer func() {
		t.pmu.Lock()
		delete(t.pending, seq)
		t.pmu.Unlock()
	}()

	if err := t.send(to, kind, 0|flagRequestMarker, seq, payload); err != nil {
		return nil, err
	}
	t.stats.CallsOut.Add(1)
	t.stats.BytesOut.Add(int64(len(payload)))

	// Poll for peer death so a request to a crashing place cannot hang.
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case r := <-ch:
			if r.err != nil {
				return nil, r.err
			}
			t.stats.RepliesIn.Add(1)
			return r.payload, nil
		case <-tick.C:
			if !t.Alive(to) {
				return nil, ErrDeadPlace
			}
		case <-t.closed:
			return nil, ErrClosed
		}
	}
}

// readBufSize is each connection's read buffer. It holds several of the
// engine's decrement batches, which stay under 4 KB each; bufio reads a
// payload larger than the buffer straight from the socket into its recvBuf,
// so a big fetch reply costs no extra copy.
const readBufSize = 16 << 10

// readLoop drains one connection. peer is the place at the other end when
// known at dial time (-1 for accepted connections, learned from frames).
//
// Frames are read through a buffered reader into pooled recvBufs; one-way
// handlers run inline and request handlers on goroutines that borrow the
// recvBuf under its refcount, and response payloads are copied out (Call
// callers retain them). A malformed frame — bad CRC, oversized length, a
// reserved flag bit, a sender id that is no place or not the one this
// connection's first frame named — kills the connection rather than risking
// misframed traffic.
//
// Places are fail-stop (the paper's model, like X10's socket runtime), so
// an established connection breaking means the peer died — unless this
// endpoint is itself shutting down. Marking the peer dead here is what
// unblocks Calls already waiting on a reply from it: nothing else would
// ever fail them if no new message happens to target that peer.
func (t *TCP) readLoop(c net.Conn, peer int) {
	defer func() {
		select {
		case <-t.closed: // our own shutdown, not the peer's death
		default:
			if peer >= 0 {
				t.dead[peer].Store(true) // first, as in dropConn
			}
		}
		t.cmu.Lock()
		delete(t.accepted, c)
		var tc *tcpConn
		if peer >= 0 {
			if cur := t.conns[peer]; cur != nil && cur.c == c {
				tc = cur
				t.conns[peer] = nil
			}
		}
		t.cmu.Unlock()
		if tc != nil {
			tc.down.Store(true)
		}
		c.Close()
	}()
	br := bufio.NewReaderSize(c, readBufSize)
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		h, err := parseFrameHeader(&hdr)
		if err != nil || uint(h.from) >= uint(len(t.addrs)) || (peer >= 0 && h.from != peer) {
			return
		}
		peer = h.from
		t.noteContact(h.from)
		rb := getRecvBuf(int(h.n))
		buf := rb.b[:h.n]
		_, err = io.ReadFull(br, buf)
		ok := err == nil && crc32.ChecksumIEEE(buf) == h.crc
		if ok {
			t.dispatch(rb, h, buf)
		}
		rb.release()
		if !ok {
			return
		}
	}
}

// dispatch routes one frame: responses complete pending Calls (payload
// copied — the caller outlives the pooled buffer); a request runs its
// handler on its own goroutine, which holds a reference to the buffer until
// the reply is written; a one-way message runs its handler here, on the read
// loop, so one peer's one-way messages are handled one at a time in arrival
// order, as LocalFabric handles them, and the handler borrows the frame for
// the call only.
func (t *TCP) dispatch(rb *recvBuf, h frameHeader, payload []byte) {
	from, kind, flags, seq := h.from, h.kind, h.flags, h.seq
	switch {
	case flags&flagResponse != 0:
		t.pmu.Lock()
		ch := t.pending[seq]
		t.pmu.Unlock()
		if ch != nil {
			var r tcpReply
			if flags&flagError != 0 {
				r.err = decodeWireError(payload)
			} else {
				r.payload = cloneBytes(payload)
			}
			select {
			case ch <- r:
			default:
			}
		}
	case flags&flagRequestMarker != 0:
		t.stats.MsgsIn.Add(1)
		t.stats.BytesIn.Add(int64(len(payload)))
		rb.retain()
		go func() {
			defer rb.release()
			t.serve(from, kind, seq, payload)
		}()
	default:
		t.stats.MsgsIn.Add(1)
		t.stats.BytesIn.Add(int64(len(payload)))
		if h := t.handler(kind); h != nil {
			h(from, payload) //nolint:errcheck // one-way: no reply path
		}
	}
}

func (t *TCP) serve(from int, kind uint8, seq uint64, payload []byte) {
	h := t.handler(kind)
	var reply []byte
	var err error
	if h == nil {
		err = ErrNoHandler
	} else {
		reply, err = h(from, payload)
	}
	flags := uint8(flagResponse)
	if err != nil {
		flags |= flagError
		reply = encodeWireError(err)
	}
	t.send(from, 0, flags, seq, reply) //nolint:errcheck // peer gone: nothing to do
}

// Close shuts the endpoint down and drops all connections.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.ln.Close()
		t.cmu.Lock()
		conns := make([]*tcpConn, 0, len(t.conns))
		for i, tc := range t.conns {
			if tc != nil {
				conns = append(conns, tc)
				t.conns[i] = nil
			}
		}
		for c := range t.accepted {
			c.Close()
		}
		t.accepted = make(map[net.Conn]struct{})
		t.cmu.Unlock()
		for _, tc := range conns {
			tc.close()
		}
	})
	return nil
}
