package core

import (
	"sync"

	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// jobRouter multiplexes many jobs' protocol traffic over one place's
// shared delivery stack. It registers one dispatch handler per job-scoped
// kind on the underlying transport; inbound payloads carry a [jobID u32]
// envelope (see proto.go) that selects the receiving jobPort. Outbound,
// each job's placeEngine talks to its jobPort, which adds the envelope —
// the engine code is unchanged and never learns the wire grew a prefix.
//
// The router sits above the reliable layer: the sequence envelope (and its
// retry/dedup machinery) is shared per place-pair, so two jobs' traffic
// shares one in-order, at-most-once stream instead of multiplying the
// dedup state per job.
type jobRouter struct {
	tr transport.Transport // shared per-place stack (reliable when configured)

	mu    sync.RWMutex
	ports map[uint32]*jobPort

	// Per-job outbound accounting on the place's registry (nil handles are
	// inert when metrics are off). The vec key is the job id's low byte.
	mJobMsgs  *metrics.Vec
	mJobBytes *metrics.Vec
}

func newJobRouter(tr transport.Transport, reg *metrics.Registry) *jobRouter {
	r := &jobRouter{
		tr:        tr,
		ports:     make(map[uint32]*jobPort),
		mJobMsgs:  reg.Vec(metrics.JobMsgsOutID),
		mJobBytes: reg.Vec(metrics.JobBytesOutID),
	}
	for k := 0; k < 256; k++ {
		if jobScopedKind[uint8(k)] {
			r.tr.Handle(uint8(k), r.dispatch(uint8(k)))
		}
	}
	return r
}

// newPort creates (but does not yet route) a port for job id. The caller
// registers the job's handlers on the port and then calls add — handler
// installation happens-before routing, so dispatch never sees a
// half-built table.
func (r *jobRouter) newPort(job uint32) *jobPort {
	return &jobPort{router: r, job: job, jobKey: uint8(job)}
}

// add routes inbound traffic for the port's job id to it.
func (r *jobRouter) add(p *jobPort) {
	r.mu.Lock()
	r.ports[p.job] = p
	r.mu.Unlock()
}

// remove stops routing the job's traffic; later arrivals fail with
// errUnknownJob, which senders treat like a stale epoch.
func (r *jobRouter) remove(job uint32) {
	r.mu.Lock()
	delete(r.ports, job)
	r.mu.Unlock()
}

func (r *jobRouter) port(job uint32) *jobPort {
	r.mu.RLock()
	p := r.ports[job]
	r.mu.RUnlock()
	return p
}

// dispatch strips the job envelope and forwards to the owning port's
// handler for kind.
func (r *jobRouter) dispatch(kind uint8) transport.Handler {
	return func(from int, payload []byte) ([]byte, error) {
		job, body, err := splitJobEnvelope(payload)
		if err != nil {
			return nil, err
		}
		p := r.port(job)
		if p == nil {
			return nil, errUnknownJob
		}
		h := p.handlers[kind]
		if h == nil {
			return nil, transport.ErrNoHandler
		}
		//dpx10:allow placeleak reply comes from the job's registered handler, which itself honors the no-alias contract; body is never returned
		return h(from, body)
	}
}

// jobPort is one job's view of a place's shared transport: a
// transport.Transport whose Send/Call wrap outbound payloads of
// job-scoped kinds in the job envelope, and whose Handle registers into
// the router's per-job dispatch table. Place-scoped kinds pass through
// unwrapped (the detector's pings ride the port on TCP deployments).
type jobPort struct {
	router   *jobRouter
	job      uint32
	jobKey   uint8
	handlers [256]transport.Handler
	stats    transport.Stats
}

var _ transport.Transport = (*jobPort)(nil)

func (p *jobPort) Self() int        { return p.router.tr.Self() }
func (p *jobPort) NPlaces() int     { return p.router.tr.NPlaces() }
func (p *jobPort) Alive(q int) bool { return p.router.tr.Alive(q) }
func (p *jobPort) Close() error     { return nil } // lifetime owned by the router's stack
func (p *jobPort) Stats() *transport.Stats {
	return &p.stats
}

// MarkDead forwards a failure verdict to the shared stack.
func (p *jobPort) MarkDead(q int) {
	if md, ok := p.router.tr.(interface{ MarkDead(int) }); ok {
		md.MarkDead(q)
	}
}

// Handle registers h in the router's dispatch table for this job.
// Place-scoped kinds register directly on the shared stack.
func (p *jobPort) Handle(kind uint8, h transport.Handler) {
	if !jobScopedKind[kind] {
		p.router.tr.Handle(kind, h)
		return
	}
	p.handlers[kind] = h
}

func (p *jobPort) Send(to int, kind uint8, payload []byte) error {
	if !jobScopedKind[kind] {
		return p.router.tr.Send(to, kind, payload)
	}
	buf := envelopes.Get().(*[]byte)
	*buf = appendJobEnvelope((*buf)[:0], p.job, payload)
	n := int64(len(*buf))
	err := p.router.tr.Send(to, kind, *buf)
	envelopes.Put(buf)
	if err != nil {
		return err
	}
	p.stats.SendsOut.Add(1)
	p.stats.BytesOut.Add(n)
	p.router.mJobMsgs.Add(p.jobKey, 1)
	p.router.mJobBytes.Add(p.jobKey, n)
	return nil
}

func (p *jobPort) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if !jobScopedKind[kind] {
		return p.router.tr.Call(to, kind, payload)
	}
	buf := envelopes.Get().(*[]byte)
	*buf = appendJobEnvelope((*buf)[:0], p.job, payload)
	n := int64(len(*buf))
	reply, err := p.router.tr.Call(to, kind, *buf)
	envelopes.Put(buf)
	if err == nil {
		p.stats.CallsOut.Add(1)
		p.stats.BytesOut.Add(n)
		p.router.mJobMsgs.Add(p.jobKey, 1)
		p.router.mJobBytes.Add(p.jobKey, n)
	}
	return reply, err
}

// envelopes recycles the outbound envelope buffers of job ports and of the
// reliable layer. Every transport below them copies a payload before it
// keeps it — LocalFabric into a pooled receive buffer, FaultFabric for the
// sends it delays or duplicates, TCP by writing the frame before Send or
// Call returns — so a buffer is free again once the call that carried it
// returns.
var envelopes = sync.Pool{New: func() any { return new([]byte) }}
