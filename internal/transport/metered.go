package transport

import (
	"errors"

	"github.com/dpx10/dpx10/internal/metrics"
)

// Metered wraps a transport endpoint and mirrors its traffic into a
// metrics registry with per-kind granularity. It must sit directly above
// the raw endpoint — below the fault-injection and reliable-delivery
// layers — so that what it counts is exactly what crosses the wire:
// retries count once per attempt, chaos-dropped messages count at
// neither side, and duplicate deliveries count at the receiver before
// dedup discards them. The metrics-invariant tests rely on this to match
// the fabric's own Stats counters number for number.
type Metered struct {
	inner Transport

	msgsOut  *metrics.Vec
	bytesOut *metrics.Vec
	msgsIn   *metrics.Vec
	bytesIn  *metrics.Vec
	sendErrs *metrics.Counter
}

// NewMetered wraps inner so its traffic is recorded in reg. A disabled
// (nil) registry returns inner unchanged: metering off costs nothing.
func NewMetered(inner Transport, reg *metrics.Registry) Transport {
	if !reg.Enabled() {
		return inner
	}
	return &Metered{
		inner:    inner,
		msgsOut:  reg.Vec(metrics.TransportMsgsOutID),
		bytesOut: reg.Vec(metrics.TransportBytesOutID),
		msgsIn:   reg.Vec(metrics.TransportMsgsInID),
		bytesIn:  reg.Vec(metrics.TransportBytesInID),
		sendErrs: reg.Counter(metrics.TransportSendErrorsID),
	}
}

var _ Transport = (*Metered)(nil)

func (m *Metered) Self() int    { return m.inner.Self() }
func (m *Metered) NPlaces() int { return m.inner.NPlaces() }
func (m *Metered) Alive(p int) bool {
	return m.inner.Alive(p)
}
func (m *Metered) Close() error  { return m.inner.Close() }
func (m *Metered) Stats() *Stats { return m.inner.Stats() }

// MarkDead forwards a failure-detector verdict to the endpoint, which
// learns of deaths through this optional method rather than Transport.
func (m *Metered) MarkDead(p int) {
	if md, ok := m.inner.(interface{ MarkDead(int) }); ok {
		md.MarkDead(p)
	}
}

// Handle registers h wrapped with inbound accounting. The endpoint
// counts a message delivered exactly when it invokes the handler, so
// counting on entry keeps the meter in lockstep with endpoint Stats.
func (m *Metered) Handle(kind uint8, h Handler) {
	m.inner.Handle(kind, func(from int, payload []byte) ([]byte, error) {
		m.msgsIn.Add(kind, 1)
		m.bytesIn.Add(kind, int64(len(payload)))
		return h(from, payload)
	})
}

// linkError reports errors under which the endpoint did not count the
// message as sent: the link check or handler lookup failed before any
// bytes moved.
func linkError(err error) bool {
	return errors.Is(err, ErrDeadPlace) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrUnreachable) || errors.Is(err, ErrNoHandler)
}

func (m *Metered) Send(to int, kind uint8, payload []byte) error {
	err := m.inner.Send(to, kind, payload)
	if err != nil {
		m.sendErrs.Add(-1, 1)
		return err
	}
	m.msgsOut.Add(kind, 1)
	m.bytesOut.Add(kind, int64(len(payload)))
	return nil
}

func (m *Metered) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	reply, err := m.inner.Call(to, kind, payload)
	// A request that reached the far handler counts as sent even when the
	// handler itself failed — that is when the endpoint counted it too.
	if err == nil || !linkError(err) {
		m.msgsOut.Add(kind, 1)
		m.bytesOut.Add(kind, int64(len(payload)))
	}
	if err != nil {
		m.sendErrs.Add(-1, 1)
	}
	return reply, err
}
