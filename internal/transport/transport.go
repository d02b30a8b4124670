// Package transport provides the message fabric that connects DPX10 places.
//
// All cross-place traffic in the system — dependency fetches, indegree
// decrements, recovery transfers, and control messages — flows through a
// Transport. Two implementations are provided: an in-process fabric built
// on channels (LocalFabric) used for single-process runs and tests, and a
// TCP fabric (NewTCP) used when each place is its own OS process, which is
// how X10's Socket runtime deploys places.
//
// Handlers are registered per message kind. A handler must treat its
// payload as immutable and must not retain it after returning.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrDeadPlace is returned by Send and Call when the destination place has
// failed. It is the Go analogue of Resilient X10's DeadPlaceException: the
// DPX10 engine catches it and enters recovery mode.
var ErrDeadPlace = errors.New("transport: dead place")

// ErrClosed is returned once a transport endpoint has been closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnreachable is returned by Send and Call when a message could not be
// delivered but the destination is not known to be dead: an injected fault
// (FaultFabric) or a transient link failure. Unlike ErrDeadPlace it is
// retryable — the engine's reliable-delivery layer backs off and resends.
var ErrUnreachable = errors.New("transport: destination unreachable")

// ErrNoHandler is returned by Call when the destination has no handler
// registered for the message kind.
var ErrNoHandler = errors.New("transport: no handler for message kind")

// Handler processes one inbound message. For Call traffic the returned
// bytes are delivered to the caller; for Send traffic they are discarded.
type Handler func(from int, payload []byte) ([]byte, error)

// Transport is one place's view of the fabric.
//
// Send delivers a one-way message: it may return before the handler runs,
// but delivery between a given pair of places is ordered. Call delivers a
// request and blocks for the response. Both return ErrDeadPlace if the
// destination has failed.
type Transport interface {
	// Self is the place id of this endpoint.
	Self() int
	// NPlaces is the total number of places in the fabric.
	NPlaces() int
	// Handle registers the handler for a message kind. It must be called
	// before any message of that kind can arrive; registering the same
	// kind twice replaces the handler.
	Handle(kind uint8, h Handler)
	// Send delivers a one-way message to place `to`.
	Send(to int, kind uint8, payload []byte) error
	// Call delivers a request to place `to` and waits for the reply.
	Call(to int, kind uint8, payload []byte) ([]byte, error)
	// Alive reports whether place p is believed to be alive.
	Alive(p int) bool
	// Close shuts the endpoint down.
	Close() error
	// Stats returns this endpoint's traffic counters.
	Stats() *Stats
}

// Stats counts traffic at one endpoint. All fields are updated atomically
// and may be read while the transport is in use.
type Stats struct {
	SendsOut  atomic.Int64 // one-way messages sent
	CallsOut  atomic.Int64 // requests sent
	BytesOut  atomic.Int64 // payload bytes sent (requests + one-way)
	MsgsIn    atomic.Int64 // messages received (requests + one-way)
	BytesIn   atomic.Int64 // payload bytes received
	RepliesIn atomic.Int64 // call replies received

	// Data-plane counters (TCP endpoints only): actual socket activity,
	// as opposed to the logical message counters above. WireBytesOut vs
	// BytesOut is the framing overhead.
	WriteCalls   atomic.Int64 // vectored writes issued, one per frame
	WireBytesOut atomic.Int64 // total bytes written, headers included
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		SendsOut:  s.SendsOut.Load(),
		CallsOut:  s.CallsOut.Load(),
		BytesOut:  s.BytesOut.Load(),
		MsgsIn:    s.MsgsIn.Load(),
		BytesIn:   s.BytesIn.Load(),
		RepliesIn: s.RepliesIn.Load(),

		WriteCalls:   s.WriteCalls.Load(),
		WireBytesOut: s.WireBytesOut.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	SendsOut  int64
	CallsOut  int64
	BytesOut  int64
	MsgsIn    int64
	BytesIn   int64
	RepliesIn int64

	WriteCalls   int64
	WireBytesOut int64
}

// Add accumulates another snapshot into s.
func (s *StatsSnapshot) Add(o StatsSnapshot) {
	s.SendsOut += o.SendsOut
	s.CallsOut += o.CallsOut
	s.BytesOut += o.BytesOut
	s.MsgsIn += o.MsgsIn
	s.BytesIn += o.BytesIn
	s.RepliesIn += o.RepliesIn
	s.WriteCalls += o.WriteCalls
	s.WireBytesOut += o.WireBytesOut
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("sends=%d calls=%d bytesOut=%d msgsIn=%d bytesIn=%d wireOut=%d writes=%d",
		s.SendsOut, s.CallsOut, s.BytesOut, s.MsgsIn, s.BytesIn, s.WireBytesOut, s.WriteCalls)
}
