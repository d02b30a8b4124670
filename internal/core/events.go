package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a structured run event.
type EventKind int

const (
	// EventPlaceSuspected: the failure detector missed a heartbeat from a
	// place; Misses carries the consecutive-miss count. Suspicion clears
	// silently when a later heartbeat succeeds.
	EventPlaceSuspected EventKind = iota + 1
	// EventPlaceDead: a place was declared dead (by the detector, a
	// transport verdict, or an injected Kill) and recovery will exclude it.
	EventPlaceDead
	// EventRecoveryStarted: the coordinator began the rebuild→exchange→resume
	// protocol for a new epoch.
	EventRecoveryStarted
	// EventRecoveryFinished: the recovery completed; Duration is its wall
	// time. A mid-recovery death restarts the protocol within the same
	// started/finished pair.
	EventRecoveryFinished
	// EventChaosInject: the fault plan injected a fault on a link; Detail
	// names it ("drop", "dup", "delay", "partition", "drop-reply") and
	// Place is the destination.
	EventChaosInject
	// EventClusterFormed: every place has prepared its epoch-0 state and
	// the coordinator released the startup barrier; workers are running.
	// Emitted once per run, on place 0.
	EventClusterFormed
)

func (k EventKind) String() string {
	switch k {
	case EventPlaceSuspected:
		return "place-suspected"
	case EventPlaceDead:
		return "place-dead"
	case EventRecoveryStarted:
		return "recovery-started"
	case EventRecoveryFinished:
		return "recovery-finished"
	case EventChaosInject:
		return "chaos-inject"
	case EventClusterFormed:
		return "cluster-formed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// RunEvent is one structured notification delivered to the user's Events
// callback — the public face of the failure detector and chaos layer.
type RunEvent struct {
	Kind     EventKind
	Place    int           // subject place; -1 when not applicable
	Epoch    uint64        // epoch the event belongs to
	Misses   int           // EventPlaceSuspected: consecutive heartbeat misses
	Duration time.Duration // EventRecoveryFinished: recovery wall time
	Detail   string        // EventChaosInject: injected fault name
}

func (ev RunEvent) String() string {
	switch ev.Kind {
	case EventPlaceSuspected:
		return fmt.Sprintf("%s place=%d misses=%d", ev.Kind, ev.Place, ev.Misses)
	case EventRecoveryFinished:
		return fmt.Sprintf("%s epoch=%d in %v", ev.Kind, ev.Epoch, ev.Duration)
	case EventChaosInject:
		return fmt.Sprintf("%s %s to=%d", ev.Kind, ev.Detail, ev.Place)
	default:
		return fmt.Sprintf("%s place=%d epoch=%d", ev.Kind, ev.Place, ev.Epoch)
	}
}

// eventSink serializes RunEvent delivery to the user callback on one
// dedicated goroutine (started lazily on first emit, so a cluster that is
// built but never run spawns nothing). Emission never blocks the engine:
// when the buffer is full the event is counted as dropped instead.
type eventSink struct {
	fn      func(RunEvent)
	mu      sync.Mutex
	ch      chan RunEvent
	done    chan struct{}
	started bool
	closed  bool
	dropped atomic.Int64
}

func newEventSink(fn func(RunEvent)) *eventSink {
	if fn == nil {
		return nil
	}
	return &eventSink{
		fn:   fn,
		ch:   make(chan RunEvent, 1024),
		done: make(chan struct{}),
	}
}

// emit queues ev for delivery. Safe on a nil sink and after close.
func (s *eventSink) emit(ev RunEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.dropped.Add(1)
		return
	}
	if !s.started {
		s.started = true
		go s.run()
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
	}
	s.mu.Unlock()
}

func (s *eventSink) run() {
	for ev := range s.ch {
		s.fn(ev)
	}
	close(s.done)
}

// close drains queued events through the callback and stops the goroutine.
// Events emitted afterwards are dropped.
func (s *eventSink) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	close(s.ch)
	s.mu.Unlock()
	if started {
		<-s.done
	}
}
