package core

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/trace"
	"github.com/dpx10/dpx10/internal/transport"
)

// debugf logs coordinator-side protocol progress when DPX10_DEBUG is set.
func debugf(format string, args ...interface{}) {
	if os.Getenv("DPX10_DEBUG") != "" {
		log.Printf("dpx10: "+format, args...)
	}
}

// coEvent is a notification delivered to the coordinator on place 0:
// either "place p finished all local vertices in epoch e" or "place p
// looks dead".
type coEvent struct {
	fault bool
	place int
	epoch uint64
}

// coordinator runs on place 0 (paper §VI-A: execution starts at Place 0).
// It detects global termination — every alive place has reported that all
// of its local vertices finished — and serializes recovery when a place
// dies. Every round is a fan-out of synchronous Calls, so a round only
// begins after every survivor completed the previous one.
type coordinator[T any] struct {
	pe       *placeEngine[T]
	events   chan coEvent
	abort    <-chan struct{}
	abortErr func() error

	epoch uint64
	alive map[int]bool
	done  map[int]bool

	recoveries    int
	recoveryNanos int64

	// phaseHists maps each recovery-phase kind to its duration histogram
	// (nil handles when metrics are off). epochT0 marks when the current
	// epoch began, for the per-epoch trace spans.
	phaseHists map[uint8]*metrics.Histogram
	epochT0    time.Time

	// sink receives structured run events (may be nil; emit is nil-safe).
	sink *eventSink
}

func newCoordinator[T any](pe *placeEngine[T], abort <-chan struct{}, abortErr func() error) *coordinator[T] {
	co := &coordinator[T]{
		pe:       pe,
		events:   make(chan coEvent, 4096),
		abort:    abort,
		abortErr: abortErr,
		alive:    make(map[int]bool, pe.cfg.Places),
		done:     make(map[int]bool),
	}
	for p := 0; p < pe.cfg.Places; p++ {
		co.alive[p] = true
	}
	co.phaseHists = map[uint8]*metrics.Histogram{
		kindRebuild:  pe.reg.Histogram(metrics.RecoveryRebuildNs),
		kindExchange: pe.reg.Histogram(metrics.RecoveryReplayNs),
		kindResume:   pe.reg.Histogram(metrics.RecoveryResumeNs),
	}
	return co
}

// places returns the ids of the places whose liveness is alive, in
// ascending order: the survivors, or the dead set.
func (co *coordinator[T]) places(alive bool) []int {
	out := make([]int, 0, len(co.alive))
	for p, ok := range co.alive {
		if ok == alive {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// run processes events until the computation completes or aborts. It
// returns nil on success.
func (co *coordinator[T]) run() error {
	co.epochT0 = time.Now()
	for {
		select {
		case <-co.abort:
			if err := co.abortErr(); err != nil {
				return err
			}
			return errors.New("core: run aborted")
		case ev := <-co.events:
			if ev.fault {
				debugf("fault event: place %d (epoch %d)", ev.place, ev.epoch)
				if ev.place == 0 {
					return placeDead(0)
				}
				if !co.alive[ev.place] {
					continue // duplicate report, already recovered
				}
				if err := co.recoverFrom(ev.place); err != nil {
					return err
				}
			} else {
				debugf("done event: place %d (epoch %d/%d)", ev.place, ev.epoch, co.epoch)
				if ev.epoch != co.epoch {
					continue // completion report from a superseded epoch
				}
				co.done[ev.place] = true
			}
			if co.allDone() {
				co.endEpochSpan()
				return nil
			}
		}
	}
}

func (co *coordinator[T]) allDone() bool {
	for _, p := range co.places(true) {
		if !co.done[p] {
			return false
		}
	}
	return true
}

// broadcastStop ends the run on every alive place. Stop is a Call: when it
// returns, each place that could be reached has closed its stop channel, so
// whatever the caller does next — detach the job, close place 0's endpoint —
// cannot overtake it. A place that died (or a fabric torn down) during
// shutdown no longer matters; stop is the last thing place 0 has to say.
func (co *coordinator[T]) broadcastStop() {
	phase(co.pe.tr, co.places(true), kindStop, putU64(nil, co.epoch), nil, true)
}

// recoverFrom executes the recovery protocol of §VI-D after the death of
// place dead. If another place dies mid-recovery, the protocol restarts
// with the enlarged dead set and a fresh epoch; state rebuilt by the
// abandoned attempt is superseded wholesale, so the restart is safe.
func (co *coordinator[T]) recoverFrom(dead int) error {
	co.endEpochSpan()
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		co.recoveryNanos += d.Nanoseconds()
		co.recoveries++
		if sp := co.pe.cfg.Spans; sp != nil {
			sp.Add("recovery", 0, trace.LaneCoordinator, t0)
		}
		co.epochT0 = time.Now()
		co.sink.emit(RunEvent{Kind: EventRecoveryFinished, Place: dead, Epoch: co.epoch, Duration: d})
	}()

	co.alive[dead] = false
	co.sink.emit(RunEvent{Kind: EventPlaceDead, Place: dead, Epoch: co.epoch})
	co.sink.emit(RunEvent{Kind: EventRecoveryStarted, Place: dead, Epoch: co.epoch})
	for {
		survivors := co.places(true)
		if len(survivors) == 0 || !co.alive[0] {
			return placeDead(0)
		}
		co.epoch++
		newDead, err := co.attemptRecovery(survivors)
		if err == nil {
			return nil
		}
		if newDead < 0 {
			return err
		}
		if newDead == 0 {
			return placeDead(0)
		}
		co.alive[newDead] = false
		co.sink.emit(RunEvent{Kind: EventPlaceDead, Place: newDead, Epoch: co.epoch})
	}
}

// attemptRecovery drives one pass of the three rounds over the survivors.
// On a dead-place error it returns that place's id (>= 0) so the caller
// can restart; on any other error it returns -1 and the error.
func (co *coordinator[T]) attemptRecovery(survivors []int) (int, error) {
	// The rebuild payload carries the new epoch and the full dead set, so
	// every survivor derives the identical restricted distribution; the
	// other rounds carry the epoch alone. The resume replies seed the done
	// set for the new epoch: [1] from a place with no work left.
	dead := co.places(false)
	rebuild := putU32(putU64(nil, co.epoch), uint32(len(dead)))
	for _, p := range dead {
		rebuild = putU32(rebuild, uint32(p))
	}
	co.done = make(map[int]bool)
	for _, kind := range []uint8{kindRebuild, kindExchange, kindResume} {
		payload := rebuild[:8]
		if kind == kindRebuild {
			payload = rebuild
		}
		if p, err := co.timedPhase(survivors, kind, payload, func(p int, reply []byte) {
			co.done[p] = len(reply) == 1 && reply[0] == 1
		}); err != nil {
			return p, err
		}
	}
	return 0, nil
}

// timedPhase runs one phase, feeding its wall time to the phase's duration
// histogram and, when span tracing is on, the coordinator's span lane. The
// time of a phase that fails mid-way still counts — it was spent — which
// keeps the histogram sums comparable to the total recovery wall time.
func (co *coordinator[T]) timedPhase(survivors []int, kind uint8, payload []byte, onReply func(p int, reply []byte)) (int, error) {
	t0 := time.Now()
	p, err := phase(co.pe.tr, survivors, kind, payload, onReply, false)
	co.phaseHists[kind].Observe(time.Since(t0).Nanoseconds())
	if sp := co.pe.cfg.Spans; sp != nil {
		sp.Add("recovery:"+trace.KindName(kind), 0, trace.LaneCoordinator, t0)
	}
	return p, err
}

// endEpochSpan closes the current epoch's span: at recovery start (the
// epoch is being superseded) and at completion.
func (co *coordinator[T]) endEpochSpan() {
	if sp := co.pe.cfg.Spans; sp != nil && !co.epochT0.IsZero() {
		sp.Add(fmt.Sprintf("epoch %d", co.epoch), 0, trace.LaneCoordinator, co.epochT0)
	}
}

// phase issues one synchronous Call per place, all at once, and returns when
// every one has: the fan-out behind every broadcast place 0 makes — begin,
// the three recovery rounds, stop and the stats gather — each a barrier. The
// replies are then taken in place order, up to the first failure: it returns
// the failing place id when that place died, or -1 with the error otherwise;
// with skipFailed (the shutdown broadcasts, where a lost place no longer
// matters) a failing place is passed over instead.
func phase(tr transport.Transport, places []int, kind uint8, payload []byte, onReply func(p int, reply []byte), skipFailed bool) (int, error) {
	replies := make([][]byte, len(places))
	errs := make([]error, len(places))
	var wg sync.WaitGroup
	for k, p := range places {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[k], errs[k] = tr.Call(p, kind, payload)
			debugf("phase %s <- place %d (err=%v)", trace.KindName(kind), p, errs[k])
		}()
	}
	wg.Wait()
	for k, p := range places {
		switch err := errs[k]; {
		case err == nil:
			if onReply != nil {
				onReply(p, replies[k])
			}
		case skipFailed:
		case errors.Is(err, transport.ErrDeadPlace):
			return p, err
		default:
			return -1, fmt.Errorf("core: phase %s at place %d: %w", trace.KindName(kind), p, err)
		}
	}
	return 0, nil
}
