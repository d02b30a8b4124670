package core

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
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

// coInbox is what the places report to the coordinator on place 0, kept as
// per-place state rather than queued: whether the place was reported dead,
// and the latest epoch it reported finishing all of its local vertices in.
// A report sets its state and then fills the one-slot wake channel, which
// the coordinator drains before it scans the state, so a report made during
// a scan wakes the next one. No report waits for the coordinator — a
// transport handler or a job's fault delivery returns at once — duplicate
// reports collapse into the state they set, and the inbox costs O(places)
// however many reports arrive.
type coInbox struct {
	fault []atomic.Bool
	done  []atomic.Uint64 // 1 + the latest epoch the place reported done in; 0 for none
	wake  chan struct{}
}

func newCoInbox(places int) *coInbox {
	return &coInbox{
		fault: make([]atomic.Bool, places),
		done:  make([]atomic.Uint64, places),
		wake:  make(chan struct{}, 1),
	}
}

// reportFault records that place p looks dead.
func (in *coInbox) reportFault(p int) {
	in.fault[p].Store(true)
	in.kick()
}

// reportDone records that place p finished its local vertices in epoch. A
// report from an older epoch than one already recorded changes nothing.
func (in *coInbox) reportDone(p int, epoch uint64) {
	for {
		old := in.done[p].Load()
		if old > epoch || in.done[p].CompareAndSwap(old, epoch+1) {
			break
		}
	}
	in.kick()
}

func (in *coInbox) kick() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// coordinator runs on place 0 (paper §VI-A: execution starts at Place 0).
// It detects global termination — every alive place has reported that all
// of its local vertices finished — and serializes recovery when a place
// dies. Every round is a fan-out of synchronous Calls, so a round only
// begins after every survivor completed the previous one.
type coordinator[T any] struct {
	pe       *placeEngine[T]
	in       *coInbox
	abort    <-chan struct{}
	abortErr func() error

	epoch uint64
	alive map[int]bool
	done  map[int]bool

	recoveries    int
	recoveryNanos int64

	// phaseHists holds each recovery round's duration histogram, by its
	// place in recoveryRounds (nil handles when metrics are off). epochT0
	// marks when the current epoch began, for the per-epoch trace spans.
	phaseHists []*metrics.Histogram
	epochT0    time.Time

	// sink receives structured run events (may be nil; emit is nil-safe).
	sink *eventSink
}

func newCoordinator[T any](pe *placeEngine[T], abort <-chan struct{}, abortErr func() error) *coordinator[T] {
	co := &coordinator[T]{
		pe:       pe,
		in:       newCoInbox(pe.cfg.Places),
		abort:    abort,
		abortErr: abortErr,
		alive:    make(map[int]bool, pe.cfg.Places),
		done:     make(map[int]bool),
	}
	for p := 0; p < pe.cfg.Places; p++ {
		co.alive[p] = true
	}
	co.phaseHists = []*metrics.Histogram{ // in recoveryRounds order
		pe.reg.Histogram(metrics.RecoveryRebuildNsID),
		pe.reg.Histogram(metrics.RecoveryReplayNsID),
		pe.reg.Histogram(metrics.RecoveryResumeNsID),
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

// run scans the places' reports until the computation completes or aborts.
// It returns nil on success. An abort outranks a finished scan: a job
// aborted before its last report was counted ends with the abort's error.
func (co *coordinator[T]) run() error {
	co.epochT0 = time.Now()
	for {
		finished, err := co.scan()
		if err != nil {
			return err
		}
		if finished {
			select {
			case <-co.abort:
				return co.aborted()
			default:
				return nil
			}
		}
		select {
		case <-co.abort:
			return co.aborted()
		case <-co.in.wake:
		}
	}
}

// aborted is run's error once abort is closed.
func (co *coordinator[T]) aborted() error {
	if err := co.abortErr(); err != nil {
		return err
	}
	return errors.New("core: run aborted")
}

// scan acts on the inbox: it recovers from each place newly reported dead —
// the death of place 0 ends the run — then counts the survivors that
// reported done in the current epoch, and reports whether all of them have.
// A fault report for a place already recovered from, and a done report from
// a superseded epoch, change nothing.
func (co *coordinator[T]) scan() (finished bool, err error) {
	if co.in.fault[0].Load() {
		return false, placeDead(0)
	}
	for p := 1; p < len(co.in.fault); p++ {
		if co.in.fault[p].Load() && co.alive[p] {
			debugf("fault: place %d (epoch %d)", p, co.epoch)
			if err := co.recoverFrom(p); err != nil {
				return false, err
			}
		}
	}
	for _, p := range co.places(true) {
		if !co.done[p] && co.in.done[p].Load() == co.epoch+1 {
			debugf("done: place %d (epoch %d)", p, co.epoch)
			co.done[p] = true
		}
	}
	if !co.allDone() {
		return false, nil
	}
	co.endEpochSpan()
	return true, nil
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
	phase(co.pe.tr, co.places(true), kindStop, encodeEpoch(nil, co.epoch), nil, true)
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
	rebuild, epoch := encodeRebuild(nil, co.epoch, co.places(false)), encodeEpoch(nil, co.epoch)
	co.done = make(map[int]bool)
	for n, kind := range recoveryRounds {
		payload := epoch
		if kind == kindRebuild {
			payload = rebuild
		}
		if p, err := co.timedPhase(survivors, kind, co.phaseHists[n], payload, func(p int, reply []byte) {
			co.done[p] = decodeFlag(reply)
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
func (co *coordinator[T]) timedPhase(survivors []int, kind uint8, hist *metrics.Histogram, payload []byte, onReply func(p int, reply []byte)) (int, error) {
	t0 := time.Now()
	p, err := phase(co.pe.tr, survivors, kind, payload, onReply, false)
	hist.Observe(time.Since(t0).Nanoseconds())
	if sp := co.pe.cfg.Spans; sp != nil {
		sp.Add("recovery:"+KindName(kind), 0, trace.LaneCoordinator, t0)
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
			debugf("phase %s <- place %d (err=%v)", KindName(kind), p, errs[k])
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
			return -1, fmt.Errorf("core: phase %s at place %d: %w", KindName(kind), p, err)
		}
	}
	return 0, nil
}
