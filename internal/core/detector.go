package core

import (
	"errors"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// detector is the heartbeat-based failure detector (tentpole #2). It
// replaces the ad-hoc place-0 probe loops: one detector instance pings its
// targets every interval and classifies the outcome.
//
//   - A definitive transport verdict (ErrDeadPlace) declares the target
//     dead immediately — fail-stop transports only report it when the
//     place is gone.
//   - A transient failure (injected chaos, link trouble) increments the
//     target's consecutive-miss count; threshold misses in a row declare
//     it dead. Any successful heartbeat clears the suspicion.
//
// On declaration the target is marked dead at the transport (so every
// place observes the death, like X10's runtime-wide DeadPlaceException)
// and onDead runs exactly once for it. Both place 0 (watching its peers)
// and a process without place 0 (watching the coordinator) run detectors;
// only the targets differ.
type detector struct {
	tr        transport.Transport
	targets   []int
	interval  time.Duration
	threshold int

	// onSuspect observes a miss before the threshold declares death; may
	// be nil. onDead must be non-nil and may block (it feeds the
	// coordinator's event channel).
	onSuspect func(p, misses int)
	onDead    func(p int)

	// mMisses counts failed heartbeats (nil no-op when metrics are off).
	mMisses *metrics.Counter

	// The detector exits when stopCh closes.
	stopCh <-chan struct{}
}

func (d *detector) run() {
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	misses := make(map[int]int, len(d.targets))
	declared := make(map[int]bool, len(d.targets))
	var seq uint64
	buf := make([]byte, 0, pingLen)
	for {
		select {
		case <-d.stopCh:
			return
		case <-tick.C:
		}
		for _, p := range d.targets {
			if declared[p] {
				continue
			}
			seq++
			buf = encodePing(buf[:0], seq, uint64(time.Now().UnixNano()))
			reply, err := d.tr.Call(p, kindPing, buf)
			if err == nil {
				_, _, err = decodePing(reply)
			}
			switch {
			case err == nil:
				misses[p] = 0
			case errors.Is(err, transport.ErrClosed):
				return // endpoint torn down; the run is over
			case errors.Is(err, transport.ErrDeadPlace):
				declared[p] = true
				d.onDead(p)
			default:
				// Unreachable, a malformed echo, or a handler error: one
				// more reason to suspect, not yet proof of death.
				misses[p]++
				d.mMisses.Inc(-1)
				if d.onSuspect != nil {
					d.onSuspect(p, misses[p])
				}
				if misses[p] >= d.threshold {
					declared[p] = true
					d.markDead(p)
					d.onDead(p)
				}
			}
		}
	}
}

// markDead pushes the verdict down to the transport so the whole fabric —
// not just this detector — observes the death. Without it, a place that is
// unreachable from place 0 but reachable from others would straddle the
// recovery's view of the cluster.
func (d *detector) markDead(p int) {
	if md, ok := d.tr.(interface{ MarkDead(int) }); ok {
		md.MarkDead(p)
	}
}

// peerTargets lists every place except self, the target set for place 0's
// peer detector.
func peerTargets(places, self int) []int {
	out := make([]int, 0, places-1)
	for p := 0; p < places; p++ {
		if p != self {
			out = append(out, p)
		}
	}
	return out
}
