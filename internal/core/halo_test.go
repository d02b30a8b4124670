package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/transport"
)

// fetchPerSteal watches one place's outbound calls and records, for every
// tile the place stole, how many kindFetch calls it sent to each owner
// before handing the results back.
type fetchPerSteal struct {
	transport.Transport
	onFetch func() // called for every fetch sent on behalf of a stolen tile

	mu     sync.Mutex
	stolen bool        // between a successful steal reply and its steal-done
	calls  map[int]int // owner -> fetch calls for the stolen tile in hand
	worst  int         // most fetch calls any stolen tile sent to one owner
}

func (f *fetchPerSteal) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	reply, err := f.Transport.Call(to, kind, payload)
	f.mu.Lock()
	defer f.mu.Unlock()
	switch kind {
	case kindSteal:
		f.stolen = err == nil && len(reply) > 0 // an empty reply: nothing ready
		if f.stolen {
			clear(f.calls)
		}
	case kindFetch:
		if f.stolen {
			f.calls[to]++
			f.worst = max(f.worst, f.calls[to])
			f.onFetch()
		}
	case kindStealDone:
		f.stolen = false
	}
	return reply, err
}

// TestStolenTileFetchesOncePerOwner: a thief resolves a stolen tile's halo
// in one step — at most one fetch call per owning place per stolen tile,
// never one per stolen cell. One worker per place keeps each place's
// steal → fetch → steal-done sequence on a single goroutine, so the
// attribution is exact. The scenario is forced, not hoped for: under block
// rows places 1 and 2 have nothing of their own until place 0's rows are
// done, and the first cell of place 0's second row waits until a stolen
// tile has fetched. A thief holding that cell has fetched row 0 for it
// already; when the owner holds it, another tile of place 0 is ready beside
// it, and every tile but the grid's first reads cells outside itself that
// place 0 owns.
func TestStolenTileFetchesOncePerOwner(t *testing.T) {
	pat := patterns.NewDiagonal(24, 24)
	cfg := stealConfig(pat, 3)
	cfg.Threads = 1
	cfg.TileSize = 8
	thiefFetched := make(chan struct{})
	var once sync.Once
	cfg.Compute = func(i, j int32, deps []Cell[int64]) int64 {
		if i == 1 && j == 0 {
			<-thiefFetched
		}
		return sumCompute(i, j, deps)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	watch := make([]*fetchPerSteal, len(cl.engines))
	for p, pe := range cl.engines {
		watch[p] = &fetchPerSteal{Transport: pe.tr, calls: map[int]int{},
			onFetch: func() { once.Do(func() { close(thiefFetched) }) }}
		pe.tr = watch[p]
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResult(t, cl, pat)
	for p, w := range watch {
		if w.worst > 1 {
			t.Errorf("place %d sent %d fetch calls to one owner for one stolen tile, want at most 1", p, w.worst)
		}
	}
}

// onFirstFetch runs hook inside one place's first kindFetch call — after
// the tile was claimed, before the halo reply exists — and then lets the
// call proceed. When the hook returns a channel, the reply is withheld
// until it closes.
type onFirstFetch struct {
	transport.Transport
	once sync.Once
	hook func(owner int) (hold <-chan struct{})
}

func (o *onFirstFetch) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if kind != kindFetch {
		return o.Transport.Call(to, kind, payload)
	}
	var hold <-chan struct{}
	o.once.Do(func() { hold = o.hook(to) })
	reply, err := o.Transport.Call(to, kind, payload)
	if hold != nil {
		<-hold
	}
	return reply, err
}

// TestHaloOwnerKilledBeforeReply kills the place that owns a tile's halo
// between the tile being claimed and the halo reply: the fetch fails with
// the owner's death, the walk abandons the tile without running a cell,
// and the recovery recomputes what the dead place held. Every cell computed
// beyond the grid's own count is recovery work, so the surplus must be zero
// at the kill and positive at the end.
func TestHaloOwnerKilledBeforeReply(t *testing.T) {
	pat := patterns.NewDiagonal(24, 20)
	cells := int64(len(refValues(pat)))
	cl, err := NewCluster(baseConfig(pat, 3))
	if err != nil {
		t.Fatal(err)
	}
	var atKill atomic.Int64
	atKill.Store(-1)
	pe := cl.engines[2]
	pe.tr = &onFirstFetch{Transport: pe.tr, hook: func(owner int) <-chan struct{} {
		if owner != 1 {
			t.Errorf("place 2's halo is owned by place %d, want its block-row neighbour 1", owner)
		}
		var computed int64
		for _, e := range cl.engines {
			computed += e.computed.Load()
		}
		atKill.Store(computed)
		cl.KillUnannounced(owner)
		return nil
	}}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := cl.Stats()
	if st.Recoveries < 1 {
		t.Fatal("the halo's owner was never killed: no recovery recorded")
	}
	checkResult(t, cl, pat)
	if before := atKill.Load(); before < 0 || before > cells {
		t.Fatalf("%d cells computed at the kill, want 0..%d: nothing is recomputed before a fault", before, cells)
	}
	if st.ComputedCells <= cells {
		t.Fatalf("ComputedCells = %d for %d cells: the dead place's work was not recomputed", st.ComputedCells, cells)
	}
}

// TestChaosSoakStaleHalo runs a stale-epoch halo reply through the soak's
// drop and partition profiles: place 1's first halo request is served, the
// uninvolved place 2 is killed while the reply is in flight, and the reply
// is handed to the walk only once place 1's epoch has been paused. The walk
// must drop the tile with the values it was just given — the halo buffer
// does not outlive it — and the recovered run must match cell for cell.
func TestChaosSoakStaleHalo(t *testing.T) {
	seeds := soakSeeds(t)
	pat := patterns.NewDiagonal(20, 16)
	for _, prof := range chaosProfiles() {
		if prof.name != "drop" && prof.name != "partition" {
			continue
		}
		for s := 0; s < seeds; s++ {
			seed := int64(1000*s + 83)
			t.Run(fmt.Sprintf("%s/seed%d", prof.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := baseConfig(pat, 3)
				cfg.Chaos = prof.make(seed)
				cfg.ProbeInterval = 2 * time.Millisecond
				cfg.SuspicionThreshold = 5 // as in soakRun: drops also eat heartbeats
				cl, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pe := cl.engines[1]
				pe.tr = &onFirstFetch{Transport: pe.tr, hook: func(int) <-chan struct{} {
					cl.Kill(2)
					return pe.current().quit // closed when the recovery pauses this epoch
				}}
				done := make(chan error, 1)
				go func() { done <- cl.Run() }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
				case <-time.After(2 * time.Minute):
					t.Fatal("soak run did not terminate")
				}
				if cl.Stats().Recoveries < 1 {
					t.Fatal("no recovery recorded: the halo reply never went stale")
				}
				checkResult(t, cl, pat)
			})
		}
	}
}
