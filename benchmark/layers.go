package main

import (
	"fmt"
	"sync/atomic"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/transport"
	"github.com/dpx10/dpx10/internal/vcache"
)

// Layers with no injection point are timed by calling their exported
// functions directly on the workload's own shapes: same pattern,
// distribution, tile size, cache capacity and mean message size.

// traffic carries what the direct probes need from a real rep's Stats.
type traffic struct {
	msgBytes int // mean payload bytes per transport message
	div      int // divides the probes' fixed operation counts (1; 64 under -quick)
}

// probeKind is the wire kind of the transport probes' echo/sink handlers;
// the probes own their fabrics, so it cannot collide with engine kinds.
const probeKind = 200

// sink keeps probe results observable to the compiler.
var sink atomic.Int64

// engineTileSize mirrors the engine's auto tile sizing (about 64 tiles per
// place, clamped to [8, 2048] cells) so the probes run on the layout a
// real rep uses.
func engineTileSize(cfg, n int) int {
	if n <= 0 {
		return 1
	}
	s := cfg
	if s <= 0 {
		s = min(max(n/64, 8), 2048)
	}
	return min(s, n)
}

func perOp(ns int64, ops int) float64 { return ratio(float64(ns), float64(ops)) }

func layerProbes[T comparable](p *problem[T], d deploy, t traffic) (map[string]float64, error) {
	out := map[string]float64{}
	h, w := p.pat.Bounds()
	dd := newDist(d.dist)(h, w, d.places)
	cells := float64(p.cells)

	// dist: one PlaceOffset per cell, the per-edge lookup of the tile walk.
	t0 := nanos()
	var acc int
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			pl, off := dd.PlaceOffset(i, j)
			acc += pl + off
		}
	}
	out["dist.place_offset_ns"] = perOp(nanos()-t0, int(h)*int(w))
	sink.Add(int64(acc))

	// dag: the tile-quotient acyclicity check a cold process pays once.
	places := dd.Places()
	base := make([]int, len(places)+1)
	sizes := make([]int, len(places))
	for k, pl := range places {
		lc := dd.LocalCount(pl)
		sizes[k] = engineTileSize(d.tile, lc)
		base[k+1] = base[k] + (lc+sizes[k]-1)/sizes[k]
	}
	t0 = nanos()
	acyclic := dag.QuotientAcyclic(p.pat, func(i, j int32) int {
		pl, off := dd.PlaceOffset(i, j)
		return base[pl] + off/sizes[pl]
	}, base[len(places)], 1<<22)
	out["dag.quotient_check_s"] = float64(nanos()-t0) / 1e9
	if !acyclic {
		for k := range sizes {
			sizes[k] = 1 // the engine's uniform per-vertex fallback
		}
	}

	// distarray: the three set-up scans of epoch 0, over every place.
	var newNs, initNs, actNs int64
	var last *distarray.Chunk[T]
	for k, pl := range places {
		t0 = nanos()
		ch := distarray.NewChunk[T](pl, dd)
		newNs += nanos() - t0
		t0 = nanos()
		ch.InitIndegrees(p.pat)
		initNs += nanos() - t0

		ch = distarray.NewChunk[T](pl, dd)
		ch.SetDepCache(true)
		t0 = nanos()
		ch.ConfigureTiles(sizes[k])
		ch.InitActivateTiles(p.pat)
		actNs += nanos() - t0
		last = ch
	}
	out["distarray.new_chunk_ns_per_cell"] = float64(newNs) / cells
	out["distarray.init_indegrees_ns_per_cell"] = float64(initNs) / cells
	out["distarray.activate_tiles_ns_per_cell"] = float64(actNs) / cells

	// distarray: every cross-tile edge into the last place's chunk,
	// applied once each — exactly what drains its tile counters to zero.
	lp := places[len(places)-1]
	ts := sizes[len(places)-1]
	var targets []int
	var buf []dag.VertexID
	for off := 0; off < last.Len(); off++ {
		i, j := dd.CellAt(lp, off)
		if !dag.IsActive(p.pat, i, j) {
			continue
		}
		buf = p.pat.Dependencies(i, j, buf[:0])
		for _, dep := range buf {
			if pl, doff := dd.PlaceOffset(dep.I, dep.J); pl != lp || doff/ts != off/ts {
				targets = append(targets, off)
			}
		}
	}
	t0 = nanos()
	ready := 0
	for _, off := range targets {
		if _, ok := last.TileDecrement(off); ok {
			ready++
		}
	}
	out["distarray.decrement_ns"] = perOp(nanos()-t0, len(targets))
	sink.Add(int64(ready))

	// distarray: recovery's local half, rebuilding every survivor's
	// half-finished chunk after the last place died.
	out["distarray.rebuild_ns_per_cell"] = 0
	if len(places) > 1 {
		restricted, err := dd.Restrict(func(pl int) bool { return pl != lp })
		if err != nil {
			return nil, fmt.Errorf("probe: restrict: %w", err)
		}
		var rebuildNs int64
		var rebuilt int
		var zero T
		for _, pl := range places[:len(places)-1] {
			old := distarray.NewChunk[T](pl, dd)
			old.InitIndegrees(p.pat)
			for off := 0; off < old.Len()/2; off++ {
				if !old.Finished(off) {
					old.SetResult(off, zero)
				}
			}
			t0 = nanos()
			nc, _ := distarray.RebuildChunk(old, p.pat, restricted, false)
			rebuildNs += nanos() - t0
			rebuilt += nc.Len()
		}
		out["distarray.rebuild_ns_per_cell"] = perOp(rebuildNs, rebuilt)
	}

	// sched: one placement decision per ready tile.
	width := len(p.codec.Encode(nil, p.want[0][0]))
	pk := sched.NewPicker(sched.Local, dd, func(int) bool { return true }, width, 1)
	picks := (1 << 20) / t.div
	t0 = nanos()
	acc = 0
	for k := 0; k < picks; k++ {
		acc += pk.PickTile(k&1, ts, nil)
	}
	out["sched.pick_tile_ns"] = perOp(nanos()-t0, picks)
	sink.Add(int64(acc))

	probeVCache(out, p, d.cache, w, t.div)
	probeCodec(out, p, t.div)
	if err := probeLocalFabric(out, t.div); err != nil {
		return nil, err
	}
	if err := probeTCP(out, width, t); err != nil {
		return nil, err
	}
	return out, nil
}

// probeVCache drives the cache at the workload's capacity with the key
// stream a boundary produces: whole rows, left to right.
func probeVCache[T comparable](out map[string]float64, p *problem[T], capacity int, w int32, div int) {
	ops := (1 << 18) / div
	c := vcache.New[T](capacity)
	ids := make([]dag.VertexID, ops)
	vals := make([]T, ops)
	for k := range ids {
		ids[k] = dag.VertexID{I: int32(k / int(w)), J: int32(k % int(w))}
		vals[k] = p.want[0][0]
	}
	t0 := nanos()
	for k := range ids {
		c.Put(ids[k], vals[k])
	}
	out["vcache.put_ns"] = perOp(nanos()-t0, ops)
	t0 = nanos()
	hits := 0
	for k := range ids {
		if _, ok := c.Get(ids[k]); ok {
			hits++
		}
	}
	out["vcache.get_ns"] = perOp(nanos()-t0, ops)
	sink.Add(int64(hits))
	const batch = 256 // the aggregator's default flush size
	t0 = nanos()
	for k := 0; k+batch <= ops; k += batch {
		c.PutPushed(ids[k:k+batch], vals[k:k+batch])
	}
	out["vcache.put_pushed_ns_per_value"] = perOp(nanos()-t0, ops)
}

func probeCodec[T comparable](out map[string]float64, p *problem[T], div int) {
	ops := (1 << 20) / div
	row := p.want[len(p.want)-1]
	var buf []byte
	t0 := nanos()
	for k := 0; k < ops; k++ {
		buf = p.codec.Encode(buf[:0], row[k%len(row)])
	}
	out["codec.encode_ns_per_value"] = perOp(nanos()-t0, ops)
	t0 = nanos()
	n := 0
	for k := 0; k < ops; k++ {
		_, m, err := p.codec.Decode(buf)
		if err != nil {
			panic("benchmark: codec cannot decode its own encoding: " + err.Error())
		}
		n += m
	}
	out["codec.decode_ns_per_value"] = perOp(nanos()-t0, ops)
	sink.Add(int64(n))
}

// probeLocalFabric times the in-process fabric: a blocking Call and a
// one-way Send of 64 bytes between two places.
func probeLocalFabric(out map[string]float64, div int) error {
	ops := (1 << 16) / div
	f := transport.NewLocalFabric(2)
	defer f.Close()
	from, to := f.Endpoint(0), f.Endpoint(1)
	var got atomic.Int64
	done := make(chan struct{})
	reply := make([]byte, 8)
	to.Handle(probeKind, func(int, []byte) ([]byte, error) {
		if got.Add(1) == int64(2*ops) {
			close(done)
		}
		return reply, nil
	})
	payload := make([]byte, 64)
	t0 := nanos()
	for k := 0; k < ops; k++ {
		if _, err := from.Call(1, probeKind, payload); err != nil {
			return fmt.Errorf("probe: local call: %w", err)
		}
	}
	out["transport.local_call_ns"] = perOp(nanos()-t0, ops)
	t0 = nanos()
	for k := 0; k < ops; k++ {
		if err := from.Send(1, probeKind, payload); err != nil {
			return fmt.Errorf("probe: local send: %w", err)
		}
	}
	<-done
	out["transport.local_send_ns"] = perOp(nanos()-t0, ops)
	return nil
}

// probeTCP times the loopback data plane with default TCPOptions: blocking
// round trips with a fetch-sized exchange, then a one-way stream at the
// workload's mean message size.
func probeTCP(out map[string]float64, valueBytes int, t traffic) error {
	calls, sends := 5000/t.div, 20000/t.div
	placeholder := []string{"127.0.0.1:0", "127.0.0.1:0"}
	var eps [2]*transport.TCP
	for k := range eps {
		ep, err := transport.NewTCPOpts(k, placeholder, transport.TCPOptions{})
		if err != nil {
			if k == 1 {
				eps[0].Close()
			}
			return fmt.Errorf("probe: tcp endpoint: %w", err)
		}
		eps[k] = ep
	}
	defer eps[0].Close()
	defer eps[1].Close()
	addrs := []string{eps[0].Addr(), eps[1].Addr()}
	for _, ep := range eps {
		if err := ep.SetAddrs(addrs); err != nil {
			return fmt.Errorf("probe: tcp addrs: %w", err)
		}
	}
	var got atomic.Int64
	done := make(chan struct{})
	reply := make([]byte, 1+valueBytes) // kindFetch's found-flag + value
	eps[1].Handle(probeKind, func(int, []byte) ([]byte, error) { return reply, nil })
	eps[1].Handle(probeKind+1, func(int, []byte) ([]byte, error) {
		if got.Add(1) == int64(sends) {
			close(done)
		}
		return nil, nil
	})

	request := make([]byte, 12) // job envelope + vertex id
	rtts := make([]float64, calls)
	for k := range rtts {
		t0 := nanos()
		if _, err := eps[0].Call(1, probeKind, request); err != nil {
			return fmt.Errorf("probe: tcp call: %w", err)
		}
		rtts[k] = float64(nanos()-t0) / 1e3
	}
	out["transport.tcp_call_rtt_us_p50"] = median(rtts)
	out["transport.tcp_call_rtt_us_p99"] = nearestRank(rtts, 0.99)

	msg := make([]byte, max(t.msgBytes, 16))
	t0 := nanos()
	for k := 0; k < sends; k++ {
		if err := eps[0].Send(1, probeKind+1, msg); err != nil {
			return fmt.Errorf("probe: tcp send: %w", err)
		}
	}
	<-done
	secs := float64(nanos()-t0) / 1e9
	out["transport.tcp_send_msgs_per_s"] = float64(sends) / secs
	out["transport.tcp_send_mb_per_s"] = float64(sends*len(msg)) / 1e6 / secs
	return nil
}
