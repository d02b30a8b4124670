package a

// Lifeline protocol shapes: deliver pushes whole tiles (their cell ids)
// to a parked buddy; the probe carries a park flag after the epoch.

const (
	kLifeDeliver uint8 = 13
	kLifeProbe   uint8 = 14
)

func (e *engine) registerLifeline() {
	e.tr.Handle(kLifeDeliver, e.handleLifeDeliver)
	e.tr.Handle(kLifeProbe, e.handleLifeProbe)
}

// --- deliver: [epoch, cells] both ways: clean ------------------------

func (e *engine) handleLifeDeliver(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	_ = r.u64()
	n := r.u32()
	for k := uint32(0); k < n; k++ {
		_ = r.id()
	}
	return []byte{1}, r.err
}

func (e *engine) pushLifeline(epoch uint64, cells []ident) error {
	buf := putU64(nil, epoch)
	buf = putU32(buf, uint32(len(cells)))
	for _, id := range cells {
		buf = putID(buf, id)
	}
	_, err := e.tr.Call(1, kLifeDeliver, buf)
	return err
}

// --- probe: park flag widened on the read side: finding --------------

func (e *engine) handleLifeProbe(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	_ = r.u64()
	_ = r.u32()
	return nil, r.err
}

func (e *engine) probeLifeline(epoch uint64, park bool) error {
	buf := putU64(nil, epoch)
	var flag uint8
	if park {
		flag = 1
	}
	buf = append(buf, flag)
	_, err := e.tr.Call(1, kLifeProbe, buf) // want `wire kind kLifeProbe: encoder builds \[u64 u8\] but handler handleLifeProbe decodes \[u64 u32\]`
	return err
}
