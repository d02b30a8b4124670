package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// newTCPCluster starts n TCP endpoints on loopback with OS-assigned ports.
// Each endpoint learns the others' actual addresses before any traffic.
func newTCPCluster(t *testing.T, n int) []*TCP {
	t.Helper()
	eps := make([]*TCP, n)
	addrs := make([]string, n)
	// First pass: everyone listens on :0 so ports never collide.
	for i := 0; i < n; i++ {
		placeholder := make([]string, n)
		for j := range placeholder {
			placeholder[j] = "127.0.0.1:0"
		}
		ep, err := NewTCP(i, placeholder)
		if err != nil {
			t.Fatalf("NewTCP(%d): %v", i, err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	// Second pass: install the real address table.
	for i := 0; i < n; i++ {
		copy(eps[i].addrs, addrs)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestTCPCallRoundTrip(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(7, func(from int, payload []byte) ([]byte, error) {
		return append([]byte(fmt.Sprintf("from%d:", from)), payload...), nil
	})
	reply, err := eps[0].Call(1, 7, []byte("data"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "from0:data" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestTCPBidirectional(t *testing.T) {
	eps := newTCPCluster(t, 2)
	for _, ep := range eps {
		ep := ep
		ep.Handle(1, func(int, []byte) ([]byte, error) {
			return []byte{byte(ep.Self())}, nil
		})
	}
	r0, err := eps[0].Call(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eps[1].Call(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r0[0] != 1 || r1[0] != 0 {
		t.Fatalf("replies = %v, %v", r0, r1)
	}
}

func TestTCPSendOneWay(t *testing.T) {
	eps := newTCPCluster(t, 2)
	got := make(chan []byte, 1)
	eps[1].Handle(3, func(_ int, payload []byte) ([]byte, error) {
		// The handler contract forbids letting the payload escape; clone
		// before handing it to the test's channel.
		got <- bytes.Clone(payload)
		return nil, nil
	})
	if err := eps[0].Send(1, 3, []byte("oneway")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "oneway" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one-way message never delivered")
	}
}

func TestTCPHandlerError(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(int, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := eps[0].Call(1, 1, nil)
	if err == nil {
		t.Fatal("want error from remote handler")
	}
	if errors.Is(err, ErrDeadPlace) {
		t.Fatalf("generic handler error misreported as ErrDeadPlace: %v", err)
	}
}

func TestTCPDeadPlacePropagates(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(int, []byte) ([]byte, error) {
		return nil, ErrDeadPlace
	})
	if _, err := eps[0].Call(1, 1, nil); !errors.Is(err, ErrDeadPlace) {
		t.Fatalf("err = %v, want ErrDeadPlace identity preserved over the wire", err)
	}
}

func TestTCPPeerCrash(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(int, []byte) ([]byte, error) { return []byte{1}, nil })
	if _, err := eps[0].Call(1, 1, nil); err != nil {
		t.Fatalf("warmup Call: %v", err)
	}
	eps[1].Close()
	eps[0].MarkDead(1)
	if _, err := eps[0].Call(1, 1, nil); !errors.Is(err, ErrDeadPlace) {
		t.Fatalf("Call to crashed peer: err = %v, want ErrDeadPlace", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	eps := newTCPCluster(t, 3)
	for _, ep := range eps {
		ep := ep
		ep.Handle(1, func(_ int, payload []byte) ([]byte, error) {
			out := make([]byte, len(payload))
			copy(out, payload)
			return out, nil
		})
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for p := 0; p < 3; p++ {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(p, g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					to := (p + 1) % 3
					want := fmt.Sprintf("p%dg%di%d", p, g, i)
					reply, err := eps[p].Call(to, 1, []byte(want))
					if err != nil {
						errCh <- err
						return
					}
					if string(reply) != want {
						errCh <- fmt.Errorf("reply %q != %q: response mismatched to wrong request", reply, want)
						return
					}
				}
			}(p, g)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(_ int, payload []byte) ([]byte, error) {
		sum := byte(0)
		for _, b := range payload {
			sum += b
		}
		return []byte{sum}, nil
	})
	big := make([]byte, 1<<20)
	var want byte
	for i := range big {
		big[i] = byte(i)
		want += byte(i)
	}
	reply, err := eps[0].Call(1, 1, big)
	if err != nil {
		t.Fatal(err)
	}
	if reply[0] != want {
		t.Fatalf("checksum = %d, want %d", reply[0], want)
	}
}

func TestTCPFrameChecksum(t *testing.T) {
	// A corrupted payload must be rejected by the reader, not delivered.
	raw := appendFrame(nil, 5, 0, 1, 9, []byte("payload"))
	raw[len(raw)-1] ^= 0xFF // flip a payload byte
	if _, _, _, _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted frame accepted")
	}
	// And an intact one round-trips.
	raw[len(raw)-1] ^= 0xFF
	kind, _, from, seq, payload, err := readFrame(bytes.NewReader(raw))
	if err != nil || kind != 5 || from != 1 || seq != 9 || string(payload) != "payload" {
		t.Fatalf("round trip failed: %v", err)
	}
}
