//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so the
// allocation counts here only hold without it.

package core

import (
	"testing"

	"github.com/dpx10/dpx10/internal/transport"
)

// TestJobPortCallAllocatesNothing: a port's Call wraps its payload in the
// job envelope taken from a pool, so on a LocalFabric endpoint it costs no
// allocation beyond the bare endpoint's Call — none, for a handler that
// replies with no bytes. Building the envelope afresh costs one per call.
func TestJobPortCallAllocatesNothing(t *testing.T) {
	f := transport.NewLocalFabric(2)
	defer f.Close()
	handler := func(from int, payload []byte) ([]byte, error) { return nil, nil }
	f.Endpoint(1).Handle(kindPing, handler)
	server := newJobRouter(f.Endpoint(1), nil).newPort(7)
	server.Handle(kindFetch, handler)
	server.router.add(server)
	client := newJobRouter(f.Endpoint(0), nil).newPort(7)

	payload := make([]byte, 64)
	call := func(tr transport.Transport, kind uint8) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := tr.Call(1, kind, payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, port := call(f.Endpoint(0), kindPing), call(client, kindFetch)
	if port != bare {
		t.Fatalf("port Call: %v allocs/op, bare endpoint Call: %v; want equal", port, bare)
	}
	if port != 0 {
		t.Fatalf("port Call: %v allocs/op, want 0", port)
	}
}
