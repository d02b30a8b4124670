// Package planted seeds one finding of each lock shape dpx10-vet reports,
// plus one suppressed finding, for dpx10-vet's golden-output test.
package planted

import "sync"

type link struct{}

func (link) Send(to int, kind uint8, b []byte) error { return nil }

type node struct {
	mu   sync.Mutex
	a, b sync.Mutex
	tr   link
	ch   chan int
}

// sendLocked sends on the transport while holding n.mu.
func (n *node) sendLocked() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tr.Send(1, 2, nil)
}

// drain blocks; calling it under a lock blocks the caller.
func (n *node) drain() {
	for range n.ch {
	}
}

func (n *node) drainLocked() {
	n.mu.Lock()
	n.drain()
	n.mu.Unlock()
}

// allowed sends under the lock too, but carries a suppression.
func (n *node) allowed() {
	n.mu.Lock()
	//dpx10:allow lockheld the channel is buffered past every sender here
	n.ch <- 1
	n.mu.Unlock()
}

// ab and ba take a and b in opposite orders.
func (n *node) ab() {
	n.a.Lock()
	n.b.Lock()
	n.b.Unlock()
	n.a.Unlock()
}

func (n *node) lockA() {
	n.a.Lock()
	n.a.Unlock()
}

func (n *node) ba() {
	n.b.Lock()
	n.lockA()
	n.b.Unlock()
}

// relock takes n.mu twice.
func (n *node) relock() {
	n.mu.Lock()
	n.mu.Lock()
	n.mu.Unlock()
	n.mu.Unlock()
}
