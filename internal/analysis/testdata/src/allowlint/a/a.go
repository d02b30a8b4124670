package a

import "sync"

type guarded struct {
	mu sync.Mutex
	ch chan int
}

// Well-formed: analyzer name plus rationale. No finding.
func fine(g *guarded) {
	g.mu.Lock()
	//dpx10:allow lockheld the send is buffered by construction and cannot block
	g.ch <- 1
	g.mu.Unlock()
}

// Several names, one rationale: fine.
func alsoFine(g *guarded) {
	//dpx10:allow lockheld,lockorder intentional teardown ordering
	g.ch <- 2
}

// A bare marker silences nothing but reads as if it might.
func bare(g *guarded) {
	/* want `bare //dpx10:allow suppression` */ //dpx10:allow
	g.ch <- 3
}

// A misspelled name silences nothing while claiming to.
func unknown(g *guarded) {
	/* want `unknown analyzer "frobnicate" in //dpx10:allow suppression` */ //dpx10:allow frobnicate the detector is flaky on CI
	g.ch <- 4
}

// No rationale: the suppression cannot be re-evaluated later.
func noReason(g *guarded) {
	/* want `//dpx10:allow for lockheld lacks a rationale` */ //dpx10:allow lockheld
	g.ch <- 5
}

// Both defects at once: unknown name and no rationale.
func doubly(g *guarded) {
	/* want `unknown analyzer "lockhold" in //dpx10:allow suppression` `//dpx10:allow for lockhold lacks a rationale` */ //dpx10:allow lockhold
	g.ch <- 6
}
