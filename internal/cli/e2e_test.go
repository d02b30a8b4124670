package cli

import (
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer collects output another goroutine writes — a subprocess's I/O
// copier, or a run in flight — while the test goroutine polls String.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestWorkerProcessCrashE2E is the full multi-process proof: four
// dpx10-worker OS processes over real TCP, one SIGKILLed mid-run, the
// survivors recover and the coordinator completes correctly. This is the
// paper's recovery experiment as an actual process crash rather than an
// in-process simulation.
func TestWorkerProcessCrashE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "dpx10-worker")
	build := exec.Command("go", "build", "-o", bin, "github.com/dpx10/dpx10/cmd/dpx10-worker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building worker: %v\n%s", err, out)
	}

	const places = 4
	addrs := make([]string, places)
	listeners := make([]net.Listener, places)
	for k := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[k] = ln
		addrs[k] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	addrList := strings.Join(addrs, ",")

	args := func(place int) []string {
		return []string{
			"-place", fmt.Sprint(place), "-addrs", addrList,
			// Sized so the run outlasts the post-formation kill delay below
			// several times over even on an unloaded machine: the four block
			// rows compute one after another, 0.3–1 s from formation here
			// (at side 1800 a fast run took 0.1 s and finished before the
			// kill).
			"-app", "swlag", "-m", "3000", "-threads", "2",
		}
	}
	procs := make([]*exec.Cmd, places)
	outs := make([]*syncBuffer, places)
	for p := range outs {
		outs[p] = &syncBuffer{}
	}
	for p := 1; p < places; p++ {
		procs[p] = exec.Command(bin, args(p)...)
		procs[p].Stdout = outs[p]
		procs[p].Stderr = outs[p]
		if err := procs[p].Start(); err != nil {
			t.Fatalf("starting worker %d: %v", p, err)
		}
	}
	procs[0] = exec.Command(bin, args(0)...)
	procs[0].Stdout = outs[0]
	procs[0].Stderr = outs[0]
	if err := procs[0].Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}

	// Kill a worker hard once the run is provably underway: wait for the
	// coordinator to announce the released startup barrier (startup cost
	// varies with machine load, so a fixed delay from process launch races
	// cluster formation), then give the workers a moment of progress.
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(outs[0].String(), "cluster formed") {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never formed\n--- place 0 ---\n%s", outs[0].String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(75 * time.Millisecond)
	if err := procs[2].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing worker 2: %v", err)
	}
	procs[2].Wait() //nolint:errcheck // it was killed

	done := make(chan error, 1)
	go func() { done <- procs[0].Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator failed: %v\n--- place 0 ---\n%s", err, outs[0].String())
		}
	case <-time.After(120 * time.Second):
		procs[0].Process.Kill() //nolint:errcheck
		t.Fatalf("coordinator did not finish\n--- place 0 ---\n%s", outs[0].String())
	}
	for p := 1; p < places; p++ {
		if p == 2 {
			continue
		}
		procs[p].Wait() //nolint:errcheck // exits after the stop broadcast
	}

	out0 := outs[0].String()
	if !strings.Contains(out0, "answer (") {
		t.Fatalf("coordinator produced no result:\n%s", out0)
	}
	// The kill lands mid-run with huge margin; if the run somehow finished
	// first, the output would say recoveries=0 — treat that as a failure
	// so timing regressions surface.
	if !strings.Contains(out0, "recoveries=1") {
		t.Fatalf("no recovery recorded (kill landed outside the run?):\n%s", out0)
	}
}
