package core

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/transport"
)

func TestKindName(t *testing.T) {
	for k, want := range map[uint8]string{1: "fetch", 20: "decrBatch", 0: "kind0", 99: "kind99"} {
		if got := KindName(k); got != want {
			t.Errorf("KindName(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestKindNamesDistinct(t *testing.T) {
	seen := map[string]int{}
	for k, r := range wireKinds {
		if r.name == "" {
			continue
		}
		if prev, dup := seen[r.name]; dup {
			t.Errorf("kind %d is named %q, like kind %d", k, r.name, prev)
		}
		seen[r.name] = k
	}
}

// handleRecorder counts the handlers registered on a place's endpoint,
// below its whole delivery stack.
type handleRecorder struct {
	transport.Transport
	mu sync.Mutex
	n  [256]int
}

func (r *handleRecorder) Handle(kind uint8, h transport.Handler) {
	r.mu.Lock()
	r.n[kind]++
	r.mu.Unlock()
	r.Transport.Handle(kind, h)
}

// TestEveryKindHasOneHandler runs a job on an in-process 2-place cluster and
// on a 2-node TCP deployment and checks where each kind is served: a live
// job-scoped kind by the job's port, behind the router's one dispatch on the
// place's stack; a live place-scoped kind by one handler on the stack; a
// retired value, or one outside the table, nowhere. The formed barrier's
// hello is served by place 0 and its begin by the others, and only where the
// places span processes.
func TestEveryKindHasOneHandler(t *testing.T) {
	cfg := Config[int64]{
		Common:  Common{Places: 2, Threads: 1, Pattern: patterns.NewDiagonal(8, 8)},
		Compute: sumCompute,
		Codec:   codec.Int64{},
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	check := func(deployment string, rec *handleRecorder, port *jobPort, multi bool) {
		self := port.Self()
		for k := range 256 {
			served := live(k)
			switch uint8(k) {
			case kindHello:
				served = multi && self == 0
			case kindBegin:
				served = multi && self != 0
			}
			wantStack, wantPort := 0, false
			if served {
				wantStack, wantPort = 1, !wireKinds[k].place
			}
			if rec.n[k] != wantStack || (port.handlers[k] != nil) != wantPort {
				t.Errorf("%s place %d, kind %d (%s): %d handlers on the stack, a job-port handler %v; want %d, %v",
					deployment, self, k, KindName(uint8(k)), rec.n[k], port.handlers[k] != nil, wantStack, wantPort)
			}
		}
	}

	fabric := transport.NewLocalFabric(2)
	recs := []*handleRecorder{{Transport: fabric.Endpoint(0)}, {Transport: fabric.Endpoint(1)}}
	m := newJobManager(cfg.Common, []transport.Transport{recs[0], recs[1]})
	m.fabric = fabric
	t.Cleanup(func() { m.Close() })
	jr, err := newJobRun(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ports := []*jobPort{m.stacks[0].router.port(jr.jobID), m.stacks[1].router.port(jr.jobID)}
	jr.start()
	if err := jr.Wait(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	for p, rec := range recs {
		check("in-process", rec, ports[p], false)
	}

	// One job per node, built as StartTCPNode builds it, over a recorded endpoint.
	nodes := make([]*TCPNode[int64], 2)
	addrs := make([]string, 2)
	for p := range nodes {
		tr, err := transport.NewTCP(p, []string{"127.0.0.1:0", "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		recs[p] = &handleRecorder{Transport: tr}
		common := cfg.Common
		common.MaxActiveJobs = -1
		nodes[p] = &TCPNode[int64]{cfg: cfg, tr: tr, m: newJobManager(common, []transport.Transport{recs[p]})}
		t.Cleanup(func() { nodes[p].Close() })
		jr, err := newJobRun(nodes[p].m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[p].jobs = []*JobRun[int64]{jr}
		ports[p] = nodes[p].m.stacks[0].router.port(jr.jobID)
		addrs[p] = tr.Addr()
	}
	for _, n := range nodes {
		if err := n.SetAddrTable(addrs); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 1)
	go func() { errs <- nodes[1].Run() }()
	if err := nodes[0].Run(); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	nodes[1].Close()
	for p, rec := range recs {
		check("TCP", rec, ports[p], true)
	}
}

// TestProtocolDocMatchesKindTable holds PROTOCOL.md to the table: the kind
// count, the unassigned values, and the job- and place-scoped lists.
func TestProtocolDocMatchesKindTable(t *testing.T) {
	raw, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	var unassigned []string
	names := map[bool][]string{} // by place-scoped
	for k, r := range wireKinds {
		switch {
		case r.retired:
			unassigned = append(unassigned, strconv.Itoa(k))
		case live(k):
			names[r.place] = append(names[r.place], r.name)
		}
	}
	n := len(names[false]) + len(names[true])
	last := len(unassigned) - 1
	for _, want := range []string{
		fmt.Sprintf("%d kinds in all", n),
		fmt.Sprintf("Values %s and %s are unassigned", strings.Join(unassigned[:last], ", "), unassigned[last]),
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("PROTOCOL.md does not say %q", want)
		}
	}
	quoted := regexp.MustCompile("`(\\w+)`")
	for place, label := range map[bool]string{false: "**Job-scoped**", true: "**Place-scoped**"} {
		at := strings.Index(doc, label)
		if at < 0 {
			t.Errorf("PROTOCOL.md has no %s list", label)
			continue
		}
		list, _, _ := strings.Cut(doc[at:], " — ")
		var got []string
		for _, m := range quoted.FindAllStringSubmatch(list, -1) {
			got = append(got, m[1])
		}
		want := names[place]
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("PROTOCOL.md's %s list is %v; the table's is %v", label, got, want)
		}
	}
}
