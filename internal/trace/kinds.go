package trace

import "fmt"

// kindNames maps wire-protocol kind values (internal/core's kind*
// constants) to the names used in trace output and debug logs. The kind
// constants are unexported, so this table is keyed by value — and that is
// safe because dpx10-vet's protokind analyzer cross-checks it against the
// constant block: a missing, misnamed or stale entry fails `make vet`.
var kindNames = map[uint8]string{
	1:  "fetch",
	4:  "placeDone",
	5:  "fault",
	6:  "pause",
	7:  "rebuild",
	8:  "restore",
	9:  "restoreTx",
	10: "replay",
	11: "replayTx",
	12: "resume",
	13: "stop",
	14: "readVal",
	15: "ping",
	16: "hello",
	17: "begin",
	18: "steal",
	19: "stealDone",
	20: "decrBatch",
	21: "stats",
	23: "transfer",
}

// KindName returns the human-readable name of a wire-protocol message
// kind, or "kind<N>" for values outside the protocol.
func KindName(k uint8) string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind%d", k)
}
