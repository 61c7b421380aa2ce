// Package trace records simulated packet events and recovers per-request
// round-trip times from them, mirroring the paper's methodology (§5.3):
// gem5's Ethernet devices dumped a packet trace, and TShark extracted
// request RTTs. Our simulated NICs append records here and the analyzer
// computes the same RTTs, so measured TPS flows through the trace rather
// than through model internals.
package trace

import (
	"fmt"
	"sort"

	"kv3d/internal/sim"
)

// Direction of a packet relative to the server.
type Direction int

const (
	// ClientToServer marks request traffic.
	ClientToServer Direction = iota
	// ServerToClient marks response traffic.
	ServerToClient
)

func (d Direction) String() string {
	if d == ClientToServer {
		return "c->s"
	}
	return "s->c"
}

// Record is one packet-train event. The simulation logs one record per
// burst (request or response) with the timestamp of its last frame,
// which is what RTT extraction keys on.
type Record struct {
	Time  sim.Time
	Dir   Direction
	Bytes int64
	ReqID uint64
}

// Buffer accumulates records.
type Buffer struct {
	recs []Record
}

// Append adds a record.
func (b *Buffer) Append(r Record) { b.recs = append(b.recs, r) }

// Snapshot returns a copy of the records that stays valid across Reset
// and further appends.
func (b *Buffer) Snapshot() []Record {
	out := make([]Record, len(b.recs))
	copy(out, b.recs)
	return out
}

// Reset clears the buffer, reusing its backing array; Snapshot copies
// survive.
func (b *Buffer) Reset() { b.recs = b.recs[:0] }

// RTT is one measured round trip.
type RTT struct {
	Start    sim.Time
	Duration sim.Duration
}

// ExtractRTTs pairs each request's first client->server record with its
// last server->client record. Requests without a completed response are
// skipped (in-flight at simulation end).
func ExtractRTTs(recs []Record) []RTT {
	starts := make(map[uint64]sim.Time)
	ends := make(map[uint64]sim.Time)
	for _, r := range recs {
		switch r.Dir {
		case ClientToServer:
			if t, ok := starts[r.ReqID]; !ok || r.Time < t {
				starts[r.ReqID] = r.Time
			}
		case ServerToClient:
			if t, ok := ends[r.ReqID]; !ok || r.Time > t {
				ends[r.ReqID] = r.Time
			}
		}
	}
	out := make([]RTT, 0, len(ends))
	for id, end := range ends {
		start, ok := starts[id]
		if !ok || end < start {
			continue
		}
		out = append(out, RTT{Start: start, Duration: end.Sub(start)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// MeanRTT averages the extracted RTTs; it returns 0 for an empty set.
func MeanRTT(rtts []RTT) sim.Duration {
	if len(rtts) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rtts {
		sum += r.Duration.Seconds()
	}
	return sim.FromSeconds(sum / float64(len(rtts)))
}

// String renders a record like a one-line pcap summary.
func (r Record) String() string {
	return fmt.Sprintf("%v %s req=%d bytes=%d", sim.Duration(r.Time), r.Dir, r.ReqID, r.Bytes)
}
