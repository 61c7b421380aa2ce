package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

func TestExtractRTTsBasic(t *testing.T) {
	var b Buffer
	b.Append(Record{Time: 100, Dir: ClientToServer, ReqID: 1, Bytes: 64})
	b.Append(Record{Time: 500, Dir: ServerToClient, ReqID: 1, Bytes: 128})
	rtts := ExtractRTTs(b.Records())
	if len(rtts) != 1 {
		t.Fatalf("got %d rtts", len(rtts))
	}
	if rtts[0].Start != 100 || rtts[0].Duration != 400 {
		t.Fatalf("rtt = %+v", rtts[0])
	}
}

func TestExtractRTTsMultiPacket(t *testing.T) {
	// Multiple response records for one request: RTT keys on the last.
	recs := []Record{
		{Time: 100, Dir: ClientToServer, ReqID: 7},
		{Time: 300, Dir: ServerToClient, ReqID: 7},
		{Time: 900, Dir: ServerToClient, ReqID: 7},
	}
	rtts := ExtractRTTs(recs)
	if len(rtts) != 1 || rtts[0].Duration != 800 {
		t.Fatalf("rtts = %+v", rtts)
	}
}

func TestExtractRTTsSkipsIncomplete(t *testing.T) {
	recs := []Record{
		{Time: 100, Dir: ClientToServer, ReqID: 1},
		{Time: 200, Dir: ClientToServer, ReqID: 2},
		{Time: 400, Dir: ServerToClient, ReqID: 2},
		{Time: 50, Dir: ServerToClient, ReqID: 3}, // response w/o request
	}
	rtts := ExtractRTTs(recs)
	if len(rtts) != 1 || rtts[0].Start != 200 {
		t.Fatalf("rtts = %+v", rtts)
	}
}

func TestExtractRTTsSortedByStart(t *testing.T) {
	recs := []Record{
		{Time: 500, Dir: ClientToServer, ReqID: 2},
		{Time: 100, Dir: ClientToServer, ReqID: 1},
		{Time: 600, Dir: ServerToClient, ReqID: 2},
		{Time: 300, Dir: ServerToClient, ReqID: 1},
	}
	rtts := ExtractRTTs(recs)
	if len(rtts) != 2 || rtts[0].Start != 100 || rtts[1].Start != 500 {
		t.Fatalf("rtts not sorted by start: %+v", rtts)
	}
}

func TestMeanRTT(t *testing.T) {
	rtts := []RTT{{Duration: sim.Duration(100)}, {Duration: sim.Duration(300)}}
	if got := MeanRTT(rtts); got != 200 {
		t.Fatalf("mean = %v", got)
	}
	if MeanRTT(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestBufferReset(t *testing.T) {
	var b Buffer
	b.Append(Record{ReqID: 1})
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Time: 1000, Dir: ClientToServer, ReqID: 5, Bytes: 64}
	s := r.String()
	if !strings.Contains(s, "c->s") || !strings.Contains(s, "req=5") {
		t.Fatalf("record string = %q", s)
	}
	if !strings.Contains((Record{Dir: ServerToClient}).String(), "s->c") {
		t.Fatal("server direction string")
	}
}

func TestSnapshotSurvivesReset(t *testing.T) {
	var b Buffer
	b.Append(Record{Time: 1, Dir: ClientToServer, ReqID: 1})
	b.Append(Record{Time: 5, Dir: ServerToClient, ReqID: 1})
	snap := b.Snapshot()
	live := b.Records()
	b.Reset()
	b.Append(Record{Time: 9, Dir: ClientToServer, ReqID: 2})
	if len(snap) != 2 || snap[0].ReqID != 1 || snap[1].Time != 5 {
		t.Fatalf("snapshot corrupted by Reset: %v", snap)
	}
	// The live view aliases the reused backing array — this is exactly
	// the hazard Snapshot exists to avoid.
	if live[0].ReqID == 1 {
		t.Fatal("expected Records view to be clobbered after Reset+Append; the aliasing contract changed")
	}
}

func TestEmitSpans(t *testing.T) {
	recs := []Record{
		{Time: sim.Time(1 * sim.Microsecond), Dir: ClientToServer, ReqID: 7, Bytes: 24},
		{Time: sim.Time(4 * sim.Microsecond), Dir: ServerToClient, ReqID: 7, Bytes: 104},
		{Time: sim.Time(5 * sim.Microsecond), Dir: ClientToServer, ReqID: 8, Bytes: 24},
		// request 8 never completes: no rtt span.
	}
	tr := obs.NewTracer()
	EmitSpans(tr, tr.RegisterTrack("nic"), recs)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON")
	}
	// 3 packet instants + 1 begin/end pair for the completed request.
	if n := bytes.Count(buf.Bytes(), []byte(`"ts":`)); n != 5 {
		t.Fatalf("emitted %d events, want 5", n)
	}
	// Nil tracer: no panic.
	EmitSpans(nil, 0, recs)
}

// EmitSpans converts the packet trace into obs request spans: one async
// "rtt" span per completed round trip plus an instant per packet record
// on the given track. A nil tracer is a no-op. No non-test code calls
// it; TestEmitSpans pins it.
func EmitSpans(t *obs.Tracer, track obs.TrackID, recs []Record) {
	if !t.Enabled() {
		return
	}
	for _, r := range recs {
		name := "pkt:c->s"
		if r.Dir == ServerToClient {
			name = "pkt:s->c"
		}
		t.Instant(track, name, r.Time)
	}
	for i, rtt := range ExtractRTTs(recs) {
		t.AsyncBegin("rtt", "rtt", uint64(i), rtt.Start)
		t.AsyncEnd("rtt", "rtt", uint64(i), rtt.Start.Add(rtt.Duration))
	}
}

// Len reports the number of records.
func (b *Buffer) Len() int { return len(b.recs) }

// Records returns the raw records. It is a view of live storage,
// invalidated by the next Reset (the backing array is reused): the
// hazard Snapshot exists to avoid.
func (b *Buffer) Records() []Record { return b.recs }
