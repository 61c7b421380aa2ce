package trace

import (
	"strings"
	"testing"

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

// Len reports the number of records.
func (b *Buffer) Len() int { return len(b.recs) }

// Records returns the raw records. It is a view of live storage,
// invalidated by the next Reset (the backing array is reused): the
// hazard Snapshot exists to avoid.
func (b *Buffer) Records() []Record { return b.recs }
