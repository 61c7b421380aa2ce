package serversim

import (
	"testing"

	"kv3d/internal/stackmodel"
)

// TestBatchSizeOneIsIdentical: BatchSize 0 and 1 must produce the very
// same run — same arrivals, same latency distribution — because k=1
// multiget service time is defined as the plain GET service time and
// nothing else in the model reads BatchSize.
func TestBatchSizeOneIsIdentical(t *testing.T) {
	base := mercuryBox(4, 8)
	base.OfferedTPS = 50_000
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	batched := base
	batched.BatchSize = 1
	b, err := Run(batched)
	if err != nil {
		t.Fatal(err)
	}
	if plain != b {
		t.Fatalf("BatchSize=1 run diverges from default:\n%+v\n%+v", plain, b)
	}
}

// TestBatchedKeyThroughputBeatsSingleKey: at the same per-stack load
// level, a 16-key multiget box serves far more keys per second than a
// single-key box — the open-loop view of the Figure 4 amortization.
func TestBatchedKeyThroughputBeatsSingleKey(t *testing.T) {
	single := mercuryBox(4, 8)
	nominalSingle, err := NominalTPS(single)
	if err != nil {
		t.Fatal(err)
	}
	single.OfferedTPS = nominalSingle * 0.6
	rs, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}

	batched := mercuryBox(4, 8)
	batched.BatchSize = 16
	nominalBatched, err := NominalTPS(batched)
	if err != nil {
		t.Fatal(err)
	}
	if nominalBatched >= nominalSingle {
		t.Fatalf("batch nominal %.0f batches/s should be below single nominal %.0f req/s", nominalBatched, nominalSingle)
	}
	batched.OfferedTPS = nominalBatched * 0.6
	rb, err := Run(batched)
	if err != nil {
		t.Fatal(err)
	}

	singleKeys := rs.CompletedTPS
	batchedKeys := rb.CompletedTPS * 16
	if batchedKeys < 3*singleKeys {
		t.Fatalf("16-key batching should multiply key throughput: %.0f vs %.0f keys/s", batchedKeys, singleKeys)
	}
	// Batches take longer than single requests, so batched latency rises;
	// it must still be finite and mostly sub-ms at this load.
	if rb.SubMsFraction < 0.5 {
		t.Fatalf("batched sub-ms fraction %.2f implausibly low", rb.SubMsFraction)
	}
}

func TestBatchSizeRejectedForPuts(t *testing.T) {
	cfg := mercuryBox(2, 8)
	cfg.Op = stackmodel.Put
	cfg.BatchSize = 4
	cfg.OfferedTPS = 1000
	if _, err := Run(cfg); err == nil {
		t.Fatal("batched PUT accepted; multiget is a GET-only request class")
	}
}
