package stackmodel

import "testing"

// TestMultigetK1MatchesSingleGet pins the compatibility contract: batch
// size 1 is the plain GET path, equal in every derived statistic — the
// multiget code must not perturb the calibrated single-key results.
func TestMultigetK1MatchesSingleGet(t *testing.T) {
	for name, cfg := range map[string]Config{"mercury": mercuryA7(4), "iridium": iridiumA7(4)} {
		st, err := NewStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.ServiceTimeMultiget(1, 64), st.ServiceTime(Get, 64); got != want {
			t.Fatalf("%s: ServiceTimeMultiget(1) = %v, ServiceTime = %v", name, got, want)
		}

		single := measure(t, cfg, Get, 64, 50)
		st2, err := NewStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := st2.MeasureMultiget(1, 64, 50)
		if err != nil {
			t.Fatal(err)
		}
		if batch.MeanRTT != single.MeanRTT || batch.StackTPS != single.StackTPS ||
			batch.Hist.Count() != single.Hist.Count() {
			t.Fatalf("%s: k=1 multiget diverges from single GET:\n%+v\n%+v", name, batch, single)
		}
	}
}

// TestMultigetAmortizesNetStack: per-key service time must fall
// monotonically with batch size — the Figure 4a netstack share is paid
// once per batch — while total batch time still grows with k.
func TestMultigetAmortizesNetStack(t *testing.T) {
	st, err := NewStack(mercuryA7(1))
	if err != nil {
		t.Fatal(err)
	}
	prevPerKey := st.ServiceTimeMultiget(1, 64).Seconds()
	prevTotal := 0.0
	for _, k := range []int{4, 16, 64} {
		total := st.ServiceTimeMultiget(k, 64).Seconds()
		perKey := total / float64(k)
		if perKey >= prevPerKey {
			t.Fatalf("k=%d: per-key service %.2gs did not amortize below %.2gs", k, perKey, prevPerKey)
		}
		if total <= prevTotal {
			t.Fatalf("k=%d: total batch service must still grow with k", k)
		}
		prevPerKey, prevTotal = perKey, total
	}
	// The floor: a batch can never be cheaper than its per-key hash +
	// metadata + storage work, which does not amortize.
	if st.ServiceTimeMultiget(64, 64) <= st.ServiceTime(Get, 64) {
		t.Fatal("a 64-key batch cannot cost less than one single GET")
	}
}

// TestMultigetKeyThroughputScales: measured key-level throughput
// (batches/s × k) must rise with batch size on the same stack.
func TestMultigetKeyThroughputScales(t *testing.T) {
	prev := 0.0
	for _, k := range []int{1, 4, 16, 64} {
		st, err := NewStack(mercuryA7(1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := st.MeasureMultiget(k, 64, 30)
		if err != nil {
			t.Fatal(err)
		}
		keyTPS := r.StackTPS * float64(k)
		if keyTPS <= prev {
			t.Fatalf("k=%d: key throughput %.0f did not beat k/4's %.0f", k, keyTPS, prev)
		}
		prev = keyTPS
	}
}

func TestMultigetValidation(t *testing.T) {
	st, err := NewStack(mercuryA7(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.MeasureMultiget(0, 64, 10); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	if _, err := st.MeasureMultiget(4, 64, 0); err == nil {
		t.Fatal("zero batches accepted")
	}
	if _, err := st.MeasureMultiget(4, -1, 10); err == nil {
		t.Fatal("negative value size accepted")
	}
}
