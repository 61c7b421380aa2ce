package main

import (
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"kv3d/internal/kvserver"
	"kv3d/internal/workload"
)

// Small twins of the real workloads: one binary and pipelined, one ASCII
// with sets.
var testSpecs = []spec{
	{
		name: "bin_burst", binary: true, burst: 4,
		keys: 300, zipf: 0.99,
		sizes: workload.FixedSize(100), maxValue: 100,
		memoryMiB: 64, fits: true, traceOps: 2000,
	},
	{
		name: "ascii_mixed", burst: 1,
		keys: 3000, zipf: 0.99, setShare: 0.3,
		sizes: workload.ETCSizes{}, maxValue: 64 << 10,
		memoryMiB: 256, traceOps: 2000,
	},
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range testSpecs {
		s := &testSpecs[i]
		a, err := buildData(s, 7, 2, 500)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildData(s, 7, 2, 500)
		c, _ := buildData(s, 8, 2, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", s.name)
		}
		if reflect.DeepEqual(a.streams, c.streams) || reflect.DeepEqual(a.pattern, c.pattern) {
			t.Errorf("%s: different seeds gave the same inputs", s.name)
		}
		if reflect.DeepEqual(a.streams[0], a.streams[1]) {
			t.Errorf("%s: two connections share one stream", s.name)
		}
		for call := 0; call < 500; call++ {
			burst := slices.Clone(a.streams[0].ranks[call*s.burst : (call+1)*s.burst])
			slices.Sort(burst)
			if len(slices.Compact(burst)) != s.burst {
				t.Fatalf("%s: call %d repeats a key, which the client would drop", s.name, call)
			}
		}
	}
}

func TestValueHeader(t *testing.T) {
	d, err := buildData(&testSpecs[1], 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := slices.Clone(d.pattern)
	v := slices.Clone(fillValue(buf, 42, 1000))
	if len(v) != 1000 || !d.checkValue(v, 42, true) {
		t.Fatal("a value does not pass its own check")
	}
	if d.checkValue(v, 43, false) {
		t.Error("a value passes as another key's")
	}
	if d.checkValue(v[:999], 42, false) {
		t.Error("a truncated value passes")
	}
	v[500] ^= 1
	if !d.checkValue(v, 42, false) || d.checkValue(v, 42, true) {
		t.Error("a corrupt body must fail the full check and only the full check")
	}
	if d.checkValue(nil, 0, true) {
		t.Error("an empty value passes")
	}
}

func TestPercentiles(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 50}, {19, 50}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}, {1_000_000, 99.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for p, want := range map[float64]uint32{50: 500, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %d, want %d", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: "a0", Name: "e2e1", StartNs: 0, EndNs: 100},
		{ID: "b0", Name: "loopback", StartNs: 0, EndNs: 60, Parent: "a0"},
		{ID: "c0", Name: "protocol", StartNs: 0, EndNs: 30, Parent: "b0"},
		{ID: "d0", Name: "kvclient", StartNs: 30, EndNs: 40, Parent: "b0"},
		{ID: "e0", Name: "kvstore", StartNs: 0, EndNs: 12, Parent: "c0"},
		// A second block, where noise made the child outlast its parent:
		// the subtraction must stay a subtraction, or the sum breaks.
		{ID: "a1", Name: "e2e1", StartNs: 100, EndNs: 150},
		{ID: "b1", Name: "loopback", StartNs: 100, EndNs: 155, Parent: "a1"},
	}
	want := map[string]int64{"e2e1": 40 - 5, "loopback": 20 + 55, "protocol": 18, "kvclient": 10, "kvstore": 12}
	got := selfNs(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 150 {
		t.Errorf("self times sum to %d, the e2e1 spans to 150", sum)
	}
}

func TestReplayConn(t *testing.T) {
	c := &replayConn{data: []byte("aabbb"), ends: []int{2, 5}, answered: true}
	read := func() (string, error) {
		p := make([]byte, 8)
		n, err := c.Read(p)
		return string(p[:n]), err
	}
	c.Write([]byte("first request, "))
	c.Write([]byte("in two writes"))
	if got, err := read(); got != "aa" || err != nil {
		t.Fatalf("first response = %q, %v", got, err)
	}
	if _, err := read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reading past a call's response = %v, want ErrUnexpectedEOF", err)
	}
	c.Write([]byte("second request"))
	if got, err := read(); got != "bbb" || err != nil {
		t.Fatalf("second response = %q, %v", got, err)
	}
}

// TestLadder runs every rung on small workloads, with an in-process
// server standing in for the child: the response checksums must agree
// (the rungs fail otherwise) and the layers must add up.
func TestLadder(t *testing.T) {
	for i := range testSpecs {
		s := &testSpecs[i]
		t.Run(s.name, func(t *testing.T) {
			d, err := buildData(s, 3, 1, s.traceOps/s.burst)
			if err != nil {
				t.Fatal(err)
			}
			l := newLadder(d)

			st, err := l.freshStore()
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := kvserver.NewWithOptions(st, nil, kvserver.Options{})
			served := make(chan error, 1)
			go func() { served <- srv.ServeOn(ln) }()
			c, err := dialClient(s, ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			err = l.drive("e2e1", newWorker(d, &d.streams[0], c))
			if err := errors.Join(err, c.Close(), srv.Close(), <-served); err != nil {
				t.Fatal(err)
			}

			if err := l.inProcess(); err != nil {
				t.Fatal(err)
			}
			if len(l.reqEnd) != l.nBlocks*l.perBlock || l.reqEnd[len(l.reqEnd)-1] != len(l.req) {
				t.Errorf("recorded %d call ends up to byte %d, want %d up to %d",
					len(l.reqEnd), l.reqEnd[len(l.reqEnd)-1], l.nBlocks*l.perBlock, len(l.req))
			}
			spans := l.spans()
			if len(spans) != 5*l.nBlocks {
				t.Errorf("%d spans, want %d", len(spans), 5*l.nBlocks)
			}
			got := l.metrics(spans)
			// Every per-layer metric comes from exactly one place: the
			// ladder, or the counters read around the live window.
			live := (&measurement{
				win:   &window{sliceDur: time.Second, keys: make([]int64, nSlices), lat: [][]uint32{{1}}},
				after: snapshot{stats: map[string]int64{}},
			}).liveLayers()
			for _, def := range perLayer {
				v, fromLadder := got[def.name]
				if _, fromWindow := live[def.name]; fromLadder == fromWindow {
					t.Errorf("%s: from the ladder %v, from the window %v", def.name, fromLadder, fromWindow)
				}
				if fromLadder && (math.IsNaN(v) || math.IsInf(v, 0)) {
					t.Errorf("%s = %v", def.name, v)
				}
			}
			if len(got)+len(live) != len(perLayer) {
				t.Errorf("%d ladder and %d window metrics, %d registered", len(got), len(live), len(perLayer))
			}
			sum := got["kvstore.ns_per_op"] + got["protocol.self_ns_per_op"] + got["kvserver.self_ns_per_op"] +
				got["kvclient.self_ns_per_op"] + got["ladder.residual_ns_per_op"]
			if e2e1 := got["ladder.e2e1_ns_per_op"]; math.Abs(sum-e2e1) > 1e-6*e2e1 {
				t.Errorf("layers and residual sum to %v ns per op, e2e1 is %v", sum, e2e1)
			}
			if s.burst > 1 && got["kvserver.reads_per_op"] >= 1 {
				t.Errorf("a %d-key burst cost the server %v reads per key", s.burst, got["kvserver.reads_per_op"])
			}
		})
	}
}

func TestCheckManifest(t *testing.T) {
	committed := filepath.Join("..", "BENCHMARK.json")
	if err := checkManifest(committed); err != nil {
		t.Fatalf("the committed BENCHMARK.json and the program disagree:\n%v", err)
	}
	raw, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range [][2]string{
		{`"name": "p50_us", "unit": "us"`, `"name": "p50_us", "unit": "ms"`},
		{`"name": "rtt_get"`, `"name": "rtt_put"`},
		{`"name": "kvstore.ns_per_op"`, `"name": "kvstore.nanos_per_op"`},
	} {
		if !strings.Contains(string(raw), edit[0]) {
			t.Fatalf("BENCHMARK.json has no %s to edit", edit[0])
		}
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(strings.Replace(string(raw), edit[0], edit[1], 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if checkManifest(path) == nil {
			t.Errorf("checkManifest accepts %s", edit[1])
		}
	}
}
