package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kv3d/internal/clock"
	"kv3d/internal/kvstore"
	"kv3d/internal/sim"
)

// The transcript net: seeded request streams per codec, each served
// with no dependencies and with every dependency faked, delivered three
// ways. What a session lets the outside see — reply bytes, Serve's
// error, the ordered observer / span / replicator calls — is folded
// into one digest per (codec, seed). The digests below pin the envelope
// through any rewrite of it: the counter clock makes every observed
// duration the number of clock reads the op made.

// transcriptDeps is every session dependency as one recording fake.
// Its clock reads only Now: a session never waits on its clock.
type transcriptDeps struct {
	clock.Clock
	log      []string
	clock    sim.Ns
	every    int // flight sampling interval
	failAt   int // the replicator fails every failAt-th call
	replN    int
	observes int   // ObserveOp calls, each of which may report many ops
	runs     []int // the ops each ObserveOp call reported
}

func (d *transcriptDeps) Now() sim.Ns { d.clock++; return d.clock }

// ObserveOp logs each of the n ops on its own line, with the share of
// nanos a histogram records for it: n-r of q, then r of q+1.
func (d *transcriptDeps) ObserveOp(c OpClass, o Outcome, n int, nanos sim.Ns) {
	d.observes++
	d.runs = append(d.runs, n)
	q, r := nanos/sim.Ns(n), int(nanos%sim.Ns(n))
	for i := 0; i < n; i++ {
		if i == n-r {
			q++
		}
		d.log = append(d.log, fmt.Sprintf("op %v %v %d", c, o, q))
	}
}

func (d *transcriptDeps) ObserveSpan(sp OpSpan) {
	d.log = append(d.log, fmt.Sprintf("span %v %v %d %d %d %d opaque=%d",
		sp.Class, sp.Outcome, sp.Start, sp.ParseDone, sp.ExecDone, sp.End, sp.Opaque))
}

func (d *transcriptDeps) repl(call string) error {
	d.replN++
	var err error
	if d.replN%d.failAt == 0 {
		err = errors.New("1 of 2 acks")
	}
	d.log = append(d.log, fmt.Sprintf("repl %s -> %v", call, err))
	return err
}

func (d *transcriptDeps) ReplicateSet(key string, value []byte, flags uint32, exptime int64, mode ReplMode) error {
	return d.repl(fmt.Sprintf("set %q %q %d %d %v", key, value, flags, exptime, mode))
}

func (d *transcriptDeps) ReplicateDelete(key string, mode ReplMode) error {
	return d.repl(fmt.Sprintf("delete %q %v", key, mode))
}

func (d *transcriptDeps) ReplicateTouch(key string, exptime int64, mode ReplMode) error {
	return d.repl(fmt.Sprintf("touch %q %d %v", key, exptime, mode))
}

func (d *transcriptDeps) ReplicateFlush(delay int64, mode ReplMode) error {
	return d.repl(fmt.Sprintf("flush %d %v", delay, mode))
}

// newTranscriptSession builds the codec's session over rw; deps nil is
// the bare session.
func newTranscriptSession(bin bool, st *kvstore.Store, rw io.ReadWriter, d *transcriptDeps) interface{ Serve() error } {
	var env Env
	if d != nil {
		env = Env{Observer: d, Clock: d, Flight: d, FlightEvery: d.every, Repl: d}
	}
	r, w := NewBufferedPair(rw)
	if bin {
		return NewBinarySessionBuffered(st, r, w, env)
	}
	return NewSessionBuffered(st, r, w, env)
}

// transcriptGen draws request streams. kinds counts what it drew, so
// the test can require that every kind was exercised.
type transcriptGen struct {
	r     *sim.Rand
	kinds map[string]int
	sets  int // stores issued so far: a cas guesses an id up to it
}

func (g *transcriptGen) key() string { return fmt.Sprintf("k%d", g.r.Intn(6)) }

func (g *transcriptGen) value() string {
	if g.r.Intn(3) == 0 {
		return fmt.Sprint(g.r.Intn(1000)) // numeric, so incr/decr can hit
	}
	b := make([]byte, g.r.Intn(40))
	for i := range b {
		b[i] = byte('a' + g.r.Intn(26))
	}
	return string(b)
}

func (g *transcriptGen) exptime() int {
	return []int{0, 0, 0, 100, -1}[g.r.Intn(5)]
}

// pick draws one kind by weight.
func (g *transcriptGen) pick(kinds []string, weights []int) string {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := g.r.Intn(total)
	for i, w := range weights {
		if n < w {
			g.kinds[kinds[i]]++
			return kinds[i]
		}
		n -= w
	}
	panic("unreachable")
}

var (
	asciiKinds = []string{
		"get", "gets", "multiget", "get-nokey", "set", "add", "replace", "append", "prepend", "cas",
		"delete", "incr", "decr", "touch", "stats", "stats-slabs", "stats-settings", "stats-other",
		"flush_all", "version", "verbosity", "unknown", "empty", "bad-storage", "bad-chunk",
		"bad-args", "oversize-line", "quit",
	}
	// The last two end the session, so they are drawn rarely.
	asciiWeights = []int{
		24, 9, 12, 3, 24, 6, 6, 6, 6, 9,
		9, 6, 6, 6, 3, 3, 3, 3,
		3, 3, 3, 3, 3, 6, 3,
		6, 1, 1,
	}
)

func (g *transcriptGen) asciiRequest() []byte {
	noreply := ""
	if g.r.Intn(4) == 0 {
		noreply = " noreply"
	}
	kind := g.pick(asciiKinds, asciiWeights)
	switch kind {
	case "get", "gets":
		return []byte(kind + " " + g.key() + "\r\n")
	case "multiget":
		line := []string{"get", "gets"}[g.r.Intn(2)]
		for i := 2 + g.r.Intn(5); i > 0; i-- {
			line += " " + g.key()
		}
		return []byte(line + "\r\n")
	case "get-nokey":
		return []byte("get\r\n")
	case "set", "add", "replace", "append", "prepend":
		g.sets++
		v := g.value()
		return []byte(fmt.Sprintf("%s %s %d %d %d%s\r\n%s\r\n", kind, g.key(), g.r.Intn(9), g.exptime(), len(v), noreply, v))
	case "cas":
		g.sets++
		v := g.value()
		return []byte(fmt.Sprintf("cas %s %d %d %d %d%s\r\n%s\r\n", g.key(), g.r.Intn(9), g.exptime(), len(v), 1+g.r.Intn(g.sets), noreply, v))
	case "delete":
		return []byte("delete " + g.key() + noreply + "\r\n")
	case "incr", "decr":
		return []byte(fmt.Sprintf("%s %s %d%s\r\n", kind, g.key(), g.r.Intn(50), noreply))
	case "touch":
		return []byte(fmt.Sprintf("touch %s %d%s\r\n", g.key(), g.exptime(), noreply))
	case "stats":
		return []byte("stats\r\n")
	case "stats-slabs":
		return []byte("stats slabs\r\n")
	case "stats-settings":
		return []byte("stats settings\r\n")
	case "stats-other":
		return []byte([]string{"stats reset\r\n", "stats bogus\r\n"}[g.r.Intn(2)])
	case "flush_all":
		return []byte([]string{"flush_all", "flush_all 30", "flush_all x"}[g.r.Intn(3)] + noreply + "\r\n")
	case "version":
		return []byte("version\r\n")
	case "verbosity":
		return []byte("verbosity 1" + noreply + "\r\n")
	case "unknown":
		return []byte("frobnicate " + g.key() + "\r\n")
	case "empty":
		return []byte([]string{"\r\n", "   \r\n", "\n"}[g.r.Intn(3)])
	case "bad-storage":
		return []byte([]string{
			"set " + g.key() + " x 0 1\r\n",
			"set " + g.key() + " 0 0\r\n",
			"set " + g.key() + " 0 0 -1\r\n",
			"cas " + g.key() + " 0 0 1\r\n",
			"add " + g.key() + " 0 0 1 noreply extra\r\n",
		}[g.r.Intn(5)])
	case "bad-chunk":
		// The data block runs past its declared length: the terminator
		// check fails and the overrun is parsed as the next command.
		return []byte("set " + g.key() + " 0 0 3\r\nabcdef\r\n")
	case "bad-args":
		return []byte([]string{
			"delete\r\n", "delete a b c\r\n", "incr " + g.key() + " pony\r\n", "incr " + g.key() + "\r\n",
			"touch " + g.key() + "\r\n", "touch " + g.key() + " soon\r\n", "flush_all 1 2 3\r\n",
		}[g.r.Intn(7)])
	case "oversize-line":
		return []byte("get " + strings.Repeat("k", maxLineLen+g.r.Intn(64)) + "\r\n")
	case "quit":
		return []byte("quit\r\n")
	}
	panic("unhandled kind " + kind)
}

var (
	binaryKinds = []string{
		"get", "set", "concat", "delete", "arith", "touch", "flush", "noop", "version", "stat",
		"unknown", "bad-extras", "quit", "bad-magic", "bad-lengths", "oversize-body",
	}
	// The last four end the session, so they are drawn rarely.
	binaryWeights = []int{
		40, 40, 12, 12, 16, 8, 4, 8, 4, 4,
		4, 8, 1, 1, 1, 1,
	}
)

func (g *transcriptGen) binaryRequest() []byte {
	opaque := uint32(g.r.Intn(1 << 16))
	vb := uint16(g.r.Intn(5)) // the four modes and one unknown value
	oneOf := func(ops ...byte) byte { return ops[g.r.Intn(len(ops))] }
	exptime := func() uint32 { return uint32(int32(g.exptime())) }
	kind := g.pick(binaryKinds, binaryWeights)
	switch kind {
	case "get":
		return frameVb(oneOf(OpGet, OpGetQ, OpGetK, OpGetKQ), g.key(), nil, nil, vb, opaque)
	case "set":
		g.sets++
		f := frameVb(oneOf(OpSet, OpSetQ, OpAdd, OpAddQ, OpReplace, OpReplaceQ), g.key(),
			setExtras(uint32(g.r.Intn(9)), exptime()), []byte(g.value()), vb, opaque)
		if g.r.Intn(4) == 0 {
			binary.BigEndian.PutUint64(f[16:], uint64(1+g.r.Intn(g.sets)))
		}
		return f
	case "concat":
		return frameVb(oneOf(OpAppend, OpAppendQ, OpPrepend, OpPrependQ), g.key(), nil, []byte(g.value()), vb, opaque)
	case "delete":
		return frameVb(oneOf(OpDelete, OpDeleteQ), g.key(), nil, nil, vb, opaque)
	case "arith":
		exp := uint32(0)
		if g.r.Intn(3) == 0 {
			exp = 0xffffffff // do not create
		}
		return frameVb(oneOf(OpIncr, OpIncrQ, OpDecr, OpDecrQ), g.key(),
			incrExtras(uint64(g.r.Intn(50)), uint64(g.r.Intn(50)), exp), nil, vb, opaque)
	case "touch":
		return frameVb(OpTouch, g.key(), touchExtras(exptime()), nil, vb, opaque)
	case "flush":
		extras := [][]byte{nil, touchExtras(30), {1, 2}}[g.r.Intn(3)]
		return frameVb(oneOf(OpFlush, OpFlushQ), "", extras, nil, vb, opaque)
	case "noop":
		return frame(OpNoop, "", nil, nil, 0, opaque)
	case "version":
		return frame(OpVersion, "", nil, nil, 0, opaque)
	case "stat":
		return frame(OpStat, "", nil, nil, 0, opaque)
	case "unknown":
		return frame(0x55, g.key(), nil, nil, 0, opaque)
	case "bad-extras":
		return frameVb(oneOf(OpSet, OpSetQ, OpIncr, OpTouch), g.key(), []byte{1, 2, 3}, []byte("v"), vb, opaque)
	case "quit":
		return frame(oneOf(OpQuit, OpQuitQ), "", nil, nil, 0, opaque)
	case "bad-magic":
		f := frame(OpGet, g.key(), nil, nil, 0, opaque)
		f[0] = MagicResponse
		return f
	case "bad-lengths":
		f := frame(OpGet, g.key(), nil, nil, 0, opaque)
		binary.BigEndian.PutUint32(f[8:], 1) // body shorter than its key
		return f
	case "oversize-body":
		f := frame(OpSet, "", nil, nil, 0, opaque)
		binary.BigEndian.PutUint32(f[8:], maxBinaryBody+1)
		return f
	}
	panic("unhandled kind " + kind)
}

// transcriptStream is one seed's request list. Every fourth seed is cut
// at a random byte: the peer leaves mid-stream.
func transcriptStream(seed uint64, bin bool, kinds map[string]int) (requests [][]byte, truncated bool) {
	g := &transcriptGen{r: sim.NewRand(seed), kinds: kinds}
	for n := 20 + g.r.Intn(20); n > 0; n-- {
		if bin {
			requests = append(requests, g.binaryRequest())
		} else {
			requests = append(requests, g.asciiRequest())
		}
	}
	if seed%4 != 3 {
		return requests, false
	}
	cut := 1 + g.r.Intn(len(bytes.Join(requests, nil))-1)
	for i, req := range requests {
		if cut < len(req) {
			return append(requests[:i:i], req[:cut]), true
		}
		if cut -= len(req); cut == 0 {
			return requests[:i+1], true
		}
	}
	panic("cut past the stream")
}

// dropStatRows leaves only the terminating frame of a binary stat
// reply in the transcript: the rows were eight when the digests were
// recorded and have since become the ASCII stats rows, which
// TestBinaryStat pins.
func dropStatRows(reply []byte) []byte {
	var out []byte
	for len(reply) >= binHeaderLen {
		h := parseBinHeader(reply)
		end := binHeaderLen + int(h.bodyLen)
		if end > len(reply) {
			break
		}
		if h.opcode != OpStat || h.keyLen == 0 {
			out = append(out, reply[:end]...)
		}
		reply = reply[end:]
	}
	return append(out, reply...)
}

// serveTranscript serves one delivery of a stream and renders what the
// session let the outside see.
func serveTranscript(t *testing.T, bin bool, segs [][]byte, d *transcriptDeps) string {
	t.Helper()
	rw := &segmentedRW{segs: append([][]byte(nil), segs...)}
	err := newTranscriptSession(bin, newClockStore(t, 1000), rw, d).Serve()
	reply := rw.out.Bytes()
	if bin {
		reply = dropStatRows(reply)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "reply %q\nerr %v\n", reply, err)
	if d != nil {
		fmt.Fprintf(&b, "%s\n", strings.Join(d.log, "\n"))
	}
	return b.String()
}

// transcriptOf is one seed's whole transcript: bare session, then full
// dependencies. Every delivery must produce the burst's transcript.
func transcriptOf(t *testing.T, bin bool, seed uint64, kinds map[string]int) (transcript string, truncated bool) {
	t.Helper()
	requests, truncated := transcriptStream(seed, bin, kinds)
	cuts := deliveries(requests)
	for _, full := range []bool{false, true} {
		var burst string
		for _, name := range []string{"burst", "per-request", "per-byte"} {
			var d *transcriptDeps
			if full {
				d = &transcriptDeps{every: 1 + int(seed%3), failAt: 4 + int(seed%3)}
			}
			got := serveTranscript(t, bin, cuts[name], d)
			if name == "burst" {
				burst = got
			} else if got != burst {
				t.Errorf("seed %d full=%v: %s delivery diverged from burst:\n%s\nvs\n%s", seed, full, name, got, burst)
			}
		}
		transcript += burst
	}
	return transcript, truncated
}

// transcriptDigests holds the recorded digest of seeds 1..32 per codec.
// All 64 were re-recorded when the in-flight gate was deleted, and each
// is what the commit before gives with the gate taken out of the fakes'
// Env and its line out of the transcript: only the refusals changed.
var transcriptDigests = map[string][]string{
	"ascii": {
		"ef896f0f025b6ce4", "56330a22c89279a4", "0907fbdd59c3e805", "c0aa23cdc9025df5",
		"e63ac1f76f4d04b0", "e6c6f301e07823d4", "a717b1a4eaa8181f", "77fd4c8be7d8aa35",
		"2db10eba2fcf0298", "e5aa7def82fdfd9d", "b4adc7344ac990bf", "6e3ede222ca16321",
		"3ced8ca5c51ecd55", "cec82f58df0ebd27", "dfde7187db955267", "d7a0176c46e5ceb4",
		"f8612407b7b483ac", "b36bc30b34dfc036", "ae1e08ceedaee249", "50757d4ec62d6c85",
		"884034cc588b8fa1", "98362c2d0f1e822d", "a97de4c3fedd2eb8", "bf2d74cebc528a31",
		"2ecc65483832385b", "d0f547b7167d013f", "231397887ba5ea72", "2a3e41b9366e39a1",
		"339ed7263d997fce", "07eb49910a0b0768", "a9f58d02be593780", "9f3e478208c559e4",
	},
	"binary": {
		"6c1b6f670d9dc13b", "6779f7be6443b73b", "84671600513d902e", "db73a8a8d4107b46",
		"6f8563650487ee46", "38372cb00059d6fa", "2abd7647a5fb44ef", "7d344f31ed6aa2b9",
		"d412887f1e942d44", "7a09cb8011e3948d", "ce917389dde0c2ca", "10273e525e5870d5",
		"f0885618a2d32c3d", "c53b5f5fd803dcc6", "d3f8e91755e6db84", "9ec30411afe8ceec",
		"f2c127b31eac420a", "2889806a5e4778d9", "85abefc30c4160f5", "669a82128dc238c5",
		"d23ceeee88909096", "374f58899a604a17", "700c3a676c481c11", "deed2f319e23aebc",
		"d8c7d6c95cde3ea9", "3ecafdc3c308bfa6", "58e1543744a76168", "0be3938f3c2c52fa",
		"b861ef53c1eae6af", "6fd51603a9ab2485", "5ab7177c862799f0", "fdd9bb0132acf4cd",
	},
}

func TestSessionTranscriptDigests(t *testing.T) {
	for _, codec := range []string{"ascii", "binary"} {
		t.Run(codec, func(t *testing.T) {
			bin := codec == "binary"
			kinds := map[string]int{}
			want := transcriptDigests[codec]
			for seed := uint64(1); seed <= 32; seed++ {
				transcript, truncated := transcriptOf(t, bin, seed, kinds)
				h := fnv.New64a()
				io.WriteString(h, transcript)
				got := fmt.Sprintf("%016x", h.Sum64())
				if int(seed) > len(want) || got != want[seed-1] {
					t.Errorf("seed %d (truncated=%v): digest %q not the recorded one", seed, truncated, got)
				}
			}
			all := asciiKinds
			if bin {
				all = binaryKinds
			}
			for _, k := range all {
				if kinds[k] == 0 {
					t.Errorf("no seed drew a %q request", k)
				}
			}
		})
	}
}

// TestTruncationEndsSessionCleanly pins the one rule for a peer that
// leaves mid-request, at every cut point of a store followed by a get on
// both codecs: Serve returns nil; a request whose head (command line,
// frame header) did not arrive in full was never a request and nothing
// is observed for it; a request cut after its head (in the data block,
// in the frame body) is observed once, as an error.
func TestTruncationEndsSessionCleanly(t *testing.T) {
	type request struct {
		bytes []byte
		head  int // bytes up to the point the op clock starts
		class OpClass
	}
	set := frame(OpSet, "k", setExtras(0, 0), []byte("hello"), 0, 1)
	streams := map[string][]request{
		"ascii": {
			{[]byte("set k 0 0 5\r\nhello\r\n"), len("set k 0 0 5\r\n"), ClassStore},
			{[]byte("get k\r\n"), len("get k\r\n"), ClassGet},
		},
		"binary": {
			{set, binHeaderLen, ClassStore},
			{frame(OpGet, "k", nil, nil, 0, 2), binHeaderLen, ClassGet},
		},
	}
	for codec, requests := range streams {
		var stream []byte
		for _, req := range requests {
			stream = append(stream, req.bytes...)
		}
		for cut := 1; cut < len(stream); cut++ {
			var want []string
			start := 0
			for _, req := range requests {
				switch end := start + len(req.bytes); {
				case cut >= end:
					want = append(want, fmt.Sprintf("op %v ok", req.class))
				case cut >= start+req.head:
					want = append(want, fmt.Sprintf("op %v error", req.class))
				}
				start += len(req.bytes)
			}
			d := &transcriptDeps{}
			env := Env{Observer: d, Clock: d}
			rw := &rwBuffer{in: bytes.NewReader(stream[:cut])}
			if err := ServeConn(newStore(t), rw, env); err != nil {
				t.Errorf("%s cut at %d: Serve = %v, want nil", codec, cut, err)
			}
			var got []string
			for _, entry := range d.log {
				got = append(got, entry[:strings.LastIndex(entry, " ")]) // drop the duration
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s cut at %d: observed %q, want %q", codec, cut, got, want)
			}
		}
	}
}

// TestClockReadsPerPipelinedOp pins what timing a request costs. The op
// clock is read when a run of requests ends and, if the transport was
// read since the previous run ended, when it starts; a run served from
// bytes already buffered starts where its predecessor ended. A lone
// request reads the clock twice. A 16-deep GET burst, or one of small
// quiet sets, is one run on either codec: two reads, and its 16 ops
// share the run's one tick. A
// session built on its caller's pair cannot see the transport, forms
// runs of one and stamps every start.
func TestClockReadsPerPipelinedOp(t *testing.T) {
	requests := map[string][]byte{
		"ascii get":  []byte("get k\r\n"),
		"binary get": frame(OpGet, "k", nil, nil, 0, 1),
		"ascii set":  []byte("set k 0 0 1 noreply\r\nv\r\n"),
		"binary set": frame(OpSetQ, "k", setExtras(0, 0), []byte("v"), 0, 1),
	}
	for codec, req := range requests {
		burst := [][]byte{bytes.Repeat(req, 16)}
		roundTrips := make([][]byte, 16)
		for i := range roundTrips {
			roundTrips[i] = req
		}
		for _, tc := range []struct {
			name       string
			segs       [][]byte
			callerPair bool
			ops, runs  int
			reads      sim.Ns
		}{
			{"lone request", [][]byte{req}, false, 1, 1, 2},
			{"16-deep burst", burst, false, 16, 1, 2},
			{"16 round trips", roundTrips, false, 16, 16, 32},
			{"16-deep burst on a caller's pair", burst, true, 16, 16, 32},
		} {
			d := &transcriptDeps{}
			env := Env{Observer: d, Clock: d}
			rw := &segmentedRW{segs: append([][]byte(nil), tc.segs...)}
			var err error
			if !tc.callerPair {
				err = ServeConn(newStore(t), rw, env)
			} else if r, w := NewBufferedPair(rw); strings.HasPrefix(codec, "binary") {
				err = NewBinarySessionBuffered(newStore(t), r, w, env).Serve()
			} else {
				err = NewSessionBuffered(newStore(t), r, w, env).Serve()
			}
			if err != nil {
				t.Fatalf("%s, %s: Serve = %v", codec, tc.name, err)
			}
			if len(d.log) != tc.ops || d.clock != tc.reads {
				t.Errorf("%s, %s: %d ops observed with %d clock reads, want %d with %d", codec, tc.name, len(d.log), d.clock, tc.ops, tc.reads)
			}
			// On the counting clock a run lasts exactly one tick, and its
			// ops' durations sum to it: one op of 1 and the rest of 0.
			var ticks int
			for i, entry := range d.log {
				switch {
				case strings.HasSuffix(entry, " 1"):
					ticks++
				case !strings.HasSuffix(entry, " 0"):
					t.Errorf("%s, %s: op %d observed as %q, want a duration of 0 or 1", codec, tc.name, i, entry)
				}
			}
			if ticks != tc.runs {
				t.Errorf("%s, %s: durations sum to %d ticks, want %d, one per run", codec, tc.name, ticks, tc.runs)
			}
		}
	}
}

// runStream is one seed's request list for TestTranscriptServeConnRuns:
// sets that leave values below and above pinThreshold (and, on every
// third seed, values a third of it long), then bursts of gets — hits,
// misses and repeated keys; binary get-family frames, or ASCII get and
// gets lines of one to three keys — and of stores (runStore), with
// other requests between them, none of which ends the session or is not
// a request. split is an offset inside a get that follows another get.
func runStream(seed uint64, bin bool) (requests [][]byte, split int) {
	g := &transcriptGen{r: sim.NewRand(seed), kinds: map[string]int{}}
	opaque := func() uint32 { return uint32(g.r.Intn(1 << 16)) }
	for i := 0; i < 6; i++ {
		value := []byte(g.value())
		switch {
		case i < 2 && seed%2 == 0:
			value = bytes.Repeat([]byte{byte('A' + i)}, pinThreshold+g.r.Intn(4<<10))
		case i >= 2 && i < 5 && seed%3 == 0:
			// Three of these in one run fill the session's copy buffer.
			value = bytes.Repeat([]byte{byte('a' + i)}, pinThreshold/3+g.r.Intn(1<<10))
		}
		if bin {
			requests = append(requests, frame(OpSet, fmt.Sprintf("k%d", i), setExtras(uint32(i), 0), value, 0, opaque()))
		} else {
			requests = append(requests, []byte(fmt.Sprintf("set k%d %d 0 %d\r\n%s\r\n", i, i, len(value), value)))
		}
	}
	// Kinds that end the session, or are not one request: a blank line
	// is none, and a data block that overruns its length is two.
	ends := map[string]bool{"quit": true, "bad-magic": true, "bad-lengths": true, "oversize-body": true,
		"oversize-line": true, "empty": true, "bad-chunk": true}
	at, prevGet := 0, false
	for _, req := range requests {
		at += len(req)
	}
	for len(requests) < 80 {
		var req []byte
		switch r := g.r.Intn(8); {
		case r < 2:
			req = g.runStore(bin, opaque())
			prevGet = false
		case r < 6:
			key := func() string { return fmt.Sprintf("k%d", g.r.Intn(8)) } // k6 and k7 are never set
			offsets := []int{12, binHeaderLen + 1}                          // inside the header, or inside the key
			if bin {
				req = frame([]byte{OpGet, OpGetQ, OpGetK, OpGetKQ}[g.r.Intn(4)], key(), nil, nil, 0, opaque())
			} else {
				line := []string{"get", "gets"}[g.r.Intn(2)]
				for n := 1 + g.r.Intn(3); n > 0; n-- {
					line += " " + key()
				}
				req = []byte(line + "\r\n")
				offsets = []int{2, len(req) - 1} // inside the verb, or before the line's end
			}
			if prevGet && split == 0 && len(requests) > 20 {
				split = at + offsets[seed%2]
			}
			prevGet = true
		default:
			for {
				before := maps.Clone(g.kinds)
				if bin {
					req = g.binaryRequest()
				} else {
					req = g.asciiRequest()
				}
				if !ends[kindDrawn(before, g.kinds)] {
					break
				}
			}
			prevGet = runKind(bin, req) == opGet
		}
		requests = append(requests, req)
		at += len(req)
	}
	return requests, split
}

// runStore is a store of a key that may or may not be set, by any verb
// that joins a run — binary set, add, replace and cas frames, quiet or
// not; ASCII set, add, replace and cas lines, noreply or not — with a
// value of pinThreshold bytes or more one time in eight, which ends a
// run of stores, and a third of it one time in four, so that a run's
// values reach pinThreshold in a few stores.
func (g *transcriptGen) runStore(bin bool, opaque uint32) []byte {
	key, flags := fmt.Sprintf("k%d", g.r.Intn(8)), g.r.Intn(9)
	value := []byte(g.value())
	switch g.r.Intn(8) {
	case 0:
		value = bytes.Repeat([]byte{'L'}, pinThreshold+g.r.Intn(4<<10))
	case 1, 2:
		value = bytes.Repeat([]byte{'t'}, pinThreshold/3+g.r.Intn(1<<10))
	}
	g.sets++
	cas := uint64(0)
	if g.r.Intn(4) == 0 {
		cas = uint64(1 + g.r.Intn(g.sets))
	}
	if bin {
		op := []byte{OpSet, OpSetQ, OpAdd, OpAddQ, OpReplace, OpReplaceQ}[g.r.Intn(6)]
		return frame(op, key, setExtras(uint32(flags), uint32(int32(g.exptime()))), value, cas, opaque)
	}
	noreply := []string{"", "", "", " noreply"}[g.r.Intn(4)]
	verb := []string{"set", "set", "add", "replace"}[g.r.Intn(4)]
	line := fmt.Sprintf("%s %s %d %d %d", verb, key, flags, g.exptime(), len(value))
	if cas != 0 {
		line = fmt.Sprintf("cas %s %d %d %d %d", key, flags, g.exptime(), len(value), cas)
	}
	return []byte(line + noreply + "\r\n" + string(value) + "\r\n")
}

// runKind is the op of the run req can join — opGet for a frame of the
// binary get family or an ASCII get or gets line with a key, opStore
// for a well-formed set, add, replace or cas whose value is under
// pinThreshold — or opNone.
func runKind(bin bool, req []byte) op {
	o, value := runOp(bin, req)
	if o == opStore && value >= pinThreshold {
		return opNone
	}
	return o
}

// runOp is opGet for a request runKind says joins a run of gets, and
// opStore, with the value's length, for a well-formed set, add, replace
// or cas of any size; opNone for any other.
func runOp(bin bool, req []byte) (o op, value int) {
	var cmd command
	if bin {
		h := parseBinHeader(req)
		nk := binHeaderLen + int(h.extrasLen) + int(h.keyLen)
		switch binOps[h.opcode] {
		case opGet:
			return opGet, 0
		case opStore:
			if h.extrasLen == 8 {
				return opStore, len(req) - nk
			}
		}
		return opNone, 0
	}
	eol := bytes.IndexByte(req, '\n') + 1
	verb, rest := nextToken(trimEOL(req[:eol]))
	switch asciiOps[string(verb)] {
	case opGet:
		if key, _ := nextToken(rest); len(key) != 0 {
			return opGet, 0
		}
	case opStore:
		cmd.verb = storeVerbs[string(verb)]
		n, err := parseStorageArgs(rest, &cmd)
		if block := req[eol:]; err == nil && len(block) == n+2 && string(block[n:]) == "\r\n" {
			return opStore, n
		}
	}
	return opNone, 0
}

// requestTag is the class and the opaque a request is observed with.
func requestTag(bin bool, req []byte) (OpClass, uint32) {
	if bin {
		h := parseBinHeader(req)
		return binOps[h.opcode].class(), h.opaque
	}
	verb, _ := nextToken(trimEOL(req[:bytes.IndexByte(req, '\n')+1]))
	return asciiOps[string(verb)].class(), 0
}

// kindDrawn is the kind whose count grew from before to after.
func kindDrawn(before, after map[string]int) string {
	for k, n := range after {
		if before[k] != n {
			return k
		}
	}
	return ""
}

// serveRuns serves segs through ServeConn on a fresh store with d as
// every dependency, and returns the replies, the store's stats, and
// the log's op lines and span lines, each in the order logged, without
// their stamps and durations, which depend on how frames were grouped
// into runs.
func serveRuns(t *testing.T, segs [][]byte, d *transcriptDeps) (reply []byte, stats kvstore.Stats, ops, spans []string) {
	t.Helper()
	st := newClockStore(t, 1000)
	rw := &segmentedRW{segs: append([][]byte(nil), segs...)}
	if err := ServeConn(st, rw, Env{Observer: d, Clock: d, Flight: d, FlightEvery: d.every}); err != nil {
		t.Fatalf("Serve = %v", err)
	}
	for _, entry := range d.log {
		f := strings.Fields(entry)
		if f[0] == "span" {
			spans = append(spans, strings.Join([]string{f[1], f[2], f[len(f)-1]}, " "))
		} else {
			ops = append(ops, strings.Join(f[1:3], " "))
		}
	}
	return rw.out.Bytes(), st.Stats(), ops, spans
}

// TestTranscriptServeConnRuns feeds streams of gets and stores of both
// codecs through ServeConn, which serves each get — a binary get-family
// frame, or an ASCII get or gets line, single- or multi-key — together
// with the complete gets buffered behind it as one run, and each set,
// add, replace or cas with the complete ones behind it. Delivered as
// one burst (long runs), one request per read and one byte per read
// (runs of one), and in two reads that split a get inside a burst, each
// request must be observed exactly once, in order, with its class, and
// each sampled request must have one span with its own opaque. Every
// run must hold requests of one op and, if stores, none of pinThreshold
// bytes or more, and values of at most pinThreshold in all. The replies
// — CAS ids included — and the store's stats must then be
// byte-identical to serving the stream one request per read.
func TestTranscriptServeConnRuns(t *testing.T) {
	for _, codec := range []string{"binary", "ascii"} {
		t.Run(codec, func(t *testing.T) { checkServeConnRuns(t, codec == "binary") })
	}
}

func checkServeConnRuns(t *testing.T, bin bool) {
	// Runs of more than one request, by op, and runs of stores that a
	// store of pinThreshold bytes or more ended.
	longRuns, endedLarge := map[op]int{}, 0
	for seed := uint64(1); seed <= 12; seed++ {
		requests, split := runStream(seed, bin)
		if split == 0 {
			t.Fatalf("seed %d: no get follows a get to split", seed)
		}
		every := 1 + int(seed%3)
		cuts := deliveries(requests)
		all := bytes.Join(requests, nil)
		cuts["split"] = [][]byte{all[:split], all[split:]}
		for _, name := range []string{"per-request", "per-byte", "burst", "split"} {
			d := &transcriptDeps{every: every}
			reply, stats, ops, spans := serveRuns(t, cuts[name], d)
			if len(ops) != len(requests) {
				t.Fatalf("seed %d, %s: %d ops observed for %d requests", seed, name, len(ops), len(requests))
			}
			var wantSpans []string
			for i, req := range requests {
				wantClass, opaque := requestTag(bin, req)
				if class, _, _ := strings.Cut(ops[i], " "); class != wantClass.String() {
					t.Errorf("seed %d, %s: request %d observed as %q, want class %v", seed, name, i, ops[i], wantClass)
				}
				if i%every == 0 {
					wantSpans = append(wantSpans, fmt.Sprintf("%s opaque=%d", ops[i], opaque))
				}
			}
			if !slices.Equal(spans, wantSpans) {
				t.Errorf("seed %d, %s: spans\n%q\nwant\n%q", seed, name, spans, wantSpans)
			}
			switch {
			case name == "per-request" || name == "per-byte":
				if d.observes != len(requests) {
					t.Errorf("seed %d, %s: %d observer calls for %d requests, want one each", seed, name, d.observes, len(requests))
				}
			case name == "burst" && d.observes >= len(requests):
				t.Errorf("seed %d, burst: %d observer calls for %d requests: no run of more than one formed", seed, d.observes, len(requests))
			}
			at := 0
			for _, n := range d.runs {
				if n == 1 {
					at++
					continue
				}
				kind, vals := runKind(bin, requests[at]), 0
				for _, req := range requests[at : at+n] {
					if k := runKind(bin, req); k != kind {
						t.Fatalf("seed %d, %s: requests %d-%d served as one run, request of op %v among %v", seed, name, at, at+n-1, k, kind)
					}
					_, v := runOp(bin, req)
					vals += v
				}
				if vals > pinThreshold {
					t.Errorf("seed %d, %s: a run of %d stores carries %d value bytes", seed, name, n, vals)
				}
				longRuns[kind]++
				if next := at + n; kind == opStore && next < len(requests) {
					if o, v := runOp(bin, requests[next]); o == opStore && v >= pinThreshold {
						endedLarge++
					}
				}
				at += n
			}
			ref := &transcriptDeps{every: every}
			wantReply, wantStats, wantOps, _ := serveRuns(t, requests, ref)
			if !slices.Equal(ops, wantOps) {
				t.Errorf("seed %d, %s: observed\n%q\nwant\n%q", seed, name, ops, wantOps)
			}
			if !bytes.Equal(reply, wantReply) {
				t.Errorf("seed %d, %s: replies differ from one request per read", seed, name)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("seed %d, %s: store stats %+v, want %+v", seed, name, stats, wantStats)
			}
		}
	}
	for _, kind := range []op{opGet, opStore} {
		if longRuns[kind] == 0 {
			t.Errorf("no run of more than one request of op %v formed", kind)
		}
	}
	if endedLarge == 0 {
		t.Error("no run of stores was ended by a store of pinThreshold bytes or more")
	}
}
