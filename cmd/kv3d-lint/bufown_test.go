package main

import (
	"strings"
	"testing"
)

// The bufown fixtures exercise the loan contract from both sides:
// retention shapes that must be flagged (field stores, channel sends,
// goroutine captures, returns without a contract) and the laundering
// idioms that must not be (string conversion, copy, byte append).

func TestBufOwnFlagsFieldRetention(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

type cache struct {
	last []byte
}

//kv3d:borrowed buf
func (c *cache) Remember(buf []byte) {
	c.last = buf
}
`,
	})
	assertFindings(t, checkBufOwn(a), 1, "bufown/retain", "field last", `borrowed "buf"`)
}

func TestBufOwnTracksAliasesThroughLocals(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

var sink []byte

//kv3d:borrowed line
func Parse(line []byte) {
	tok := line[1:]
	view := tok
	sink = view
}
`,
	})
	assertFindings(t, checkBufOwn(a), 1, "bufown/retain", "package variable sink", `borrowed "line"`)
}

func TestBufOwnFlagsChannelSendAndGoroutine(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

var ch = make(chan []byte, 1)

func consume([]byte) {}

//kv3d:borrowed buf
func Ship(buf []byte) {
	ch <- buf[4:]
}

//kv3d:borrowed buf
func Spawn(buf []byte) {
	go consume(buf)
}

//kv3d:borrowed buf
func Capture(buf []byte) {
	go func() { consume(buf) }()
}
`,
	})
	fs := checkBufOwn(a)
	assertFindings(t, fs, 3, "sent on a channel", "passed to a goroutine", "captured by a go statement")
}

func TestBufOwnHotpathInfersSliceParamsAndReturn(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

// GetInto appends into dst — hotpath slice params are loans by
// construction, so returning the extended dst needs a contract.
//
//kv3d:hotpath
func GetInto(dst []byte, key string) []byte {
	dst = append(dst, key...)
	return dst
}
`,
	})
	assertFindings(t, checkBufOwn(a), 1, "bufown/return", `borrowed "dst"`, "kv3d:aliases dst")
}

func TestBufOwnAliasesContractAllowsReturn(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

//kv3d:hotpath
//kv3d:aliases dst
func GetInto(dst []byte, key string) []byte {
	return append(dst, key...)
}
`,
	})
	assertFindings(t, checkBufOwn(a), 0)
}

func TestBufOwnAliasesContractPropagatesThroughCalls(t *testing.T) {
	// A caller of an //kv3d:aliases callee inherits the taint: the
	// wrapped result still aliases the borrowed argument.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

//kv3d:aliases b
func firstWord(b []byte) []byte {
	for i, c := range b {
		if c == ' ' {
			return b[:i]
		}
	}
	return b
}

type session struct {
	key []byte
}

//kv3d:borrowed line
func (s *session) Handle(line []byte) {
	s.key = firstWord(line)
}
`,
	})
	assertFindings(t, checkBufOwn(a), 1, "bufown/retain", "field key", `borrowed "line"`)
}

func TestBufOwnLaunderingIsClean(t *testing.T) {
	// string(b) copies, copy() copies, append of bytes into an owned
	// slice copies — none of them extend the loan.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

type cache struct {
	lastKey string
	lastVal []byte
}

//kv3d:borrowed key value
func (c *cache) Store(key, value []byte) {
	c.lastKey = string(key)
	c.lastVal = append(c.lastVal[:0], value...)
	buf := make([]byte, len(value))
	copy(buf, value)
	c.lastVal = buf
}
`,
	})
	assertFindings(t, checkBufOwn(a), 0)
}

func TestBufOwnRangeOverBorrowedRows(t *testing.T) {
	// Ranging a borrowed [][]byte taints the iteration variable (each
	// row aliases borrowed memory); ranging a []byte does not (the
	// element is a byte copy).
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

type batch struct {
	keys [][]byte
	sum  byte
}

//kv3d:borrowed keys
func (b *batch) Retain(keys [][]byte) {
	for _, k := range keys {
		b.keys = append(b.keys, k)
	}
}

//kv3d:borrowed buf
func (b *batch) Sum(buf []byte) {
	for _, c := range buf {
		b.sum += c
	}
}
`,
	})
	assertFindings(t, checkBufOwn(a), 1, "bufown/retain", `borrowed "keys"`)
}

func TestBufOwnUnknownAnnotationName(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

//kv3d:borrowed bug
func Parse(buf []byte) {
	_ = buf
}
`,
	})
	assertFindings(t, checkBufOwn(a), 1, "bufown/annotation", `"bug"`)
}

func TestBufOwnRebindKillsTaint(t *testing.T) {
	// Once the local is rebound to owned memory, storing it is fine.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

type c struct{ v []byte }

//kv3d:borrowed buf
func (x *c) F(buf []byte) {
	v := buf[2:]
	v = make([]byte, 8)
	x.v = v
}
`,
	})
	assertFindings(t, checkBufOwn(a), 0)
}

// TestBufOwnRepoIsClean is the v4 ratchet over the annotated zero-copy
// surface: the tree itself must stay free of bufown findings.
func TestBufOwnRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	a, err := load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	fs := applyNolint(a, checkBufOwn(a))
	if len(fs) != 0 {
		t.Fatalf("bufown findings on the tree:\n%s", strings.Join(msgs(fs), "\n"))
	}
}
