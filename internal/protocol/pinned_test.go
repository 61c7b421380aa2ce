package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"kv3d/internal/kvstore"
)

// failAfterFirstWrite is a transport whose writer takes one write and
// fails every one after it: a pinned send's head goes out, its value
// does not.
type failAfterFirstWrite struct {
	io.Reader
	writes int
}

var errWriteFailed = errors.New("write failed")

func (f *failAfterFirstWrite) Write(p []byte) (int, error) {
	if f.writes++; f.writes > 1 {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestPinnedSendFailureReleasesPins: when the send of a get's first
// pinned value fails, the session lets go of the pins its batch took
// for the values after it, in both codecs. A leaked pin would keep its
// chunk allocated after the keys are deleted.
func TestPinnedSendFailureReleasesPins(t *testing.T) {
	keys := []string{"k0", "k1", "k2"}
	ascii := []byte("get " + strings.Join(keys, " ") + "\r\n")
	var binary []byte
	for i, k := range keys {
		binary = append(binary, frame(OpGetK, k, nil, nil, 0, uint32(i))...)
	}
	for name, script := range map[string][]byte{"ascii": ascii, "binary": binary} {
		t.Run(name, func(t *testing.T) {
			st := newStore(t)
			for i, k := range keys {
				if err := st.Set(k, bytes.Repeat([]byte{byte('a' + i)}, pinThreshold+i), 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			err := serveConn(st, &failAfterFirstWrite{Reader: bytes.NewReader(script)}, Env{}, pinThreshold, 0)
			if !errors.Is(err, errWriteFailed) {
				t.Fatalf("serve = %v, want the write's error", err)
			}
			for _, k := range keys {
				st.Delete(k)
			}
			for _, c := range st.Stats().Classes {
				if c.UsedChunks != 0 {
					t.Fatalf("class of %d B chunks: %d in use after every key was deleted", c.ChunkSize, c.UsedChunks)
				}
			}
		})
	}
}

// feed is a transport reader that returns what the test puts in it,
// then io.EOF, after which a session's Serve returns and may be called
// again.
type feed struct{ pending []byte }

func (f *feed) Read(p []byte) (int, error) {
	if len(f.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.pending)
	f.pending = f.pending[n:]
	return n, nil
}

// TestPinnedGetBoundsValueScratch: however many large values one ASCII
// get hits, the session keeps under two copy budgets of value scratch —
// values of pinThreshold or more are sent pinned, and shorter ones are
// copied only while the copies stay under it. The session is built as
// serveConn builds it.
func TestPinnedGetBoundsValueScratch(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	in := &feed{}
	rw := struct {
		io.Reader
		io.Writer
	}{in, io.Discard}
	r, w, transport := newBufferedPair(rw)
	s := NewSessionBuffered(st, r, w, Env{})
	s.transport, s.conn, s.pinFrom = transport, rw, pinThreshold
	for _, size := range []int{512 << 10, 8 << 10} {
		get := []byte("get")
		for i := 0; i < 32; i++ {
			key := fmt.Sprintf("v%d-%d", size, i)
			if err := st.Set(key, bytes.Repeat([]byte{byte('a' + i%26)}, size), 0, 0); err != nil {
				t.Fatal(err)
			}
			get = append(append(get, ' '), key...)
		}
		in.pending = append(get, "\r\n"...)
		if err := s.Serve(); err != nil {
			t.Fatal(err)
		}
		if c := cap(s.val); c >= 2*pinThreshold {
			t.Fatalf("after a 32-key get of %d KiB values the session keeps %d KiB of value scratch, want under %d KiB",
				size>>10, c>>10, 2*pinThreshold>>10)
		}
	}
}

// servedSession builds a session of either codec as serveConn builds
// it, over a transport that reads what the test feeds it and writes to
// out, and reports the value and body scratch it keeps.
func servedSession(st *kvstore.Store, bin bool, in io.Reader, out io.Writer) (s interface{ Serve() error }, scratch func() int) {
	rw := struct {
		io.Reader
		io.Writer
	}{in, out}
	r, w, transport := newBufferedPair(rw)
	if bin {
		b := NewBinarySessionBuffered(st, r, w, Env{})
		b.transport, b.conn, b.pinFrom = transport, rw, pinThreshold
		return b, func() int { return max(cap(b.val), cap(b.body)) }
	}
	a := NewSessionBuffered(st, r, w, Env{})
	a.transport, a.conn, a.pinFrom = transport, rw, pinThreshold
	return a, func() int { return cap(a.val) }
}

// setRequest is a set of key to value in either codec.
func setRequest(bin bool, key string, value []byte) []byte {
	if bin {
		return frame(OpSet, key, setExtras(0, 0), value, 0, 1)
	}
	return append(fmt.Appendf(nil, "set %s 0 0 %d\r\n", key, len(value)), append(value, "\r\n"...)...)
}

// TestPinnedSetBoundsValueScratch is the write half of
// TestPinnedGetBoundsValueScratch: a set of pinThreshold bytes or more
// is read straight into the chunk the store reserves for it, and one
// the store refuses is skipped, so after a 1 MiB set (over the item
// limit) and a 512 KiB one the session's value and body scratch stay
// under pinThreshold plus one key and its extras, in both codecs. The
// chunk the value was read into holds no pin once the set is answered.
func TestPinnedSetBoundsValueScratch(t *testing.T) {
	for _, bin := range []bool{false, true} {
		st, err := kvstore.New(kvstore.DefaultConfig(64 << 20))
		if err != nil {
			t.Fatal(err)
		}
		in, out := &feed{}, &bytes.Buffer{}
		s, scratch := servedSession(st, bin, in, out)
		const key = "photo"
		for _, size := range []int{1 << 20, 512 << 10} {
			value := bytes.Repeat([]byte{byte('a' + size%26)}, size)
			in.pending = setRequest(bin, key, value)
			out.Reset()
			if err := s.Serve(); err != nil {
				t.Fatal(err)
			}
			if limit := pinThreshold + len(key) + 8; scratch() >= limit {
				t.Fatalf("binary=%v: after a %d KiB set the session keeps %d bytes of scratch, want under %d",
					bin, size>>10, scratch(), limit)
			}
			stored := size < 1<<20
			if got, ok := st.Get(key); ok != stored || stored && !bytes.Equal(got.Value, value) {
				t.Fatalf("binary=%v: after a %d KiB set the key is found %v (%d bytes), want %v; reply %q",
					bin, size>>10, ok, len(got.Value), stored, out.Bytes())
			}
		}
		// The stored value's chunk was let go of once committed.
		st.Delete(key)
		if n := usedChunks(st.Stats()); n != 0 {
			t.Fatalf("binary=%v: %d chunks in use after the key was deleted", bin, n)
		}
	}
}

// TestReservedSetPeerLeaves cuts a large store off partway, in each
// codec: inside the value, and, for ASCII, before and inside its line
// end — a set over an old value, and an add the store refuses, whose
// value is being skipped. The session must end cleanly and leave the
// store as it was before the store began: the same items and bytes,
// the same chunks in use, the old value readable, and no pin left, so
// that deleting every key frees every chunk.
func TestReservedSetPeerLeaves(t *testing.T) {
	old := bytes.Repeat([]byte("o"), 40<<10)
	value := bytes.Repeat([]byte("n"), 256<<10)
	for _, bin := range []bool{false, true} {
		for _, verb := range []string{"set", "add"} {
			req := setRequest(bin, "k", value)
			if verb == "add" {
				if bin {
					req[1] = OpAdd
				} else {
					req = append([]byte("add"), req[3:]...)
				}
			}
			cuts := map[string]int{"inside the value": len(req) - 2 - len(value)/2}
			if !bin {
				cuts["before the line end"], cuts["inside the line end"] = len(req)-2, len(req)-1
			}
			for where, cut := range cuts {
				t.Run(fmt.Sprintf("binary=%v/%s/%s", bin, verb, where), func(t *testing.T) {
					st, err := kvstore.New(kvstore.DefaultConfig(64 << 20))
					if err != nil {
						t.Fatal(err)
					}
					if err := st.Set("k", old, 0, 0); err != nil {
						t.Fatal(err)
					}
					before := st.Stats()
					s, _ := servedSession(st, bin, &feed{pending: req[:cut]}, io.Discard)
					if err := s.Serve(); err != nil {
						t.Fatalf("serve = %v, want a clean end", err)
					}
					after := st.Stats()
					if after.CurrItems != before.CurrItems || after.BytesUsed != before.BytesUsed || usedChunks(after) != usedChunks(before) {
						t.Fatalf("store after the cut: %d items, %d bytes, %d chunks in use; before: %d items, %d bytes, %d chunks",
							after.CurrItems, after.BytesUsed, usedChunks(after), before.CurrItems, before.BytesUsed, usedChunks(before))
					}
					if got, ok := st.Get("k"); !ok || !bytes.Equal(got.Value, old) {
						t.Fatalf("the old value is gone (found %v, %d bytes)", ok, len(got.Value))
					}
					st.Delete("k")
					if n := usedChunks(st.Stats()); n != 0 {
						t.Fatalf("%d chunks in use after every key was deleted", n)
					}
				})
			}
		}
	}
}

// usedChunks is how many chunks the store has handed out.
func usedChunks(st kvstore.Stats) (n int) {
	for _, c := range st.Classes {
		n += c.UsedChunks
	}
	return n
}
