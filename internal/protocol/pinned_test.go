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
