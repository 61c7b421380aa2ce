package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"

	"kv3d/internal/kvstore"
)

// fuzzStore builds a small store for fuzz iterations.
func fuzzStore(tb testing.TB) *kvstore.Store {
	cfg := kvstore.DefaultConfig(4 << 20)
	cfg.Shards = 1
	st, err := kvstore.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// FuzzASCIISession throws arbitrary bytes at the text-protocol session.
// The invariant: the session must never panic, and must terminate (the
// input is finite, so Serve must return).
func FuzzASCIISession(f *testing.F) {
	seeds := []string{
		"get k\r\n",
		"set k 0 0 5\r\nhello\r\nget k\r\n",
		"gets a b c\r\n",
		"add k 1 2 3\r\nabc\r\n",
		"cas k 0 0 1 99\r\nx\r\n",
		"delete k noreply\r\n",
		"incr n 5\r\n",
		"decr n 18446744073709551615\r\n",
		"touch k -1\r\n",
		"stats\r\nstats slabs\r\nstats settings\r\n",
		"flush_all 100\r\nversion\r\nverbosity 2\r\nquit\r\n",
		"set k 0 0 99999999999999999999\r\n",
		"set k 0 0 -1\r\n",
		"bogus command here\r\n",
		"\r\n\r\n\r\n",
		"set  0 0 0\r\n\r\n",
		"get " + string(bytes.Repeat([]byte("k"), 300)) + "\r\n",
		"set k 0 0 3\r\nab",            // truncated body
		"set k 0 0 3 noreply\r\nabcXX", // bad terminator
		"incr k notanumber extra words\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzStore(t)
		buf := &rwBuffer{in: bytes.NewReader(data)}
		// Errors are fine; panics and hangs are not.
		_ = NewSession(st, buf).Serve()
	})
}

// FuzzSessionBinary throws arbitrary bytes at the binary-protocol
// session: it must never panic, and must terminate on finite input.
// (Named so that CI's -fuzz=FuzzBinary selects only the framer target.)
func FuzzSessionBinary(f *testing.F) {
	f.Add(frame(OpGet, "k", nil, nil, 0, 0))
	f.Add(frame(OpSet, "k", setExtras(1, 2), []byte("v"), 0, 9))
	f.Add(frame(OpIncr, "n", incrExtras(1, 5, 0), nil, 0, 0))
	f.Add(frame(OpStat, "", nil, nil, 0, 0))
	f.Add(frame(OpQuit, "", nil, nil, 0, 0))
	f.Add(frame(OpFlush, "", []byte{0, 0, 0, 30}, nil, 0, 0))
	f.Add(frame(OpFlushQ, "", []byte{0, 30}, nil, 0, 0))
	f.Add([]byte{0x80})                                          // truncated header
	f.Add(append(frame(OpGet, "k", nil, nil, 0, 0), 0xde, 0xad)) // trailing junk
	bad := frame(OpSet, "k", setExtras(0, 0), []byte("v"), 0, 0)
	bad[4] = 200 // extras longer than body
	f.Add(bad)
	huge := frame(OpGet, "k", nil, nil, 0, 0)
	huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0xff
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzStore(t)
		buf := &rwBuffer{in: bytes.NewReader(data)}
		_ = NewBinarySession(st, buf).Serve()
	})
}

// FuzzASCIIRoundTrip checks a semantic invariant: for any key/value the
// store accepts, a set-then-get over the wire returns the exact bytes.
func FuzzASCIIRoundTrip(f *testing.F) {
	f.Add("key", []byte("value"))
	f.Add("k", []byte{})
	f.Add("binary", []byte{0, 1, 2, '\r', '\n', 0xff})
	f.Fuzz(func(t *testing.T, key string, value []byte) {
		st := fuzzStore(t)
		if st.Set(key, value, 0, 0) != nil {
			t.Skip() // store rejected the key/value; not a protocol case
		}
		input := "get " + key + "\r\n"
		buf := &rwBuffer{in: bytes.NewReader([]byte(input))}
		if err := NewSession(st, buf).Serve(); err != nil {
			t.Fatalf("serve: %v", err)
		}
		out := buf.out.Bytes()
		if !bytes.Contains(out, value) {
			t.Fatalf("value lost: key=%q value=%q out=%q", key, value, out)
		}
		if !bytes.HasSuffix(out, []byte("END\r\n")) {
			t.Fatalf("missing END: %q", out)
		}
	})
}

// FuzzBinaryFramer targets the binary framing layer: header decode
// must be an exact inverse of the wire encoding, and the frame-length
// validation must reject inconsistent frames instead of mis-slicing.
func FuzzBinaryFramer(f *testing.F) {
	// Golden requests seed the corpus.
	f.Add(frame(OpGet, "k", nil, nil, 0, 0))
	f.Add(frame(OpSet, "key", setExtras(7, 60), []byte("value"), 1, 42))
	f.Add(frame(OpIncr, "n", incrExtras(1, 5, 0), nil, 0, 0))
	f.Add(frame(OpDelete, "gone", nil, nil, 3, 9))
	f.Add(frame(OpQuit, "", nil, nil, 0, 0))
	// Flush extras: absent, a well-formed 4-byte delay, and the
	// malformed lengths the session must reject with StatusInvalidArgs
	// rather than misread as "flush now".
	f.Add(frame(OpFlush, "", nil, nil, 0, 0))
	f.Add(frame(OpFlush, "", []byte{0, 0, 0, 30}, nil, 0, 0))
	f.Add(frame(OpFlush, "", []byte{0, 30}, nil, 0, 0))
	f.Add(frame(OpFlushQ, "", []byte{1, 2, 3, 4, 5}, nil, 0, 0))
	f.Add([]byte{0x81, 0, 0, 0}) // response magic, truncated
	bad := frame(OpSet, "k", setExtras(0, 0), []byte("v"), 0, 0)
	bad[4] = 200 // extras longer than body
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < binHeaderLen {
			t.Skip()
		}
		h := parseBinHeader(data)

		// Re-encoding the decoded header must reproduce the input bytes
		// (byte 5 is the data-type field, carried through undecoded).
		var enc [binHeaderLen]byte
		enc[0], enc[1] = h.magic, h.opcode
		binary.BigEndian.PutUint16(enc[2:], h.keyLen)
		enc[4], enc[5] = h.extrasLen, data[5]
		binary.BigEndian.PutUint16(enc[6:], h.status)
		binary.BigEndian.PutUint32(enc[8:], h.bodyLen)
		binary.BigEndian.PutUint32(enc[12:], h.opaque)
		binary.BigEndian.PutUint64(enc[16:], h.cas)
		if !bytes.Equal(enc[:], data[:binHeaderLen]) {
			t.Fatalf("header decode is lossy: in=%x re-encoded=%x", data[:binHeaderLen], enc)
		}

		// Frame validation: the session must refuse frames whose declared
		// lengths are inconsistent or whose magic is wrong, and must not
		// panic regardless.
		st := fuzzStore(t)
		buf := &rwBuffer{in: bytes.NewReader(data)}
		err := NewBinarySession(st, buf).Serve()
		if h.magic != MagicRequest && err == nil {
			t.Fatalf("session accepted magic %#02x", h.magic)
		}
		if h.magic == MagicRequest && int(h.extrasLen)+int(h.keyLen) > int(h.bodyLen) && err == nil {
			t.Fatalf("session accepted inconsistent lengths: extras=%d key=%d body=%d",
				h.extrasLen, h.keyLen, h.bodyLen)
		}
	})
}
