package kvclient

// Regression tests for two protocol bugs fixed in the multiget PR:
//
//   - getMulti with zero (or all-empty) keys used to write "get \r\n",
//     a malformed request the server answers with ERROR; duplicate keys
//     were sent and answered twice.
//   - getMulti trusted the advertised value length: it read n+2 bytes
//     but never checked the last two were CRLF, so a lying server
//     silently desynchronized the stream instead of failing fast.

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// scriptedServer runs a one-shot ASCII exchange on the remote end of a
// pipe: read one request line, check it, write the canned response.
func scriptedServer(t *testing.T, remote net.Conn, wantLine, response string) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer remote.Close()
		line, err := bufio.NewReader(remote).ReadString('\n')
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if got := strings.TrimRight(line, "\r\n"); got != wantLine {
			t.Errorf("server received %q, want %q", got, wantLine)
		}
		if _, err := remote.Write([]byte(response)); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()
	return done
}

func TestGetMultiZeroKeysIsLocalNoop(t *testing.T) {
	// No server goroutine: net.Pipe writes rendezvous with a reader, so
	// if the client attempted any I/O this test would hang on the
	// deadline instead of returning instantly.
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	c := NewClientOptions(local, Options{OpTimeout: 100 * time.Millisecond})

	for _, keys := range [][]string{nil, {}, {""}, {"", ""}} {
		items, err := c.GetMulti(keys)
		if err != nil {
			t.Fatalf("GetMulti(%q) = %v, want nil error", keys, err)
		}
		if len(items) != 0 {
			t.Fatalf("GetMulti(%q) = %d items, want 0", keys, len(items))
		}
	}
}

func TestGetMultiDeduplicatesKeys(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	done := scriptedServer(t, remote,
		"get alpha beta", // duplicates and the empty key are stripped, order kept
		"VALUE alpha 7 2\r\nva\r\nVALUE beta 9 2\r\nvb\r\nEND\r\n")
	c := NewClient(local)

	items, err := c.GetMulti([]string{"alpha", "beta", "alpha", "", "beta"})
	if err != nil {
		t.Fatalf("GetMulti: %v", err)
	}
	<-done
	if len(items) != 2 {
		t.Fatalf("GetMulti returned %d items, want 2", len(items))
	}
	if string(items["alpha"].Value) != "va" {
		t.Fatalf("alpha = %+v", items["alpha"])
	}
	if string(items["beta"].Value) != "vb" {
		t.Fatalf("beta = %+v", items["beta"])
	}
}

// TestGetMultiTrailerDesync feeds the client a hostile response whose
// VALUE header advertises a length shorter than the bytes that follow.
// The old code returned a truncated value and left the reader pointed
// mid-stream; it must now detect the missing CRLF and fail with
// ErrProtocol.
func TestGetMultiTrailerDesync(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	done := scriptedServer(t, remote,
		"get k",
		"VALUE k 0 3\r\nabcde\r\nEND\r\n") // claims 3 bytes, value is 5
	c := NewClient(local)

	_, err := c.GetMulti([]string{"k"})
	<-done
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("desynchronized stream returned %v, want ErrProtocol", err)
	}
}

func TestGetMultiValidTrailerStillWorks(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	done := scriptedServer(t, remote,
		"get k",
		"VALUE k 3 5\r\nhello\r\nEND\r\n")
	c := NewClient(local)

	it, err := c.Get("k")
	<-done
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(it.Value) != "hello" {
		t.Fatalf("Get = %+v", it)
	}
}
