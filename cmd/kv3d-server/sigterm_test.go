package main

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"kv3d/internal/kvclient"
)

// childEnv makes the test binary run main() instead of the tests, so a
// test can start the real server as a child process without building it.
const childEnv = "KV3D_SERVER_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMClosesAndReports starts the server, serves one set and one
// get, and sends SIGTERM: the server must close, exit 0 and print its
// final stats line, which only the signal handler's Close lets it reach.
func TestSIGTERMClosesAndReports(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-memory", "8m")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // a no-op once the child has exited
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var out []string
	next := func() (string, bool) {
		select {
		case line, ok := <-lines:
			if ok {
				out = append(out, line)
			}
			return line, ok
		case <-time.After(30 * time.Second):
			t.Fatalf("no output from the server for 30 s; so far:\n%s", strings.Join(out, "\n"))
			return "", false
		}
	}

	listening := regexp.MustCompile(`listening on (\S+) `)
	var addr string
	for addr == "" {
		line, ok := next()
		if !ok {
			t.Fatalf("server exited before listening:\n%s", strings.Join(out, "\n"))
		}
		if m := listening.FindStringSubmatch(line); m != nil {
			addr = m[1]
		}
	}
	c, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	c.Close() // the session's end is not under test

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := next(); !ok {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server after SIGTERM: %v; output:\n%s", err, strings.Join(out, "\n"))
	}
	stats := regexp.MustCompile(`served 1 conns, 1 gets \(100\.0% hit\), 1 sets, 0 evictions$`)
	if last := out[len(out)-1]; !stats.MatchString(last) {
		t.Fatalf("last line %q is not the final stats line; output:\n%s", last, strings.Join(out, "\n"))
	}
}
