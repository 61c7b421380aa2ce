// Command kv3d-client is a one-shot client for any memcached-compatible
// server (including kv3d-server):
//
//	kv3d-client -addr localhost:11211 set mykey hello
//	kv3d-client -addr localhost:11211 get mykey
//	kv3d-client -addr localhost:11211 stats
//
// Load generation lives in one place, the benchmark harness
// (go run ./benchmark).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"kv3d/internal/kvclient"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "server address")
	flag.Parse()
	if err := runCommand(*addr, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kv3d-client:", err)
		os.Exit(1)
	}
}

// runCommand runs one command against the server at addr and prints
// its result to out.
func runCommand(addr string, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("need a command (get/set/delete/incr/stats/version)")
	}
	usage := map[string]string{"get": "get <key>", "set": "set <key> <value>", "delete": "delete <key>", "incr": "incr <key> <delta>"}
	if u, ok := usage[args[0]]; ok && len(args) != len(strings.Fields(u)) {
		return fmt.Errorf("usage: %s", u)
	}
	var delta uint64
	if args[0] == "incr" {
		var err error
		if delta, err = strconv.ParseUint(args[2], 10, 64); err != nil {
			return fmt.Errorf("incr: bad delta %q: %w", args[2], err)
		}
	}
	c, err := kvclient.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	switch args[0] {
	case "get":
		it, err := c.Get(args[1])
		if err != nil {
			return fmt.Errorf("get: %w", err)
		}
		fmt.Fprintf(out, "%s\n", it.Value)
	case "set":
		if err := c.Set(args[1], []byte(args[2]), 0, 0); err != nil {
			return fmt.Errorf("set: %w", err)
		}
		fmt.Fprintln(out, "STORED")
	case "delete":
		if err := c.Delete(args[1]); err != nil {
			return fmt.Errorf("delete: %w", err)
		}
		fmt.Fprintln(out, "DELETED")
	case "incr":
		v, err := c.Incr(args[1], delta)
		if err != nil {
			return fmt.Errorf("incr: %w", err)
		}
		fmt.Fprintln(out, v)
	case "stats":
		st, err := c.Stats()
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		names := make([]string, 0, len(st))
		for k := range st {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(out, "%s %s\n", k, st[k])
		}
	case "version":
		v, err := c.Version()
		if err != nil {
			return fmt.Errorf("version: %w", err)
		}
		fmt.Fprintln(out, v)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}
