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
	"flag"
	"fmt"
	"log"
	"sort"

	"kv3d/internal/kvclient"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "server address")
	flag.Parse()
	runCommand(*addr, flag.Args())
}

func runCommand(addr string, args []string) {
	if len(args) == 0 {
		log.Fatal("kv3d-client: need a command (get/set/delete/incr/stats/version)")
	}
	c, err := kvclient.Dial(addr)
	if err != nil {
		log.Fatalf("kv3d-client: %v", err)
	}
	defer c.Close()
	switch args[0] {
	case "get":
		if len(args) != 2 {
			log.Fatal("usage: get <key>")
		}
		it, err := c.Get(args[1])
		if err != nil {
			log.Fatalf("get: %v", err)
		}
		fmt.Printf("%s\n", it.Value)
	case "set":
		if len(args) != 3 {
			log.Fatal("usage: set <key> <value>")
		}
		if err := c.Set(args[1], []byte(args[2]), 0, 0); err != nil {
			log.Fatalf("set: %v", err)
		}
		fmt.Println("STORED")
	case "delete":
		if len(args) != 2 {
			log.Fatal("usage: delete <key>")
		}
		if err := c.Delete(args[1]); err != nil {
			log.Fatalf("delete: %v", err)
		}
		fmt.Println("DELETED")
	case "incr":
		if len(args) != 3 {
			log.Fatal("usage: incr <key> <delta>")
		}
		var delta uint64
		fmt.Sscan(args[2], &delta)
		v, err := c.Incr(args[1], delta)
		if err != nil {
			log.Fatalf("incr: %v", err)
		}
		fmt.Println(v)
	case "stats":
		st, err := c.Stats()
		if err != nil {
			log.Fatalf("stats: %v", err)
		}
		names := make([]string, 0, len(st))
		for k := range st {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%s %s\n", k, st[k])
		}
	case "version":
		v, err := c.Version()
		if err != nil {
			log.Fatalf("version: %v", err)
		}
		fmt.Println(v)
	default:
		log.Fatalf("kv3d-client: unknown command %q", args[0])
	}
}
