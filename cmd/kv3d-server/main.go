// Command kv3d-server runs a memcached-compatible TCP server backed by
// the kvstore engine.
//
//	kv3d-server -addr :11211 -memory 64m -shards 8
//
// Any memcached ASCII client can talk to it:
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\n' | nc localhost 11211
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kv3d/internal/cluster"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

func parseSize(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, strings.TrimSuffix(s, "g")
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, strings.TrimSuffix(s, "k")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// flightRecorder is the -flight flag's recorder: a ring of capacity
// events, or nil (recording off) unless capacity is positive. To obs a
// capacity of 0 means "keep every event", which a long-running server
// must never get from its flags.
func flightRecorder(capacity int) *obs.FlightRecorder[sim.Ns] {
	if capacity <= 0 {
		return nil
	}
	return obs.NewFlightRecorder[sim.Ns]("kv3d-server", capacity)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "listen address")
	memory := flag.String("memory", "64m", "memory limit (supports k/m/g suffixes)")
	shards := flag.Int("shards", 8, "independently locked shards, rounded up to a power of two (1 = memcached 1.4's global lock)")
	noEvict := flag.Bool("no-evict", false, "error instead of evicting (memcached -M)")
	maxConns := flag.Int("max-conns", 0, "max simultaneous connections (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close idle connections after this long (0 = never)")
	crawlEvery := flag.Duration("crawl-interval", 0, "background expiry sweep interval (0 = disabled)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus-text metrics over HTTP on this address (e.g. :9190)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/ and /debug/trace on the -metrics listener")
	flightCap := flag.Int("flight", 0, "flight-recorder ring capacity in events (0 = recording off)")
	flightEvery := flag.Int("flight-every", 64, "sample one op in every N per session (1 = trace every op)")
	peers := flag.String("peers", "", "comma-separated peer addresses; enables replica write fan-out (every node must pass the same list)")
	self := flag.String("self", "", "this node's address as peers dial it (default: -addr)")
	replicas := flag.Int("replicas", 2, "replica-set size R when -peers is set")
	replDefault := flag.String("repl-default", "async", "consistency for writes that don't pick one: async or quorum")
	quorumTimeout := flag.Duration("quorum-timeout", 2*time.Second, "how long a quorum write waits for replica acks")
	flag.Parse()

	limit, err := parseSize(*memory)
	if err != nil {
		log.Fatalf("kv3d-server: %v", err)
	}
	cfg := kvstore.DefaultConfig(limit)
	cfg.Shards = *shards
	cfg.EvictionsEnabled = !*noEvict

	store, err := kvstore.New(cfg)
	if err != nil {
		log.Fatalf("kv3d-server: %v", err)
	}
	rec := flightRecorder(*flightCap)
	srv := kvserver.NewWithOptions(store, log.New(os.Stderr, "", log.LstdFlags), kvserver.Options{
		MaxConns:    *maxConns,
		IdleTimeout: *idleTimeout,
		Flight:      rec,
		FlightEvery: *flightEvery,
	})
	if err := srv.Listen(*addr); err != nil {
		log.Fatalf("kv3d-server: %v", err)
	}
	if *peers != "" {
		selfAddr := *self
		if selfAddr == "" {
			selfAddr = srv.Addr().String()
		}
		// The member set is fixed for the server's life. Ring points are
		// sorted by hash and Add is idempotent, so every node handed the
		// same -peers list places keys alike, whatever the list's order
		// and whether it names this node too.
		ring := cluster.NewRing(0)
		ring.Add(selfAddr)
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				ring.Add(p)
			}
		}
		mode, ok := protocol.ParseReplMode(*replDefault)
		if !ok || (mode != protocol.ReplAsync && mode != protocol.ReplQuorum) {
			log.Fatalf("kv3d-server: -repl-default must be async or quorum, got %q", *replDefault)
		}
		repl, err := kvserver.NewReplicator(kvserver.ReplOptions{
			Self:          selfAddr,
			Ring:          ring,
			Replicas:      *replicas,
			DefaultMode:   mode,
			QuorumTimeout: *quorumTimeout,
			Flight:        rec,
			Clock:         store.Clock(),
			Dial: func(addr string) (kvserver.ReplConn, error) {
				rc, err := kvclient.DialReplica(addr, *quorumTimeout)
				if err != nil {
					return nil, err
				}
				return rc, nil
			},
		})
		if err != nil {
			log.Fatalf("kv3d-server: %v", err)
		}
		defer repl.Close()
		srv.SetReplicator(repl)
		log.Printf("kv3d-server: replication on as %s (R=%d, default %s, %d members)",
			selfAddr, *replicas, mode, ring.Len())
	}
	if *crawlEvery > 0 {
		crawler := store.StartCrawler(*crawlEvery)
		defer crawler.Stop()
	}
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("kv3d-server: metrics: %v", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		if *pprofOn {
			mux.Handle("/debug/", srv.DebugMux())
			log.Printf("kv3d-server: pprof on http://%s/debug/pprof/, trace dump on /debug/trace", mln.Addr())
		}
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				log.Printf("kv3d-server: metrics server: %v", err)
			}
		}()
		defer mln.Close()
		log.Printf("kv3d-server: metrics on http://%s/metrics", mln.Addr())
	} else if *pprofOn {
		log.Fatalf("kv3d-server: -pprof requires -metrics (the debug mux mounts on the metrics listener)")
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		<-sig
		log.Printf("kv3d-server: shutting down")
		srv.Close()
		close(closed)
	}()
	// Logged after the handler is in place: from this line on, SIGTERM
	// closes the server instead of killing it.
	log.Printf("kv3d-server: listening on %s (%s, %d shards)",
		srv.Addr(), *memory, store.Config().Shards)
	if err := srv.Serve(); err != nil {
		log.Fatalf("kv3d-server: %v", err)
	}
	// Serve returns once Close has closed the listener; Close is still
	// closing connections and joining their handlers. The final line
	// waits for it, so nothing the handlers log can follow it.
	<-closed
	s := store.Stats()
	log.Printf("kv3d-server: served %d conns, %d gets (%.1f%% hit), %d sets, %d evictions",
		srv.Accepted(), s.GetHits+s.GetMisses, s.HitRate()*100, s.Sets, s.Evictions)
}
