// Command kv3d-server runs a memcached-compatible TCP server backed by
// the kvstore engine.
//
//	kv3d-server -addr :11211 -memory 64m -policy lru -mode striped
//
// Any memcached ASCII client can talk to it:
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\n' | nc localhost 11211
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
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

// replAdapter bridges kvclient.BinaryClient to kvserver.ReplConn
// (kvserver cannot import kvclient itself); delete-of-absent folds to
// success per the ReplConn contract.
type replAdapter struct{ *kvclient.BinaryClient }

func (a replAdapter) DeleteWithMode(key string, mode protocol.ReplMode) error {
	err := a.BinaryClient.DeleteWithMode(key, mode)
	if errors.Is(err, kvclient.ErrNotFound) {
		return nil
	}
	return err
}

func (a replAdapter) TouchWithMode(key string, exptime int64, mode protocol.ReplMode) error {
	err := a.BinaryClient.TouchWithMode(key, exptime, mode)
	if errors.Is(err, kvclient.ErrNotFound) {
		return nil
	}
	return err
}

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

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "listen address")
	memory := flag.String("memory", "64m", "memory limit (supports k/m/g suffixes)")
	policy := flag.String("policy", "lru", "eviction policy: lru or bags")
	mode := flag.String("mode", "striped", "locking: global (memcached 1.4) or striped (1.6)")
	shards := flag.Int("shards", 8, "shard count for striped mode")
	noEvict := flag.Bool("no-evict", false, "error instead of evicting (memcached -M)")
	maxConns := flag.Int("max-conns", 0, "max simultaneous connections (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close idle connections after this long (0 = never)")
	crawlEvery := flag.Duration("crawl-interval", 0, "background expiry sweep interval (0 = disabled)")
	udpAddr := flag.String("udp", "", "also serve the UDP protocol on this address (e.g. :11211)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus-text metrics over HTTP on this address (e.g. :9190)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/ and /debug/trace on the -metrics listener")
	flightCap := flag.Int("flight", 0, "flight-recorder ring capacity in events (0 = recording off)")
	flightEvery := flag.Int("flight-every", 64, "sample one op in every N per session (1 = trace every op)")
	telemetry := flag.Duration("telemetry", 0, "runtime telemetry sampling period exported via /metrics (0 = off)")
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
	switch *policy {
	case "lru":
		cfg.Policy = kvstore.PolicyLRU
	case "bags":
		cfg.Policy = kvstore.PolicyBags
	default:
		log.Fatalf("kv3d-server: unknown policy %q", *policy)
	}
	switch *mode {
	case "global":
		cfg.Mode = kvstore.ModeGlobal
	case "striped":
		cfg.Mode = kvstore.ModeStriped
	default:
		log.Fatalf("kv3d-server: unknown mode %q", *mode)
	}

	store, err := kvstore.New(cfg)
	if err != nil {
		log.Fatalf("kv3d-server: %v", err)
	}
	var rec *obs.FlightRecorder
	if *flightCap > 0 {
		rec = obs.NewFlightRecorder("kv3d-server", *flightCap)
	}
	srv := kvserver.NewWithOptions(store, log.New(os.Stderr, "", log.LstdFlags), kvserver.Options{
		MaxConns:    *maxConns,
		IdleTimeout: *idleTimeout,
		Flight:      rec,
		FlightEvery: *flightEvery,
	})
	if *telemetry > 0 {
		srv.StartTelemetry(*telemetry)
		log.Printf("kv3d-server: runtime telemetry every %v", *telemetry)
	}
	if err := srv.Listen(*addr); err != nil {
		log.Fatalf("kv3d-server: %v", err)
	}
	if *peers != "" {
		selfAddr := *self
		if selfAddr == "" {
			selfAddr = srv.Addr().String()
		}
		// Join the full member set (self included) in sorted order, so
		// every node that was handed the same -peers list derives the
		// same membership versions and ownership epochs.
		members := map[string]bool{selfAddr: true}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members[p] = true
			}
		}
		sorted := make([]string, 0, len(members))
		for m := range members {
			sorted = append(sorted, m)
		}
		sort.Strings(sorted)
		mem := cluster.NewMembership(0)
		for _, m := range sorted {
			mem.Join(m, 1)
		}
		mode, ok := protocol.ParseReplMode(*replDefault)
		if !ok || (mode != protocol.ReplAsync && mode != protocol.ReplQuorum) {
			log.Fatalf("kv3d-server: -repl-default must be async or quorum, got %q", *replDefault)
		}
		repl, err := kvserver.NewReplicator(kvserver.ReplOptions{
			Self:          selfAddr,
			Membership:    mem,
			Replicas:      *replicas,
			DefaultMode:   mode,
			QuorumTimeout: *quorumTimeout,
			Flight:        rec,
			NowNanos:      func() sim.Ns { return sim.Ns(time.Now().UnixNano()) },
			Dial: func(addr string) (kvserver.ReplConn, error) {
				bc, err := kvclient.DialBinaryOptions(addr, kvclient.Options{
					DialTimeout: *quorumTimeout, OpTimeout: *quorumTimeout,
				})
				if err != nil {
					return nil, err
				}
				return replAdapter{bc}, nil
			},
		})
		if err != nil {
			log.Fatalf("kv3d-server: %v", err)
		}
		defer repl.Close()
		mig, err := kvserver.NewMigrator(kvserver.MigOptions{Store: store})
		if err != nil {
			log.Fatalf("kv3d-server: %v", err)
		}
		defer mig.Close()
		srv.SetReplicator(repl)
		srv.SetMigrator(mig)
		log.Printf("kv3d-server: replication on as %s (R=%d, default %s, %d members)",
			selfAddr, *replicas, mode, len(sorted))
	}
	if *crawlEvery > 0 {
		crawler := store.StartCrawler(*crawlEvery)
		defer crawler.Stop()
	}
	if *udpAddr != "" {
		udp, err := srv.ListenUDP(*udpAddr)
		if err != nil {
			log.Fatalf("kv3d-server: udp: %v", err)
		}
		defer udp.Close()
		log.Printf("kv3d-server: udp on %s", udp.Addr())
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
	log.Printf("kv3d-server: listening on %s (%s, %s, %s, %d shards)",
		srv.Addr(), *memory, *policy, *mode, store.Config().Shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("kv3d-server: shutting down")
		srv.Close()
	}()
	if err := srv.Serve(); err != nil {
		log.Fatalf("kv3d-server: %v", err)
	}
	s := store.Stats()
	log.Printf("kv3d-server: served %d conns, %d gets (%.1f%% hit), %d sets, %d evictions",
		srv.Accepted(), s.GetHits+s.GetMisses, s.HitRate()*100, s.Sets, s.Evictions)
}
