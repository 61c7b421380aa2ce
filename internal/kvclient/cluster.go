package kvclient

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/cluster"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

// ClusterClient routes memcached operations across many servers with a
// consistent-hash ring — the client-side view of a Mercury deployment,
// where every stack is an independent node (§3.8). Writes optionally
// replicate to R nodes; reads fall through replicas on miss or node
// failure.
//
// On top of routing it carries the resilience layer: per-operation
// retries with exponential backoff and full jitter, and a per-node
// circuit breaker — a node that fails EjectAfter consecutive transport
// operations is removed from the ring, then re-admitted on probation
// after Probation elapses (one more failure re-ejects it immediately).
// Both the backoff's randomness and its clock are injectable, so the
// chaos suite runs the whole layer deterministically.
//
// ClusterClient is safe for concurrent use: each node's connection is
// serialized by its own mutex, so goroutines contend only when they
// target the same node.
type ClusterClient struct {
	ring     *cluster.Ring
	replicas int

	maxRetries int
	baseDelay  time.Duration
	maxDelay   time.Duration
	ejectAfter int
	probation  time.Duration
	fanout     int
	readRepair bool

	clock  clock.Clock
	jitter func() float64
	probes *obs.Registry
	// flight is nil unless ClusterConfig.Flight was set; every method on
	// it is nil-safe, so call sites stay unconditional.
	flight *clientFlight

	// mu guards nodes' membership and health fields (fails, ejected,
	// retryAt) plus the jitter rng; each nodeState.mu guards only that
	// node's connection. Never acquire a nodeState.mu while holding mu.
	mu    sync.Mutex
	nodes map[string]*nodeState //kv3d:guardedby mu
	rng   *sim.Rand             //kv3d:guardedby mu
	dial  func(addr string) (NodeConn, error)
}

// NodeConn is the per-node connection surface ClusterClient drives,
// satisfied by both the ASCII Client and the BinaryClient (selected by
// ClusterConfig.Binary).
type NodeConn interface {
	Get(key string) (Item, error)
	GetMulti(keys []string) (map[string]Item, error)
	Set(key string, value []byte, flags uint32, exptime int64) error
	Delete(key string) error
	Close() error
}

// nodeState is one node's connection and circuit-breaker health.
type nodeState struct {
	// mu serializes protocol operations on the node's single connection
	// (neither client type is safe for concurrent use).
	mu   sync.Mutex
	conn NodeConn //kv3d:guardedby mu

	// Health fields below are guarded by ClusterClient.mu, not mu.
	fails   int    //kv3d:guardedby ClusterClient.mu
	ejected bool   //kv3d:guardedby ClusterClient.mu
	retryAt sim.Ns //kv3d:guardedby ClusterClient.mu
}

// ClusterConfig configures a ClusterClient.
type ClusterConfig struct {
	// Addrs are the initial node addresses.
	Addrs []string
	// Replicas is how many nodes store each key (default 1).
	Replicas int
	// VirtualNodes per server on the ring (default 160).
	VirtualNodes int
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// OpTimeout bounds each protocol operation on a node (see
	// Options.OpTimeout). Zero disables per-op deadlines.
	OpTimeout time.Duration

	// MaxRetries is how many times a failed operation is retried after
	// its first attempt (default 3; negative disables retries).
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (default 2ms). The
	// attempt-n ceiling is RetryBaseDelay << n, capped at RetryMaxDelay,
	// and the actual sleep is uniform in [0, ceiling) — "full jitter",
	// which decorrelates clients hammering a recovering node.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps a single backoff sleep (default 250ms).
	RetryMaxDelay time.Duration

	// EjectAfter is the consecutive-transport-failure threshold at which
	// a node is removed from the ring (default 3; negative disables
	// ejection).
	EjectAfter int
	// Probation is how long an ejected node stays out before being
	// re-admitted on probation (default 1s).
	Probation time.Duration

	// Seed drives the backoff jitter (default 1). Two clients with
	// different seeds jitter differently; the same seed replays the
	// same backoff sequence.
	Seed uint64
	// Clock runs the backoff sleeps and the probation, and stamps the
	// flight recording (default clock.Wall). On a clock.Fake a backoff
	// advances the fake instead of waiting, so a test reads the schedule
	// off the fake's timeline.
	Clock clock.Clock
	// Jitter replaces the backoff jitter draw, which must return values
	// in [0, 1). Default: a seeded deterministic generator.
	Jitter func() float64
	// MultigetFanout bounds how many per-node multigets GetMulti has in
	// flight at once (default 4). Each node's connection is serialized
	// anyway, so the bound only limits cross-node parallelism.
	MultigetFanout int

	// ReadRepair makes Get read every replica instead of stopping at the
	// first hit: the lowest-ranked replica that answered is authoritative,
	// and replicas that answered with a miss or a divergent value are
	// rewritten with the authoritative item before Get returns (counted in
	// kvclient.read_repairs). Costs R reads per Get; only meaningful with
	// Replicas > 1.
	ReadRepair bool

	// Probes optionally receives kvclient.* counters (retries,
	// transport_errors, busy, ejections, readmissions, failovers,
	// read_repairs, quorum_failures).
	Probes *obs.Registry

	// Binary selects the memcached binary protocol for node connections.
	// With flight recording on, each attempt then stamps its correlation
	// id into the request opaque, which the server echoes — the seam that
	// lets merged traces join client and server spans.
	Binary bool
	// Flight optionally records client-side op spans and resilience
	// events (retry, backoff, failover, breaker transitions) into the
	// given ring.
	Flight *obs.FlightRecorder
}

// ErrNoNodes is returned when the ring is empty.
var ErrNoNodes = errors.New("kvclient: cluster has no nodes")

// NewCluster builds a cluster client. Connections are dialed lazily.
func NewCluster(cfg ClusterConfig) (*ClusterClient, error) {
	if len(cfg.Addrs) == 0 {
		return nil, ErrNoNodes
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 2 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 250 * time.Millisecond
	}
	if cfg.EjectAfter == 0 {
		cfg.EjectAfter = 3
	}
	if cfg.Probation <= 0 {
		cfg.Probation = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MultigetFanout <= 0 {
		cfg.MultigetFanout = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	opts := Options{DialTimeout: cfg.DialTimeout, OpTimeout: cfg.OpTimeout}
	c := &ClusterClient{
		ring:       cluster.NewRing(cfg.VirtualNodes),
		replicas:   cfg.Replicas,
		maxRetries: cfg.MaxRetries,
		baseDelay:  cfg.RetryBaseDelay,
		maxDelay:   cfg.RetryMaxDelay,
		ejectAfter: cfg.EjectAfter,
		probation:  cfg.Probation,
		fanout:     cfg.MultigetFanout,
		readRepair: cfg.ReadRepair,
		clock:      cfg.Clock,
		jitter:     cfg.Jitter,
		probes:     cfg.Probes,
		flight:     newClientFlight(cfg.Flight, cfg.Clock),
		nodes:      make(map[string]*nodeState),
		rng:        sim.NewRand(cfg.Seed),
		dial: func(addr string) (NodeConn, error) {
			if cfg.Binary {
				return DialBinaryOptions(addr, opts)
			}
			return DialOptions(addr, opts)
		},
	}
	if c.jitter == nil {
		c.jitter = c.seededJitter
	}
	if c.probes != nil {
		// Pre-register every counter so a healthy run still exports the
		// full kvclient.* series at zero (probes dumps stay schema-stable).
		for _, name := range []string{
			"kvclient.retries", "kvclient.transport_errors", "kvclient.busy",
			"kvclient.ejections", "kvclient.readmissions", "kvclient.failovers",
			"kvclient.read_repairs", "kvclient.quorum_failures",
		} {
			c.probes.Counter(name)
		}
	}
	for _, a := range cfg.Addrs {
		c.ring.Add(a)
		c.nodes[a] = &nodeState{}
	}
	return c, nil
}

// seededJitter draws from the client's deterministic rng (guarded by mu
// — concurrent goroutines interleave draws, but every value still comes
// from the seeded sequence).
func (c *ClusterClient) seededJitter() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

func (c *ClusterClient) count(name string) {
	if c.probes != nil {
		c.probes.Counter(name).Add(1)
	}
}

func (c *ClusterClient) countN(name string, n int) {
	if c.probes != nil && n > 0 {
		c.probes.Counter(name).Add(int64(n))
	}
}

// AddNode inserts a server into the ring (idempotent).
func (c *ClusterClient) AddNode(addr string) {
	c.mu.Lock()
	if _, ok := c.nodes[addr]; !ok {
		c.nodes[addr] = &nodeState{}
	}
	c.mu.Unlock()
	c.ring.Add(addr)
}

// RemoveNode drops a server from the ring and closes its connection.
func (c *ClusterClient) RemoveNode(addr string) {
	c.ring.Remove(addr)
	c.mu.Lock()
	ns := c.nodes[addr]
	delete(c.nodes, addr)
	c.mu.Unlock()
	if ns != nil {
		ns.mu.Lock()
		if ns.conn != nil {
			ns.conn.Close() // teardown of a node being removed; the op path reports live errors
			ns.conn = nil
		}
		ns.mu.Unlock()
	}
}

// Nodes lists the current ring members.
func (c *ClusterClient) Nodes() []string { return c.ring.Nodes() }

// Owners reports key's current replica set in ring preference order
// (rank 0 is the primary). The answer is a snapshot: ejections and
// membership changes move keys, which is why the op paths re-resolve
// rather than cache it.
func (c *ClusterClient) Owners(key string) ([]string, error) { return c.ownersFor(key) }

// node returns the state for addr, creating it if the node was added
// behind our back.
func (c *ClusterClient) node(addr string) *nodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[addr]
	if !ok {
		ns = &nodeState{}
		c.nodes[addr] = ns
	}
	return ns
}

// opOnNode runs one protocol operation against addr under the node's
// connection lock, dialing lazily and dropping the connection on
// transport failure so the next operation re-dials.
func (c *ClusterClient) opOnNode(addr string, fn func(NodeConn) error) error {
	ns := c.node(addr)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.conn == nil {
		conn, err := c.dial(addr)
		if err != nil {
			return err
		}
		ns.conn = conn
	}
	err := fn(ns.conn)
	if err != nil && isTransport(err) {
		ns.conn.Close() // the transport error is the signal; the close of a broken conn is cleanup
		ns.conn = nil
	}
	return err
}

// observedOp runs one attempt against addr, recording a client-side
// flight span named by the server's op-class vocabulary. On binary
// connections the attempt's correlation id is stamped into the request
// opaque first, so the span correlates with the server-side phases.
func (c *ClusterClient) observedOp(addr, name string, fn func(NodeConn) error) error {
	if c.flight == nil {
		return c.opOnNode(addr, fn)
	}
	opaque := c.flight.nextOpaque()
	correlated := false
	start := c.clock.Now()
	err := c.opOnNode(addr, func(conn NodeConn) error {
		if bc, ok := conn.(*BinaryClient); ok {
			bc.SetNextOpaque(opaque)
			correlated = true
		}
		return fn(conn)
	})
	end := c.clock.Now()
	if !correlated {
		opaque = 0 // ASCII conn or failed dial: client-side span only
	}
	c.flight.attempt(name, flightOutcome(err), opaque, start, end)
	return err
}

// recordSuccess clears a node's failure streak.
func (c *ClusterClient) recordSuccess(addr string) {
	c.mu.Lock()
	if ns, ok := c.nodes[addr]; ok {
		ns.fails = 0
	}
	c.mu.Unlock()
}

// recordFailure notes a transport failure and ejects the node from the
// ring once the streak reaches the threshold.
func (c *ClusterClient) recordFailure(addr string) {
	c.count("kvclient.transport_errors")
	c.mu.Lock()
	ns, ok := c.nodes[addr]
	if !ok || c.ejectAfter <= 0 {
		c.mu.Unlock()
		return
	}
	ns.fails++
	eject := !ns.ejected && ns.fails >= c.ejectAfter
	if eject {
		ns.ejected = true
		ns.retryAt = c.clock.Now() + sim.Ns(c.probation)
	}
	c.mu.Unlock()
	if eject {
		c.ring.Remove(addr)
		c.count("kvclient.ejections")
		c.flight.instant("breaker.eject")
	}
}

// maybeReadmit returns expired-probation nodes to the ring. A
// re-admitted node is half-open: its streak restarts one failure below
// the threshold, so a single failed probe re-ejects it. If every node
// is ejected the breaker yields — all are re-admitted immediately,
// because guessing at a dead cluster beats refusing a live one.
func (c *ClusterClient) maybeReadmit() {
	now := c.clock.Now()
	var back []string
	c.mu.Lock()
	for addr, ns := range c.nodes {
		if ns.ejected && now > ns.retryAt {
			ns.ejected = false
			ns.fails = c.ejectAfter - 1
			back = append(back, addr)
		}
	}
	c.mu.Unlock()
	for _, addr := range back {
		c.ring.Add(addr)
		c.count("kvclient.readmissions")
		c.flight.instant("breaker.readmit")
	}
	if c.ring.Len() > 0 {
		return
	}
	// Empty ring: every node is ejected. Re-admit them all.
	var all []string
	c.mu.Lock()
	for addr, ns := range c.nodes {
		if ns.ejected {
			ns.ejected = false
			ns.fails = c.ejectAfter - 1
			all = append(all, addr)
		}
	}
	c.mu.Unlock()
	for _, addr := range all {
		c.ring.Add(addr)
		c.count("kvclient.readmissions")
		c.flight.instant("breaker.readmit")
	}
}

// retryable reports whether an error is worth another attempt: any
// transport failure, a busy refusal (the server sheds load but lives),
// or a momentarily empty ring.
func retryable(err error) bool {
	return isTransport(err) || errors.Is(err, ErrBusy) || errors.Is(err, ErrNoNodes)
}

// withRetry runs fn with exponential backoff and full jitter.
func (c *ClusterClient) withRetry(fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || !retryable(err) || attempt >= c.maxRetries {
			return err
		}
		ceiling := c.baseDelay << attempt
		if ceiling > c.maxDelay || ceiling <= 0 {
			ceiling = c.maxDelay
		}
		c.count("kvclient.retries")
		c.flight.instant("retry")
		d := time.Duration(c.jitter() * float64(ceiling))
		c.flight.backoff(d)
		c.clock.Sleep(d)
	}
}

// ownersFor returns the replica set for a key.
func (c *ClusterClient) ownersFor(key string) ([]string, error) {
	nodes, err := c.ring.LocateN(key, c.replicas)
	if err != nil {
		return nil, ErrNoNodes
	}
	return nodes, nil
}

// isTransport reports whether err is a connection-level failure (vs a
// protocol-level result like ErrNotFound).
func isTransport(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, ErrNotFound),
		errors.Is(err, ErrNotStored),
		errors.Is(err, ErrExists),
		errors.Is(err, ErrClient),
		errors.Is(err, ErrServer),
		errors.Is(err, ErrProtocol):
		return false
	}
	return true
}

// Get reads a key, trying each replica in preference order on miss or
// node failure, retrying with backoff if every replica failed.
func (c *ClusterClient) Get(key string) (Item, error) {
	var it Item
	err := c.withRetry(func() error {
		var err error
		it, err = c.getOnce(key)
		return err
	})
	return it, err
}

func (c *ClusterClient) getOnce(key string) (Item, error) {
	c.maybeReadmit()
	owners, err := c.ownersFor(key)
	if err != nil {
		return Item{}, err
	}
	if c.readRepair && len(owners) > 1 {
		return c.getRepair(key, owners)
	}
	lastErr := error(ErrNotFound)
	for i, addr := range owners {
		var it Item
		err := c.observedOp(addr, "get", func(conn NodeConn) error {
			var e error
			it, e = conn.Get(key)
			return e
		})
		if err == nil {
			c.recordSuccess(addr)
			if i > 0 {
				c.count("kvclient.failovers")
				c.flight.instant("failover")
			}
			return it, nil
		}
		if isTransport(err) {
			c.recordFailure(addr)
		} else if errors.Is(err, ErrBusy) {
			c.count("kvclient.busy")
		} else if !errors.Is(err, ErrNotFound) {
			return Item{}, err
		}
		lastErr = err
	}
	return Item{}, lastErr
}

// GetMulti fetches many keys in one scatter-gather pass: keys are
// partitioned by their ring placement, each involved node receives one
// pipelined multiget (bounded by MultigetFanout concurrent node
// operations), and the per-node answers merge into a single map.
//
// Failure semantics are partial: a key served by a healthy node but not
// present is simply absent from the result (as in Client.GetMulti); a
// node that fails its multiget — after the usual per-node retries and
// circuit-breaker accounting — hands its keys to the next replica rank,
// and only keys whose every replica failed surface as an error. The
// returned map is always valid: on error it holds whatever the healthy
// replicas answered, so callers can treat unreturned keys as misses and
// refetch from the backing store.
func (c *ClusterClient) GetMulti(keys []string) (map[string]Item, error) {
	// Normalize: duplicates collapse and empty keys drop, mirroring the
	// single-connection client, so result accounting below is per unique
	// key.
	unique := make([]string, 0, len(keys))
	seen := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup || k == "" {
			continue
		}
		seen[k] = struct{}{}
		unique = append(unique, k)
	}
	results := make(map[string]Item, len(unique))
	if len(unique) == 0 {
		return results, nil
	}

	// Each key's replica set is re-resolved at the start of every
	// failover round rather than frozen up front: an ejection during the
	// scatter reshuffles ring ranks, and a frozen list would keep
	// pointing a key at dead nodes while the live replica that actually
	// holds it — promoted to primary by the very ejection — is never
	// consulted. Per-key tried sets keep rounds from revisiting a node
	// that already failed or answered for that key, so the walk still
	// terminates even as the resolved lists shift underneath it.
	var (
		resMu   sync.Mutex // guards results
		nextMu  sync.Mutex // guards next and lastErr
		tried   = make(map[string]map[string]struct{}, len(unique))
		pending = unique
		dead    []string // keys with no untried replica left
		lastErr error
		round   int
	)
	for len(pending) > 0 {
		// Wait out an empty ring like any other transient failure
		// (readmission may refill it), then resolve this round's
		// placement.
		groups := make(map[string][]string)
		if err := c.withRetry(func() error {
			c.maybeReadmit()
			if c.ring.Len() == 0 {
				return ErrNoNodes
			}
			return nil
		}); err != nil {
			dead = append(dead, pending...)
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		var next []string
		for _, k := range pending {
			owners, err := c.ownersFor(k)
			if err != nil {
				// Ring emptied between the retry above and here; the key
				// is out of options this pass.
				dead = append(dead, k)
				if lastErr == nil {
					lastErr = err
				}
				continue
			}
			addr := ""
			for _, o := range owners {
				if _, done := tried[k][o]; !done {
					addr = o
					break
				}
			}
			if addr == "" {
				dead = append(dead, k)
				continue
			}
			if tried[k] == nil {
				tried[k] = make(map[string]struct{}, c.replicas)
			}
			tried[k][addr] = struct{}{}
			groups[addr] = append(groups[addr], k)
		}
		if len(groups) == 0 {
			break
		}
		sem := make(chan struct{}, c.fanout)
		var wg sync.WaitGroup
		for addr, group := range groups {
			wg.Add(1)
			go func(addr string, group []string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				var items map[string]Item
				err := c.withRetry(func() error {
					e := c.observedOp(addr, "get", func(conn NodeConn) error {
						var ge error
						items, ge = conn.GetMulti(group)
						return ge
					})
					if e == nil {
						c.recordSuccess(addr)
						return nil
					}
					if isTransport(e) {
						c.recordFailure(addr)
					} else if errors.Is(e, ErrBusy) {
						c.count("kvclient.busy")
					}
					return e
				})
				if err == nil {
					resMu.Lock()
					for k, it := range items {
						results[k] = it
					}
					resMu.Unlock()
					if round > 0 {
						c.countN("kvclient.failovers", len(group))
						c.flight.instant("failover")
					}
					return
				}
				nextMu.Lock()
				next = append(next, group...)
				lastErr = err
				nextMu.Unlock()
			}(addr, group)
		}
		wg.Wait()
		pending = next
		round++
	}
	if n := len(pending) + len(dead); n > 0 {
		if lastErr == nil {
			lastErr = ErrNoNodes
		}
		return results, fmt.Errorf("kvclient: multiget: %d of %d keys unreachable on every replica: %w",
			n, len(unique), lastErr)
	}
	return results, nil
}

// Set writes a key to all replicas; it succeeds if at least one replica
// stored the value and reports the first error otherwise, retrying with
// backoff if no replica stored it.
func (c *ClusterClient) Set(key string, value []byte, flags uint32, exptime int64) error {
	return c.withRetry(func() error {
		return c.setOnce(key, value, flags, exptime)
	})
}

func (c *ClusterClient) setOnce(key string, value []byte, flags uint32, exptime int64) error {
	c.maybeReadmit()
	owners, err := c.ownersFor(key)
	if err != nil {
		return err
	}
	stored := 0
	var firstErr error
	for _, addr := range owners {
		err := c.observedOp(addr, "store", func(conn NodeConn) error {
			return conn.Set(key, value, flags, exptime)
		})
		if err == nil {
			c.recordSuccess(addr)
			stored++
			continue
		}
		if isTransport(err) {
			c.recordFailure(addr)
		} else if errors.Is(err, ErrBusy) {
			c.count("kvclient.busy")
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if stored > 0 {
		return nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("kvclient: set %q stored on no replica", key)
	}
	return firstErr
}

// Delete removes a key from every replica; ErrNotFound only if no
// replica had it. Transport failures are retried with backoff.
func (c *ClusterClient) Delete(key string) error {
	return c.withRetry(func() error {
		return c.deleteOnce(key)
	})
}

func (c *ClusterClient) deleteOnce(key string) error {
	c.maybeReadmit()
	owners, err := c.ownersFor(key)
	if err != nil {
		return err
	}
	deleted := 0
	var firstErr error
	for _, addr := range owners {
		err := c.observedOp(addr, "delete", func(conn NodeConn) error {
			return conn.Delete(key)
		})
		switch {
		case err == nil:
			c.recordSuccess(addr)
			deleted++
		case errors.Is(err, ErrNotFound):
			c.recordSuccess(addr)
		default:
			if isTransport(err) {
				c.recordFailure(addr)
			} else if errors.Is(err, ErrBusy) {
				c.count("kvclient.busy")
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if deleted > 0 {
		return nil
	}
	if firstErr != nil {
		return firstErr
	}
	return ErrNotFound
}

// Close shuts every connection.
func (c *ClusterClient) Close() error {
	c.mu.Lock()
	states := make([]*nodeState, 0, len(c.nodes))
	for _, ns := range c.nodes {
		states = append(states, ns)
	}
	c.mu.Unlock()
	for _, ns := range states {
		ns.mu.Lock()
		if ns.conn != nil {
			ns.conn.Close() // shutdown: per-conn close errors on teardown carry no signal
			ns.conn = nil
		}
		ns.mu.Unlock()
	}
	return nil
}
