// Package cluster provides the consistent-hash ring used to spread a
// key-value store across many nodes (paper §3.8): each physical node is
// assigned many virtual points on a circle, a key maps to the first node
// point at or after its hash, and adding/removing nodes only remaps the
// arcs adjacent to the change. Mercury/Iridium servers expose each stack
// as an independent node, so the ring is how a 96-stack box joins a
// memcached cluster.
package cluster

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-node point count. More points mean a
// more uniform key distribution; 160 matches common memcached clients
// (libketama uses 160 points per server).
const DefaultVirtualNodes = 160

// ErrEmpty is returned when looking up a key on a ring with no nodes.
var ErrEmpty = errors.New("cluster: ring has no nodes")

type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring. It is safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	points []point // guarded by mu
	// nodes maps a node to its virtual point count.
	nodes    map[string]int // guarded by mu
	replicas int
}

// NewRing builds a ring with the given virtual-node count per node
// (<= 0 selects DefaultVirtualNodes).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultVirtualNodes
	}
	return &Ring{nodes: make(map[string]int), replicas: replicas}
}

// hash64 is FNV-1a followed by a murmur3 avalanche finalizer. Plain FNV
// leaves sequential suffixes ("node#0", "node#1", ...) correlated, which
// skews arc sizes badly; the finalizer restores uniform point placement.
func hash64(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	// fmix64 from MurmurHash3.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	r.AddWeighted(node, 1)
}

// AddWeighted inserts a node with a capacity weight: a node of weight 2
// receives twice the points (and so roughly twice the keys) of weight 1.
func (r *Ring) AddWeighted(node string, weight int) {
	if weight < 1 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	n := r.replicas * weight
	r.nodes[node] = n
	name := append([]byte(node), '#') // each virtual node's name, "node#i", built in place
	for i := 0; i < n; i++ {
		name = strconv.AppendInt(name[:len(node)+1], int64(i), 10)
		r.points = append(r.points, point{hash: hash64(string(name)), node: node})
	}
	slices.SortFunc(r.points, func(a, b point) int { return cmp.Compare(a.hash, b.hash) })
}

// Remove deletes a node and its points (idempotent).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Nodes returns the current node names (unordered).
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	return out
}

// Len reports the number of nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Locate returns the node owning key.
func (r *Ring) Locate(key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", ErrEmpty
	}
	return r.points[r.search(hash64(key))].node, nil
}

// LocateN returns up to n distinct nodes for key, in preference order;
// used for replication.
func (r *Ring) LocateN(key string, n int) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil, ErrEmpty
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	idx := r.search(hash64(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out, nil
}

// search finds the first point with hash >= h, wrapping at the top.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
