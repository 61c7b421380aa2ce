package cluster

// Membership is the server-side cluster story the client-side Ring
// alone cannot carry: a *versioned* view of who is in the cluster. Every
// join or leave bumps a monotonically increasing version and yields a
// Delta describing exactly what changed, so replicators, migrators, and
// chaos harnesses can react to membership transitions instead of
// re-diffing node lists. Each member also carries an ownership epoch —
// the version at which it last joined — which is what "the key ranges
// this node owns are current as of epoch E" means during handoff: two
// nodes agree on key placement exactly when their views agree on
// (version, member set, epochs).
//
// Like the Ring it wraps, Membership is deterministic and goroutine-free,
// so it stays importable from the simulation closure.

import (
	"sort"
	"sync"
)

// Delta is one membership transition: the version it produced and the
// nodes that joined or left in it. Exactly one of Joined/Left is
// non-empty for deltas produced by Join/Leave.
type Delta struct {
	// Version is the membership version after the transition.
	Version uint64
	// Joined lists nodes added in this transition.
	Joined []string
	// Left lists nodes removed in this transition.
	Left []string
}

// View is an immutable snapshot of the membership at one version.
type View struct {
	// Version is the membership version of the snapshot.
	Version uint64
	// Nodes is the member set, sorted, so two equal views render
	// identically.
	Nodes []string
	// Epochs maps each member to the version at which it last joined —
	// its ownership epoch. A node that rejoins gets a fresh epoch, so
	// stale pre-departure placement decisions are distinguishable from
	// post-rejoin ones.
	Epochs map[string]uint64
}

// Equal reports whether two views describe the same membership state:
// same version, same members, same ownership epochs.
func (v View) Equal(o View) bool {
	if v.Version != o.Version || len(v.Nodes) != len(o.Nodes) {
		return false
	}
	for i, n := range v.Nodes {
		if o.Nodes[i] != n {
			return false
		}
		if v.Epochs[n] != o.Epochs[n] {
			return false
		}
	}
	return true
}

// Membership is a versioned member set over a consistent-hash ring.
// It is safe for concurrent use.
type Membership struct {
	mu      sync.Mutex
	ring    *Ring
	version uint64            // guarded by mu
	epochs  map[string]uint64 // guarded by mu
	weights map[string]int    // guarded by mu
}

// NewMembership builds an empty membership whose ring uses the given
// virtual-node count per weight unit (<= 0 selects DefaultVirtualNodes).
func NewMembership(virtualNodes int) *Membership {
	return &Membership{
		ring:    NewRing(virtualNodes),
		epochs:  make(map[string]uint64),
		weights: make(map[string]int),
	}
}

// Ring exposes the underlying ring for read-side placement (Locate,
// LocateN). Mutations must go through Join/Leave so versioning holds.
func (m *Membership) Ring() *Ring { return m.ring } // ring is set once in NewMembership and never reassigned; the Ring locks itself

// Join adds a node with the given capacity weight (<= 0 means 1) and
// returns the resulting delta. Joining an existing member is a no-op
// and returns the current version with no changes.
func (m *Membership) Join(node string, weight int) Delta {
	if weight < 1 {
		weight = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.epochs[node]; ok {
		return Delta{Version: m.version}
	}
	m.version++
	m.epochs[node] = m.version
	m.weights[node] = weight
	d := Delta{Version: m.version, Joined: []string{node}}
	m.ring.AddWeighted(node, weight)
	return d
}

// Leave removes a node and returns the resulting delta. Removing a
// non-member is a no-op and returns the current version with no
// changes.
func (m *Membership) Leave(node string) Delta {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.epochs[node]; !ok {
		return Delta{Version: m.version}
	}
	m.version++
	delete(m.epochs, node)
	delete(m.weights, node)
	d := Delta{Version: m.version, Left: []string{node}}
	m.ring.Remove(node)
	return d
}

// Version reports the current membership version.
func (m *Membership) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// View snapshots the current membership. The returned view does not
// alias internal state.
func (m *Membership) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := View{
		Version: m.version,
		Nodes:   make([]string, 0, len(m.epochs)),
		Epochs:  make(map[string]uint64, len(m.epochs)),
	}
	for n, e := range m.epochs {
		v.Nodes = append(v.Nodes, n)
		v.Epochs[n] = e
	}
	sort.Strings(v.Nodes)
	return v
}

// Contains reports whether node is a current member.
func (m *Membership) Contains(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.epochs[node]
	return ok
}

// Len reports the member count.
func (m *Membership) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.epochs)
}

// LocateN returns up to n distinct owners for key in preference order,
// delegating to the ring.
func (m *Membership) LocateN(key string, n int) ([]string, error) {
	return m.ring.LocateN(key, n) // ring is set once in NewMembership and never reassigned; the Ring locks itself
}
