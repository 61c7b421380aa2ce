// Command benchmark is the repository's benchmark: it builds
// cmd/kv3d-server, runs it as a child process with the flags a user gets
// by default, drives it over one connection per CPU in a closed loop,
// checks every returned value, and prints the end-to-end metrics named
// in BENCHMARK.json. With -trace 1 it also replays a prefix of the same
// op stream through each layer in-process and prints the per-layer
// metrics. README.md says why the workloads and metrics are what they
// are.
//
//	go run ./benchmark -workload rtt_get -seed 1 -seconds 12 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kv3d/internal/kvclient"
)

const (
	// setUps is how often an end-to-end run sets up: setup_s is the
	// median, and the last set-up is the one measured.
	setUps = 3
	// nSlices cuts the timed window; rates and latency percentiles are
	// taken per slice and the median slice reported, which a burst of
	// interference from outside the run cannot move.
	nSlices = 10
	// tracePath receives the spans of a traced run, per workload.
	tracePath = "benchmark/out/trace.%s.json"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(specNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 12, "length of the timed window")
	trace := fs.Int("trace", 0, "1 also runs the layer ladder and prints the per-layer metrics instead")
	check := fs.Bool("check", false, "compare BENCHMARK.json with this program's workloads and metrics, and exit")
	serverFlags := fs.String("server-flags", "", "extra kv3d-server flags, for exploratory runs; the result is not comparable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check {
		return checkManifest("BENCHMARK.json")
	}
	s := findSpec(*name)
	if s == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(specNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := buildServer(ctx)
	if err != nil {
		return err
	}
	m := &measurement{
		spec: s, seed: *seed, traced: *trace == 1,
		window:      time.Duration(*seconds) * time.Second,
		warmup:      min(2*time.Second, time.Duration(*seconds)*time.Second/2),
		conns:       runtime.NumCPU(),
		serverBin:   bin,
		serverFlags: strings.Fields(*serverFlags),
	}
	if err := m.run(ctx); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return m.report(stdout)
}

func specNames() []string {
	var out []string
	for i := range specs {
		out = append(out, specs[i].name)
	}
	return out
}

// session is one set-up: a running server, preloaded, with its inputs
// generated and every connection dialled.
type session struct {
	srv     *child
	d       *data
	workers []*worker
	ctl     *kvclient.Client // reads the server's stats
	took    time.Duration
}

func (m *measurement) setUp(ctx context.Context) (_ *session, err error) {
	start := time.Now()
	s := m.spec
	args := append([]string{"-addr", "127.0.0.1:0", "-memory", strconv.Itoa(s.memoryMiB) + "m"}, m.serverFlags...)
	srv, err := startChild(ctx, m.serverBin, args)
	if err != nil {
		return nil, err
	}
	ses := &session{srv: srv}
	defer func() {
		if err != nil {
			ses.close()
		}
	}()
	calls := max(s.traceOps/s.burst, int(float64(s.callsPerSec)*(m.warmup+m.window).Seconds()))
	if ses.d, err = buildData(s, m.seed, m.conns, calls); err != nil {
		return nil, err
	}
	if err := preload(srv.addr, ses.d, m.conns); err != nil {
		return nil, fmt.Errorf("preload: %w\n%s", err, srv.stderrTail())
	}
	if ses.ctl, err = kvclient.Dial(srv.addr); err != nil {
		return nil, err
	}
	for c := range ses.d.streams {
		cl, err := dialClient(s, srv.addr)
		if err != nil {
			return nil, err
		}
		ses.workers = append(ses.workers, newWorker(ses.d, &ses.d.streams[c], cl))
	}
	if s.fits {
		st, err := ses.stats()
		if err != nil {
			return nil, err
		}
		if st["curr_items"] != int64(s.keys) {
			return nil, fmt.Errorf("server holds %d items after preloading %d keys that should fit", st["curr_items"], s.keys)
		}
	}
	ses.took = time.Since(start)
	return ses, nil
}

// close ends the session and returns once the server process is gone.
// A second call does nothing.
func (ses *session) close() {
	for _, w := range ses.workers {
		w.c.Close()
	}
	if ses.ctl != nil {
		ses.ctl.Close()
	}
	ses.workers, ses.ctl = nil, nil
	ses.srv.stop()
}

// stats reads the integer counters of the server's stats command.
func (ses *session) stats() (map[string]int64, error) {
	raw, err := ses.ctl.Stats()
	if err != nil && !ses.srv.alive() {
		return nil, fmt.Errorf("server exited early:\n%s", ses.srv.stderrTail())
	}
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, nil
}

// snapshot is the server's counters and both processes' usage at one
// moment, taken while every connection is idle.
type snapshot struct {
	stats     map[string]int64
	srv, self procUsage
}

func (ses *session) snapshot() (sn snapshot, err error) {
	if sn.stats, err = ses.stats(); err != nil {
		return sn, err
	}
	if sn.srv, err = readUsage(strconv.Itoa(ses.srv.cmd.Process.Pid)); err != nil {
		return sn, err
	}
	sn.self, err = readUsage("self")
	return sn, err
}

// measurement is one run of one workload and what it found.
type measurement struct {
	spec        *spec
	seed        uint64
	traced      bool
	window      time.Duration
	warmup      time.Duration
	conns       int
	serverBin   string
	serverFlags []string

	setups        []float64 // seconds, one per set-up
	win           *window
	before, after snapshot
	session       tally // every call after preload, all workers
	values        map[string]float64
}

func (m *measurement) run(ctx context.Context) error {
	// The traced run reports no setup_s, so it sets up once.
	n := setUps
	if m.traced {
		n = 1
	}
	var ses *session
	for i := 0; i < n; i++ {
		if ses != nil {
			ses.close()
		}
		var err error
		if ses, err = m.setUp(ctx); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, ses.took.Seconds())
	}
	defer ses.close()

	runPhase(ses.workers, m.warmup, 0, 0)
	var err error
	if m.before, err = ses.snapshot(); err != nil {
		return err
	}
	m.win = runPhase(ses.workers, m.window, nSlices, int(float64(m.spec.callsPerSec)*m.window.Seconds()))
	if m.after, err = ses.snapshot(); err != nil {
		return err
	}
	wraps := 0
	for _, w := range ses.workers {
		m.session.add(w.tally)
		wraps += w.wraps
	}
	if wraps > 0 {
		logf("op streams wrapped %d times: this machine outruns spec.callsPerSec", wraps)
	}
	lad := newLadder(ses.d)
	if m.traced {
		// The e2e1 rung: connection 0 replays its stream's prefix alone,
		// against the child as the window left it, warm like a server in use.
		w := newWorker(ses.d, &ses.d.streams[0], ses.workers[0].c)
		if err := lad.drive("e2e1", w); err != nil {
			return err
		}
		m.session.add(w.tally)
	}

	// What makes the run itself wrong ends it; what an op got wrong is
	// counted in failed.
	final, err := ses.stats()
	if err != nil {
		return err
	}
	if hits, misses := final["get_hits"], final["get_misses"]; hits != m.session.hits || misses != m.session.misses {
		return fmt.Errorf("server counted %d hits and %d misses, the clients %d and %d",
			hits, misses, m.session.hits, m.session.misses)
	}
	if m.spec.fits && m.session.misses > 0 {
		return fmt.Errorf("%d misses on a workload that fits", m.session.misses)
	}
	ses.close() // the in-process rungs get the CPUs to themselves

	m.values = m.endToEnd()
	if m.traced {
		if err := lad.inProcess(); err != nil {
			return err
		}
		spans := lad.spans()
		path := fmt.Sprintf(tracePath, m.spec.name)
		if err := writeTrace(path, m.spec.name, m.seed, spans); err != nil {
			return err
		}
		logf("wrote %d spans to %s", len(spans), path)
		for k, v := range lad.metrics(spans) {
			m.values[k] = v
		}
		for k, v := range m.liveLayers() {
			m.values[k] = v
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch n := len(s); {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sliceRates turns per-slice counts into per-second rates.
func (m *measurement) sliceRates(counts []int64) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / m.win.sliceDur.Seconds()
	}
	return out
}

// slicePercentiles returns the p-th latency percentile, in µs, of each
// slice in which a call ended.
func (m *measurement) slicePercentiles(p float64) []float64 {
	var out []float64
	for _, l := range m.win.lat {
		if len(l) > 0 {
			out = append(out, float64(percentile(l, p))/1e3)
		}
	}
	return out
}

// endToEnd computes what a user of the server sees in the timed window.
func (m *measurement) endToEnd() map[string]float64 {
	t := m.win.total
	cpuUs := (m.after.srv.userUs + m.after.srv.sysUs) - (m.before.srv.userUs + m.before.srv.sysUs)
	return map[string]float64{
		"setup_s":              median(m.setups),
		"ops_per_sec":          median(m.sliceRates(m.win.keys)),
		"goodput_mib_per_sec":  median(m.sliceRates(m.win.bytes)) / (1 << 20),
		"p50_us":               median(m.slicePercentiles(50)),
		"hit_ratio":            float64(t.hits) / float64(t.hits+t.misses),
		"server_cpu_us_per_op": float64(cpuUs) / float64(t.keys),
		"server_peak_rss_mib":  float64(m.after.srv.peakRSSKiB) / 1024,
	}
}

// liveLayers computes the per-layer metrics read from outside the child
// over the timed window: its stats command and /proc.
func (m *measurement) liveLayers() map[string]float64 {
	a, b := m.before, m.after
	d := func(name string) float64 { return float64(b.stats[name] - a.stats[name]) }
	keys := float64(m.win.total.keys)
	evictionsPerSet := 0.0 // a read-only workload sets nothing
	if d("cmd_set") > 0 {
		evictionsPerSet = d("evictions") / d("cmd_set")
	}
	q1, q2, q3 := quartiles(m.sliceRates(m.win.keys))
	return map[string]float64{
		"kvstore.hit_ratio":            d("get_hits") / (d("get_hits") + d("get_misses")),
		"kvstore.evictions_per_set":    evictionsPerSet,
		"kvstore.bytes_per_item":       float64(b.stats["bytes"]) / float64(b.stats["curr_items"]),
		"kvstore.items_per_mib":        float64(b.stats["curr_items"]) / (float64(b.stats["limit_maxbytes"]) / (1 << 20)),
		"kvserver.user_us_per_op":      float64(b.srv.userUs-a.srv.userUs) / keys,
		"kvserver.sys_us_per_op":       float64(b.srv.sysUs-a.srv.sysUs) / keys,
		"kvserver.ctx_switches_per_op": float64(b.srv.ctxSwitches-a.srv.ctxSwitches) / keys,
		"kvclient.cpu_us_per_op":       float64((b.self.userUs+b.self.sysUs)-(a.self.userUs+a.self.sysUs)) / keys,
		"loadgen.p99_us":               median(m.slicePercentiles(99)),
		"loadgen.slice_spread":         (q3 - q1) / q2,
	}
}

// report prints every metric by name with its unit, then the result line.
func (m *measurement) report(stdout io.Writer) error {
	t := m.win.total
	q1, q2, q3 := quartiles(m.sliceRates(m.win.keys))
	lat := m.win.allLat()
	top := highestPercentile(len(lat))
	fmt.Fprintf(stdout, "workload %s seed %d window %v warm-up %v conns %d comparable %v\n",
		m.spec.name, m.seed, m.window, m.warmup, m.conns, len(m.serverFlags) == 0)
	fmt.Fprintf(stdout, "  set-ups %.3f s; slice ops/s %.0f, quartiles %.0f %.0f %.0f\n",
		m.setups, m.sliceRates(m.win.keys), q1, q2, q3)
	fmt.Fprintf(stdout, "  %d latency samples (%d dropped); of all of them p50 %.1f us, p99 %.1f us, p%v %.1f us\n",
		len(lat), m.win.dropped, float64(percentile(lat, 50))/1e3, float64(percentile(lat, 99))/1e3, top, float64(percentile(lat, top))/1e3)
	fmt.Fprintf(stdout, "  window: %d keys in %d calls, %d hits, %d misses, %d sets, %d failed, %d wrong values\n",
		t.keys, t.calls, t.hits, t.misses, t.sets, t.failed, t.mismatched)

	// Failures are counted over everything after preload, warm-up too.
	res := result{
		Correct:   m.session.mismatched == 0,
		Attempted: m.session.keys,
		Failed:    m.session.failed + m.session.mismatched,
		Metrics:   make(map[string]metricValue),
	}
	fmt.Fprintf(stdout, "  fail_ratio %g (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	defs := endToEnd
	if m.traced {
		fmt.Fprintln(stdout, "  end to end, with the traced run's one set-up (not comparable):")
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "    %-28s %14.4f %s\n", d.name, m.values[d.name], d.unit)
		}
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		fmt.Fprintf(stdout, "  %-30s %14.4f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checkManifest fails when BENCHMARK.json and this program's registry
// name different workloads or metrics, or disagree on a unit or direction.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit, Better string }
	var mf struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var want []entry
	for _, n := range specNames() {
		want = append(want, entry{Name: n})
	}
	var errs []error
	compare := func(section string, file []entry, prog []entry) {
		have := make(map[string]entry, len(file))
		for _, e := range file {
			have[e.Name] = e
		}
		for _, p := range prog {
			f, ok := have[p.Name]
			switch {
			case !ok:
				errs = append(errs, fmt.Errorf("%s: the program has %q, %s does not", section, p.Name, path))
			case f != p:
				errs = append(errs, fmt.Errorf("%s %q: the program says %v, %s says %v", section, p.Name, p, path, f))
			}
			delete(have, p.Name)
		}
		for n := range have {
			errs = append(errs, fmt.Errorf("%s: %s has %q, the program does not", section, path, n))
		}
	}
	asEntries := func(defs []metricDef) []entry {
		out := make([]entry, len(defs))
		for i, d := range defs {
			out[i] = entry{d.name, d.unit, d.better}
		}
		return out
	}
	compare("workloads", mf.Workloads, want)
	compare("end_to_end", mf.EndToEnd, asEntries(endToEnd))
	compare("per_layer", mf.PerLayer, asEntries(perLayer))
	return errors.Join(errs...)
}
