package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func runQuick(t *testing.T, id string) Result {
	t.Helper()
	r, err := Run(id, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != id {
		t.Fatalf("result ID = %q, want %q", r.ID, id)
	}
	if len(r.Tables) == 0 {
		t.Fatal("experiment produced no tables")
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig4", "fig5", "fig6", "fig7", "fig8",
		"thermal", "eviction", "loadlatency", "multiget", "dramsim",
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("presentation order wrong at %d: %v", i, ids)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1(t *testing.T) {
	r := runQuick(t, "table1")
	out := r.Tables[0].String()
	for _, want := range []string{"A7@1GHz", "100 mW", "3D NAND", "220.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	r := runQuick(t, "table2")
	out := r.Tables[0].String()
	if !strings.Contains(out, "HMC I") || !strings.Contains(out, "Future Tezzaron") {
		t.Fatalf("table2 incomplete:\n%s", out)
	}
}

func TestTable3Quick(t *testing.T) {
	r := runQuick(t, "table3")
	if len(r.Tables) != 3 {
		t.Fatalf("table3 should have one table per core config, got %d", len(r.Tables))
	}
	out := r.Tables[2].String() // A7 panel
	if !strings.Contains(out, "Mercury-32") || !strings.Contains(out, "Iridium-32") {
		t.Fatalf("A7 panel incomplete:\n%s", out)
	}
}

func TestTable4QuickRatios(t *testing.T) {
	r := runQuick(t, "table4")
	if len(r.Tables) != 2 {
		t.Fatalf("table4 should ship the comparison and the ratio tables")
	}
	ratios := r.Tables[1].String()
	for _, want := range []string{"Density", "TPS/Watt", "TPS/GB", "(10x)", "(14x)"} {
		if !strings.Contains(ratios, want) {
			t.Errorf("ratio table missing %q:\n%s", want, ratios)
		}
	}
	comparison := r.Tables[0].String()
	for _, want := range []string{"Memcached 1.4", "Memcached Bags", "TSSP", "Mercury n=32"} {
		if !strings.Contains(comparison, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
}

// parseCell pulls the float at the given column of the row whose first
// cell equals name.
func parseCell(t *testing.T, tbl interface{ String() string }, rowPrefix string, col int) float64 {
	t.Helper()
	for _, line := range strings.Split(tbl.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) > col && strings.HasPrefix(line, rowPrefix) {
			v, err := strconv.ParseFloat(fields[col], 64)
			if err == nil {
				return v
			}
		}
	}
	t.Fatalf("row %q col %d not found in\n%s", rowPrefix, col, tbl.String())
	return 0
}

func TestFigure4Shape(t *testing.T) {
	r := runQuick(t, "fig4")
	if len(r.Tables) != 2 {
		t.Fatal("fig4 needs GET and PUT tables")
	}
	get := r.Tables[0]
	// 64B row: netstack ~87%, hash 2-3%.
	net := parseCell(t, get, "64 ", 3)
	if net < 80 || net > 92 {
		t.Fatalf("GET 64B netstack = %v%%, want ~87", net)
	}
	hash := parseCell(t, get, "64 ", 1)
	if hash < 1 || hash > 5 {
		t.Fatalf("GET 64B hash = %v%%, want 2-3", hash)
	}
	put := r.Tables[1]
	mc := parseCell(t, put, "64 ", 2)
	if mc < 12 || mc > 35 {
		t.Fatalf("PUT 64B memcached = %v%%, want ~20-30", mc)
	}
}

func TestFigure5Shape(t *testing.T) {
	r := runQuick(t, "fig5")
	if len(r.Tables) != 4 {
		t.Fatalf("fig5 needs 4 panels, got %d", len(r.Tables))
	}
	// Panel b: A15 no L2. Columns: Size, 10ns GET, 10ns PUT, 100ns GET, 100ns PUT.
	noL2 := r.Tables[1]
	fast := parseCell(t, noL2, "64 ", 1)
	slow := parseCell(t, noL2, "64 ", 3)
	if fast/slow < 1.8 {
		t.Fatalf("no-L2 panel must show strong latency sensitivity: %v vs %v", fast, slow)
	}
	// Panel a: with L2 the sensitivity is mild.
	withL2 := r.Tables[0]
	fastL2 := parseCell(t, withL2, "64 ", 1)
	slowL2 := parseCell(t, withL2, "64 ", 3)
	if fastL2/slowL2 > 1.3 {
		t.Fatalf("L2 panel should be mild: %v vs %v", fastL2, slowL2)
	}
}

func TestFigure6Shape(t *testing.T) {
	r := runQuick(t, "fig6")
	if len(r.Tables) != 4 {
		t.Fatalf("fig6 needs 4 panels, got %d", len(r.Tables))
	}
	// A15 with L2: thousands of TPS at 64B.
	withL2 := r.Tables[0]
	tps := parseCell(t, withL2, "64 ", 1)
	if tps < 2000 {
		t.Fatalf("Iridium A15+L2 = %v TPS, paper says several thousand", tps)
	}
	// No-L2 panels collapse below 100 TPS.
	noL2 := r.Tables[1]
	collapsed := parseCell(t, noL2, "64 ", 1)
	if collapsed >= 100 {
		t.Fatalf("Iridium no-L2 = %v TPS, paper says below 100", collapsed)
	}
	// PUTs stay under 1000 with L2.
	put := parseCell(t, withL2, "64 ", 2)
	if put >= 1100 {
		t.Fatalf("Iridium PUT = %v TPS, paper says under ~1000", put)
	}
}

func TestFigure7Shape(t *testing.T) {
	r := runQuick(t, "fig7")
	if len(r.Tables) != 2 {
		t.Fatal("fig7 needs Mercury and Iridium tables")
	}
	out := r.Tables[0].String()
	if !strings.Contains(out, "Mercury-32") {
		t.Fatalf("fig7a incomplete:\n%s", out)
	}
	if !strings.Contains(r.Tables[1].String(), "Iridium-32") {
		t.Fatal("fig7b incomplete")
	}
}

func TestFigure8Shape(t *testing.T) {
	r := runQuick(t, "fig8")
	if len(r.Tables) != 2 {
		t.Fatal("fig8 needs Mercury and Iridium tables")
	}
	if !strings.Contains(r.Tables[0].Columns[3], "Power") {
		t.Fatal("fig8 must include the power column")
	}
}

func TestEvictionQualityShape(t *testing.T) {
	r := runQuick(t, "eviction")
	out := r.Tables[0].String()
	if !strings.Contains(out, "pp") {
		t.Fatalf("eviction table incomplete:\n%s", out)
	}
	// Bags must stay within a few points of strict LRU everywhere.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 5 || !strings.Contains(line, "pp") {
			continue
		}
		lru, err1 := strconv.ParseFloat(fields[2], 64)
		bags, err2 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if lru-bags > 10 {
			t.Fatalf("bags deficit too large: %v vs %v", lru, bags)
		}
		if bags > lru+3 {
			t.Fatalf("bags should not beat LRU materially: %v vs %v", bags, lru)
		}
	}
}

func TestMultigetShape(t *testing.T) {
	r := runQuick(t, "multiget")
	if len(r.Tables) != 2 {
		t.Fatalf("multiget needs sim and live tables, got %d", len(r.Tables))
	}
	// Sim table: A7 keys/s must grow monotonically with batch size, and
	// the 64-key speedup must be a real multiple of single-key GETs.
	simTbl := r.Tables[0]
	prev := 0.0
	for _, row := range simTbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad A7 keys/s cell %q", row[1])
		}
		if v <= prev {
			t.Fatalf("A7 keys/s must grow with batch size:\n%s", simTbl.String())
		}
		prev = v
	}
	last := simTbl.Rows[len(simTbl.Rows)-1]
	speedup, err := strconv.ParseFloat(strings.TrimSuffix(last[2], "x"), 64)
	if err != nil || speedup < 2 {
		t.Fatalf("64-key A7 speedup = %q, want >= 2x", last[2])
	}
	// Live table: allocations per batch must be zero in steady state and
	// shard locks per batch must stay within the Shards bound.
	for _, row := range r.Tables[1].Rows {
		locks, err1 := strconv.ParseFloat(row[1], 64)
		allocs, err2 := strconv.ParseFloat(row[2], 64)
		bound, err3 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable live row %v", row)
		}
		if allocs != 0 {
			t.Fatalf("batch %s allocates %.1f per op on the hot path:\n%s", row[0], allocs, r.Tables[1].String())
		}
		if locks > bound {
			t.Fatalf("batch %s takes %.1f locks, beyond the %v-shard bound", row[0], locks, bound)
		}
	}
}

func TestLoadLatencyShape(t *testing.T) {
	r := runQuick(t, "loadlatency")
	if len(r.Tables) != 2 {
		t.Fatalf("loadlatency needs uniform and zipf tables, got %d", len(r.Tables))
	}
	// The uniform table's p99 must grow from the first to the last row.
	rows := r.Tables[0].Rows
	if len(rows) < 3 {
		t.Fatal("too few load points")
	}
	first, last := rows[0], rows[len(rows)-1]
	if first[3] == last[3] {
		t.Fatalf("p99 should grow with load: %s vs %s", first[3], last[3])
	}
}

func TestLoadLatencyTracePath(t *testing.T) {
	if testing.Short() {
		t.Skip("event-level run")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := Run("loadlatency", Options{Quick: true, TracePath: path}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !json.Valid(b) {
		t.Fatal("trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
}
