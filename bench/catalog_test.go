package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestCatalogueNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64, starting with a letter or digit", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, defs := range [][]MetricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check("metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q", d.Name, d.Unit)
			}
			if d.Better != lower && d.Better != higher {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the catalogue, name for name in
// both directions, and to the limits of its contract.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", benchmarkFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("%s is %d bytes, over 64 KiB", benchmarkFileName, len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("%s has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", benchmarkFileName, len(keys))
	}
	var bf BenchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	if want := benchmarkFile(bounds); !reflect.DeepEqual(&bf, want) {
		got, _ := json.MarshalIndent(&bf, "", "  ")
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("%s is not the catalogue rendered with its own bounds.\nfile:\n%s\ncatalogue:\n%s", benchmarkFileName, got, exp)
	}
	for _, d := range endToEnd {
		if b := bounds[d.Name]; b < d.Floor || b > maxBound {
			t.Errorf("%s: bound %.2f outside [floor %.2f, %.2f]", d.Name, b, d.Floor, maxBound)
		}
	}
	if m := bf.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != lower {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better; got %+v", m)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	// The driver's total: 4 + 22 runs per workload, each this invocation's
	// budget (measuring time, set-up, reference pass, replay), under 3420 s.
	const perRunOverhead = 11 // seconds beyond run_seconds, measured on 2 cores
	if total := (4 + 22*len(bf.Workloads)) * (bf.RunSeconds + perRunOverhead); total > 3420-300 {
		t.Errorf("estimated driver time %d s leaves no room for two builds under 3420 s", total)
	}
}

func TestFillReportsMissing(t *testing.T) {
	m, missing := fill(endToEnd, map[string]float64{"wall_s": 1.5}, map[string]int{"wall_s": 3})
	if s := m["wall_s"]; s.Value != 1.5 || s.Unit != "s" || s.N != 3 || s.Better != lower {
		t.Errorf("wall_s sample %+v", s)
	}
	if len(missing) != len(endToEnd)-1 {
		t.Errorf("missing %v", missing)
	}
}

func TestNormalizeReport(t *testing.T) {
	w1 := "packets:            10\ndegradation (merged over 1 shards):\n  evicted flows:     1285 idle, 0 over cap\n  restarted shards:  0 (0 flows lost)\nad requests:        5 (1.00%)\n"
	w2 := "packets:            10\ndegradation (merged over 2 shards):\n  evicted flows:     1284 idle, 0 over cap\n  restarted shards:  0 (0 flows lost)\n" +
		"  shard  0: packets=6 txs=1 evicted=645/0 gaps=0 parse-errors=0 pending-evicted=0\n  shard  1: packets=4 txs=1 evicted=639/0 gaps=0 parse-errors=0 pending-evicted=0\nad requests:        5 (1.00%)\n"
	if a, b := normalizeReport([]byte(w1)), normalizeReport([]byte(w2)); string(a) != string(b) {
		t.Errorf("normalised reports differ:\n%s\n%s", a, b)
	}
	other := strings.Replace(w2, "0 over cap", "1 over cap", 1)
	if string(normalizeReport([]byte(w1))) == string(normalizeReport([]byte(other))) {
		t.Error("normalisation hides an over-cap eviction")
	}
	if _, _, _, ok := reportCounts([]byte(w1)); ok {
		t.Error("reportCounts accepted a report without its transaction and flow lines")
	}
	full := "packets:            10\nhttp transactions:  3\nhttps flows:        2\n" + w1
	if pk, tx, tls, ok := reportCounts([]byte(full)); !ok || pk != 10 || tx != 3 || tls != 2 {
		t.Errorf("reportCounts = %d %d %d %v", pk, tx, tls, ok)
	}
}
