package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// BenchmarkFile is BENCHMARK.json at the repository root.
type BenchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	benchmarkFileName = "BENCHMARK.json"
	maxBound          = 0.25
)

// benchmarkFile renders the catalogue as BENCHMARK.json with the given bounds
// (a metric without one gets its floor).
func benchmarkFile(bounds map[string]float64) *BenchmarkFile {
	bf := &BenchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, benchWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Floor
		if v, ok := bounds[d.Name]; ok && v > b {
			b = v
		}
		bf.EndToEnd = append(bf.EndToEnd, benchMetric{d.Name, d.Unit, d.Better, b})
	}
	for _, d := range perLayer {
		bf.PerLayer = append(bf.PerLayer, benchLayer{d.Name, d.Unit, d.Better})
	}
	return bf
}

// loadBounds reads the regression bounds from BENCHMARK.json under root,
// falling back to the catalogue's floors when the file is not there.
func loadBounds(root string) (map[string]float64, error) {
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Floor
	}
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return bounds, nil
		}
	}
	data, err := os.ReadFile(filepath.Join(root, benchmarkFileName))
	if errors.Is(err, os.ErrNotExist) {
		return bounds, nil
	}
	if err != nil {
		return nil, err
	}
	var bf BenchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFileName, err)
	}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func loadDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schemaName)
	}
	return &doc, nil
}

// values collects one untraced metric of one workload over a document's runs.
func (d *Document) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range d.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if s, ok := r.Metrics[metric]; ok {
				xs = append(xs, s.Value)
			}
		}
	}
	return xs
}

func (d *Document) failedOps() int {
	n := 0
	for _, r := range d.Runs {
		n += r.Failed
	}
	return n
}

// Verdict is the comparison of one metric on one workload. Ratio is
// new ÷ base, and the base is always the first document.
type Verdict struct {
	Workload, Metric, Unit, Better string
	Base, New                      float64 // medians
	NBase, NNew                    int
	Ratio                          float64
	BaseSpread, NewSpread, Bound   float64
	Verdict                        string
}

const (
	vImproved   = "improved"
	vWithin     = "within bound"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// judge applies the regression rule: the new median may be worse than the
// base's by at most bound. Where either side's own spread exceeds the bound
// the medians cannot settle it, and the verdict is unresolved unless every new
// run reads better (or every one worse) than every base run.
func judge(def MetricDef, base, cur []float64, bound float64) Verdict {
	v := Verdict{Metric: def.Name, Unit: def.Unit, Better: def.Better, Bound: bound,
		Base: median(base), New: median(cur), NBase: len(base), NNew: len(cur),
		BaseSpread: spread(base), NewSpread: spread(cur)}
	v.Ratio = v.New / v.Base
	worse := v.Ratio - 1
	baseLo, baseHi := minMax(base)
	curLo, curHi := minMax(cur)
	allBetter, allWorse := curHi < baseLo, curLo > baseHi
	if def.Better == higher {
		worse = 1 - v.Ratio
		allBetter, allWorse = allWorse, allBetter
	}
	switch noisy := math.Max(v.BaseSpread, v.NewSpread) > bound; {
	case len(base) == 0 || len(cur) == 0:
		v.Verdict = vUnresolved
	case noisy && allBetter:
		v.Verdict = vImproved
	case noisy && allWorse && worse > bound:
		v.Verdict = vRegressed
	case noisy:
		v.Verdict = vUnresolved
	case worse > bound:
		v.Verdict = vRegressed
	case worse < -bound:
		v.Verdict = vImproved
	default:
		v.Verdict = vWithin
	}
	return v
}

// compareDocuments judges every end-to-end metric of every workload.
func compareDocuments(base, cur *Document, bounds map[string]float64) []Verdict {
	var out []Verdict
	for _, w := range workloads {
		if len(base.values(w.Name, "setup_s"))+len(cur.values(w.Name, "setup_s")) == 0 {
			continue // measured by neither side
		}
		for _, def := range endToEnd {
			v := judge(def, base.values(w.Name, def.Name), cur.values(w.Name, def.Name), bounds[def.Name])
			v.Workload = w.Name
			// A reused fixture's set-up time is the cold one it was built
			// with, not this invocation's: never comparable with a cold run.
			if def.Name == "setup_s" && base.SetupReused != cur.SetupReused {
				v.Verdict = vUnresolved
			}
			out = append(out, v)
		}
	}
	return out
}

func printVerdicts(vs []Verdict) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase (n)\tnew (n)\tnew/base\tspread base\tspread new\tbound\tverdict")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.4g %s (%d)\t%.4g %s (%d)\t%.4f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			v.Workload, v.Metric, v.Base, v.Unit, v.NBase, v.New, v.Unit, v.NNew, v.Ratio,
			100*v.BaseSpread, 100*v.NewSpread, 100*v.Bound, v.Verdict)
	}
	tw.Flush()
}

func compareFiles(basePath, curPath, root string) error {
	base, err := loadDocument(basePath)
	if err != nil {
		return err
	}
	cur, err := loadDocument(curPath)
	if err != nil {
		return err
	}
	if base.W != cur.W || base.Scale != cur.Scale {
		return fmt.Errorf("documents are not comparable: W %d vs %d, scale %g vs %g", base.W, cur.W, base.Scale, cur.Scale)
	}
	bounds, err := loadBounds(root)
	if err != nil {
		return err
	}
	vs := compareDocuments(base, cur, bounds)
	printVerdicts(vs)
	for _, v := range vs {
		if v.Verdict == vRegressed {
			return errors.New("at least one metric regressed")
		}
	}
	return nil
}

// measureSet runs every workload untraced over runs seeds, each run a fresh
// process in contract mode — the way BENCHMARK.json's driver calls it.
func measureSet(cfg *Config, which []Workload, label string, seed int64, runs int) (*Document, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	doc := &Document{Schema: schemaName, NProc: runtime.NumCPU(), W: cfg.W, Scale: cfg.Scale, Seconds: cfg.Seconds}
	for _, w := range which {
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			fmt.Fprintf(os.Stderr, "bench: selfcheck set %s: %s seed %d\n", label, w.Name, s)
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", "0",
				"-root", cfg.Root, "-work", cfg.WorkDir)
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return nil, fmt.Errorf("%s seed %d: result line: %w", w.Name, s, err)
			}
			doc.Runs = append(doc.Runs, RunResult{Workload: w.Name, Seed: s, Correct: line.Correct,
				Attempted: line.Attempted, Failed: line.Failed, Metrics: line.Metrics})
		}
	}
	return doc, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSelfcheck is the benchmark's acceptance test of itself: two sets of the
// same code must agree. For every workload and metric the run-to-run spread of
// each set (setup_s excepted) and the drift of the second median against the
// first must stay within the bound; the bound each metric would need to keep
// its spread under a third is reported and, with write, recorded in
// BENCHMARK.json — widened from what is there, never below the floor.
func runSelfcheck(cfg *Config, which []Workload, seed int64, runs int, write bool) error {
	if runs < 2 {
		return errors.New("-selfcheck needs -runs of at least 2")
	}
	bounds, err := loadBounds(cfg.Root)
	if err != nil {
		return err
	}
	a, err := measureSet(cfg, which, "A", seed, runs)
	if err != nil {
		return err
	}
	b, err := measureSet(cfg, which, "B", seed, runs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return err
	}
	for name, doc := range map[string]*Document{"selfcheck-a.json": a, "selfcheck-b.json": b} {
		if err := writeJSON(filepath.Join(cfg.WorkDir, name), doc); err != nil {
			return err
		}
	}
	vs := compareDocuments(a, b, bounds)
	printVerdicts(vs)

	needed := map[string]float64{}
	var problems []string
	for _, v := range vs {
		noise := math.Max(v.BaseSpread, v.NewSpread)
		drift := v.Ratio - 1
		if v.Better == higher {
			drift = 1 - v.Ratio
		}
		if v.Metric != "setup_s" && noise > v.Bound {
			problems = append(problems, fmt.Sprintf("%s on %s: spread %.1f%% exceeds the bound %.0f%%", v.Metric, v.Workload, 100*noise, 100*v.Bound))
		}
		if drift > v.Bound {
			problems = append(problems, fmt.Sprintf("%s on %s: second set worse by %.1f%%, bound %.0f%%", v.Metric, v.Workload, 100*drift, 100*v.Bound))
		}
		need := math.Max(drift, 0)
		if v.Metric != "setup_s" {
			need = math.Max(need, 3*noise)
		}
		need = math.Ceil(need*100) / 100
		if need > needed[v.Metric] {
			needed[v.Metric] = need
		}
	}
	if n := a.failedOps() + b.failedOps(); n > 0 {
		problems = append(problems, fmt.Sprintf("%d operations failed", n))
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-20s bound %.2f, a third of it covers every spread seen from %.2f\n", d.Name, bounds[d.Name], needed[d.Name])
		if needed[d.Name] > maxBound {
			problems = append(problems, fmt.Sprintf("%s needs a bound of %.2f, above the cap of %.2f: measure more per run", d.Name, needed[d.Name], maxBound))
			needed[d.Name] = maxBound
		}
		if needed[d.Name] > bounds[d.Name] {
			bounds[d.Name] = needed[d.Name]
		}
	}
	// setup_s is one cold set-up per run, not a median, and its spread is not
	// gated: it carries the widest bound of all.
	for _, b := range bounds {
		bounds["setup_s"] = math.Max(bounds["setup_s"], b)
	}
	if write {
		if err := writeJSON(filepath.Join(cfg.Root, benchmarkFileName), benchmarkFile(bounds)); err != nil {
			return err
		}
		fmt.Println("wrote", filepath.Join(cfg.Root, benchmarkFileName))
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
