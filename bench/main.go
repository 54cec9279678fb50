// Command bench is adscape's one benchmark: four workloads, ten end-to-end
// metrics measured untraced on the built binaries, and a traced in-process
// pass that attributes each workload's time to layers. See README.md.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run .                                   every workload, untraced and traced, one JSON document
//	go run . -workload W -seed N -seconds S -trace 0|1
//	                                           one workload, one result line (the BENCHMARK.json contract)
//	go run . -compare a.json b.json            verdict per workload and metric
//	go run . -selfcheck [-runs 10] [-write] [-workload W]
//	                                           two sets of the same code through the comparator
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	schemaName     = "adscape-bench/1"
	defaultSeed    = 2015
	defaultSeconds = 20
	// fixtureScale is rbnsim's -scale for every fixture: 8 households, 4.4 M
	// packets, 156 MB. It is the largest at which a run — one cold set-up, the
	// reference pass, defaultSeconds of measuring, the in-process replay —
	// stays near 30 s, which is what BENCHMARK.json's driver has per run (92
	// runs and two builds in 57 minutes). BENCH_pr7..pr10 used 0.002.
	fixtureScale = 0.0004
	maxWorkers   = 4
)

// Config is what every mode needs.
type Config struct {
	Root        string
	WorkDir     string
	FixturesDir string
	Scale       float64 // fixtureScale; the tests run a smaller one
	Seconds     float64
	W           int
	Tools       Tools
}

// RunResult is one workload measured once, untraced (Trace 0) or traced.
type RunResult struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       int      `json:"trace"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"ops_attempted"`
	Failed      int      `json:"ops_failed"`
	Late        int      `json:"windows_late,omitempty"` // of Failed: windows over the lag limit
	SetupReused bool     `json:"setup_reused,omitempty"`
	Metrics     Metrics  `json:"metrics"`
	Notes       []string `json:"notes,omitempty"`
}

// Document is what the suite prints and what -compare reads.
type Document struct {
	Schema  string  `json:"schema"`
	NProc   int     `json:"nproc"`
	W       int     `json:"workers_w"`
	Scale   float64 `json:"scale"`
	Seconds float64 `json:"seconds"`
	// SetupReused is set when any fixture came from a -fixtures directory; the
	// comparator then refuses to compare setup_s against a cold document.
	SetupReused bool        `json:"setup_reused"`
	Runs        []RunResult `json:"runs"`
}

// internal/report logs classification perf lines through the standard logger;
// they are adtrace's stderr, not the harness's.
func init() { log.SetOutput(io.Discard) }

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print one result line (contract mode); with -selfcheck, check only this one")
		seed      = flag.Int64("seed", defaultSeed, "fixture seed: keys the client addresses and the capture clock of the generated trace")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "contract mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		fixtures  = flag.String("fixtures", "", "keep fixtures in this directory and reuse them across invocations (marks the output setup_reused)")
		root      = flag.String("root", "", "repository root (default: found upward from the working directory)")
		work      = flag.String("work", "", "scratch directory (default: <root>/.bench_build/work)")
		compare   = flag.Bool("compare", false, "compare two documents given as arguments")
		selfcheck = flag.Bool("selfcheck", false, "measure the same code twice, -runs seeds per workload each, and check every spread and drift against its bound")
		runs      = flag.Int("runs", 10, "selfcheck: seeds per workload and set")
		write     = flag.Bool("write", false, "selfcheck: widen the bounds in BENCHMARK.json to what was observed")
	)
	flag.Parse()
	err := func() error {
		if *compare {
			if flag.NArg() != 2 {
				return errors.New("-compare takes two document files")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1), *root)
		}
		if flag.NArg() != 0 {
			return fmt.Errorf("unexpected arguments %v", flag.Args())
		}
		if *seconds <= 0 {
			return errors.New("-seconds must be positive")
		}
		cfg, err := newConfig(*root, *work, *fixtures, fixtureScale, *seconds)
		if err != nil {
			return err
		}
		which := workloads
		if *workload != "" {
			w, ok := workloadByName(*workload)
			if !ok {
				return fmt.Errorf("unknown workload %q", *workload)
			}
			which = []Workload{w}
		}
		switch {
		case *selfcheck:
			return runSelfcheck(cfg, which, *seed, *runs, *write)
		case *workload != "":
			w := which[0]
			if *trace != 0 && *trace != 1 {
				return errors.New("-trace is 0 or 1")
			}
			results, err := runWorkload(cfg, w, *seed, *trace == 0, *trace == 1)
			if err != nil {
				return err
			}
			return printContract(os.Stdout, results[0])
		default:
			return runSuite(cfg, *seed)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect ends a run whose outputs did not check out. Windows over the
// lag limit are failed operations too, but a measured outcome, not a wrong
// output: they are reported and the run still succeeds.
var errIncorrect = errors.New("outputs did not check out (a record or window missing, surplus or different, or a metric not measured)")

// findRoot looks upward from the working directory for the adscape module.
func findRoot() (string, error) {
	dir := "."
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module adscape\n") {
			return dir, nil
		}
		dir = filepath.Join("..", dir)
	}
	return "", errors.New("no adscape go.mod above the working directory; pass -root")
}

func newConfig(root, work, fixtures string, scale, seconds float64) (*Config, error) {
	var err error
	if root == "" {
		if root, err = findRoot(); err != nil {
			return nil, err
		}
	}
	if work == "" {
		// Kept relative where the root is: the daemon's unix socket lives
		// under it and a socket path may not exceed 108 bytes.
		work = filepath.Join(root, ".bench_build", "work")
	}
	w := runtime.NumCPU()
	if w > maxWorkers {
		w = maxWorkers
	}
	cfg := &Config{Root: root, WorkDir: work, FixturesDir: fixtures, Scale: scale, Seconds: seconds, W: w}
	cfg.Tools, err = buildTools(root, filepath.Join(root, ".bench_build", "bin"))
	return cfg, err
}

// runWorkload sets a workload up once and measures it untraced, traced, or
// both, in a scratch directory of its own that it removes again.
func runWorkload(cfg *Config, w Workload, seed int64, untraced, traced bool) ([]RunResult, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	spreadSubdirs(cfg.WorkDir)
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fxDir := filepath.Join(dir, "fx")
	if cfg.FixturesDir != "" {
		fxDir = cfg.FixturesDir
	}
	fx, err := setupFixture(cfg.Tools, fxDir, w.Fixture, seed, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	// Set-up leaves hundreds of megabytes of dirty pages behind; written back
	// during the measurement they would queue ahead of the daemon's fsyncs.
	syscall.Sync()
	var results []RunResult
	finish := func(traceMode int, defs []MetricDef, o *Outcome) {
		m, missing := fill(defs, o.Values, o.N)
		for _, name := range missing {
			o.Notes = append(o.Notes, "metric not measured: "+name)
		}
		results = append(results, RunResult{
			Workload: w.Name, Seed: seed, Trace: traceMode,
			Correct:   o.Failed == o.Late && len(missing) == 0 && o.Attempted > 0,
			Attempted: o.Attempted, Failed: o.Failed, Late: o.Late,
			SetupReused: fx.Reused, Metrics: m, Notes: o.Notes,
		})
	}
	if untraced {
		var o *Outcome
		if w.Serve {
			o, err = runServe(cfg.Tools, fx, cfg.W, filepath.Join(dir, "serve"), cfg.Seconds)
		} else {
			o, err = runBatch(cfg.Tools, fx, cfg.W, cfg.Seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		o.set("setup_s", fx.SetupS, 1)
		finish(0, endToEnd, o)
	}
	if traced {
		o, err := runTraced(cfg, w, fx, filepath.Join(dir, "traced"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		finish(1, perLayer, o)
	}
	return results, nil
}

// runTraced runs the traced pass, plus the paced replay on serve-live for the
// load generator's own figures, and leaves the spans in trace-<workload>.json
// in the work directory.
func runTraced(cfg *Config, w Workload, fx *Fixture, dir string) (*Outcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer(w.Name)
	vals, err := tracedPass(fx, cfg.W, dir, tr)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	for name, v := range vals {
		o.set(name, v, 1)
	}
	// The pass is one operation per record the manifest expects, checked
	// against what the sequential analyzer span produced.
	o.Attempted = fx.HTTPTx + fx.TLSFlows
	if got := int(vals["analyzer.tx"] + vals["analyzer.tls_flows"]); got != o.Attempted {
		o.fail(absDiff(got, o.Attempted), "traced analyzer produced %d records, manifest says %d", got, o.Attempted)
	}
	if w.Serve {
		replay := secondsToDuration(pacedShare * cfg.Seconds)
		ph, _, err := runPaced(o, cfg.Tools, fx, cfg.W, filepath.Join(dir, "paced"), replay, nil)
		if err != nil {
			return nil, err
		}
		o.set("loadgen.late_p98_ms", percentile(ph.LateMs, highestPercentile(len(ph.LateMs), 98)), len(ph.LateMs))
		o.set("loadgen.sent_mb", ph.SentMB, 1)
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	return o, tr.write(filepath.Join(cfg.WorkDir, "trace-"+w.Name+".json"))
}

// contractLine is the one-line result BENCHMARK.json's driver reads: exactly
// correct, attempted, failed and metrics, each metric exactly value and unit
// (Sample omits its other fields when they are zero).
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// printContract always prints the line, so that a run with late windows or
// wrong outputs still shows what it measured; wrong outputs then fail it.
func printContract(w io.Writer, r RunResult) error {
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, "bench:", r.Workload+":", n)
	}
	line := contractLine{r.Correct, r.Attempted, r.Failed, Metrics{}}
	for name, s := range r.Metrics {
		line.Metrics[name] = Sample{Value: s.Value, Unit: s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, string(data)); err != nil {
		return err
	}
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runSuite measures every workload, untraced and traced, and prints one
// document.
func runSuite(cfg *Config, seed int64) error {
	doc := &Document{Schema: schemaName, NProc: runtime.NumCPU(), W: cfg.W, Scale: cfg.Scale, Seconds: cfg.Seconds}
	ok := true
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", w.Name)
		results, err := runWorkload(cfg, w, seed, true, true)
		if err != nil {
			return err
		}
		for _, r := range results {
			ok = ok && r.Correct
			doc.SetupReused = doc.SetupReused || r.SetupReused
		}
		doc.Runs = append(doc.Runs, results...)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := os.Stdout.Write(data); err != nil {
		return err
	}
	if !ok {
		return errIncorrect
	}
	return nil
}
