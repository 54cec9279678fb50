package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// smokeScale is one household, a 0.5 M-packet legacy trace: the largest
// fixture with which the whole harness — every workload, both phases of
// serve-live, one traced pass — runs end to end in under 15 s on two cores
// (at 0.0001, two households, it takes 16 s).
const smokeScale = 0.00005

var (
	smokeCfg      *Config
	smokeFixtures map[string]*Fixture
)

// TestMain builds the commands under test and the three fixtures once, cold;
// the tests then reuse them through the -fixtures path.
func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "adbench")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		smokeCfg, err = newConfig("..", filepath.Join(dir, "work"), filepath.Join(dir, "fx"), smokeScale, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// The three generators are independent processes; build side by side.
		kinds := []string{fixtureLegacy, fixtureModern, fixtureCoalesced}
		built := make([]*Fixture, len(kinds))
		errs := make([]error, len(kinds))
		var wg sync.WaitGroup
		for i, kind := range kinds {
			wg.Add(1)
			go func(i int, kind string) {
				defer wg.Done()
				built[i], errs[i] = setupFixture(smokeCfg.Tools, smokeCfg.FixturesDir, kind, defaultSeed, smokeScale)
			}(i, kind)
		}
		wg.Wait()
		smokeFixtures = map[string]*Fixture{}
		for i, kind := range kinds {
			if errs[i] != nil {
				fmt.Fprintln(os.Stderr, errs[i])
				return 1
			}
			smokeFixtures[kind] = built[i]
		}
		return m.Run()
	}())
}

func TestFixtureManifests(t *testing.T) {
	for kind, fx := range smokeFixtures {
		if fx.Reused {
			t.Errorf("%s: a fixture built in an empty directory claims to be reused", kind)
		}
		if fx.Packets == 0 || fx.Bytes == 0 || fx.SpanS <= 0 || fx.Windows < 2 || len(fx.SHA256) != 64 || fx.HTTPTx == 0 || fx.TLSFlows == 0 {
			t.Errorf("%s: manifest has holes: %+v", kind, fx.Manifest)
		}
		if st, err := os.Stat(fx.Path); err != nil || st.Size() != fx.Bytes {
			t.Errorf("%s: file size vs manifest bytes %d: %v", kind, fx.Bytes, err)
		}
		if last := fx.Index[len(fx.Index)-1]; last.End != fx.Bytes || last.DueNs != fx.LastNs {
			t.Errorf("%s: replay index ends at %+v, fixture at %d bytes / %d ns", kind, last, fx.Bytes, fx.LastNs)
		}
		again, err := setupFixture(smokeCfg.Tools, smokeCfg.FixturesDir, kind, defaultSeed, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Reused || again.SHA256 != fx.SHA256 || again.SetupS != fx.SetupS {
			t.Errorf("%s: second set-up in the same directory did not reuse the fixture", kind)
		}
		other, err := loadFixture(smokeCfg.FixturesDir, kind, generatorFor(kind, defaultSeed+1, smokeScale))
		if err != nil || other != nil {
			t.Errorf("%s: a fixture of another seed was offered for reuse (%v)", kind, err)
		}
	}
	l := smokeFixtures[fixtureLegacy]
	if c := smokeFixtures[fixtureCoalesced]; c.Packets*5 > l.Packets*2 {
		t.Errorf("coalescing left %d of %d packets; expected about a third", c.Packets, l.Packets)
	}
}

func metricNames(m Metrics) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []MetricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestAnotherSeedSameWorld runs a workload cold at a seed other than the
// world's. The seed only rekeys the capture — other bytes, the same work — so
// the in-process replay must still rebuild the world the fixture was simulated
// in, or its report is not adtrace's (which runBatch checks) and allocs_per_tx
// counts other work.
func TestAnotherSeedSameWorld(t *testing.T) {
	t.Parallel()
	cfg := *smokeCfg
	cfg.FixturesDir = t.TempDir() // empty: the set-up is cold, and the fixture stays for the checks below
	w, _ := workloadByName("legacy-batch")
	results, err := runWorkload(&cfg, w, defaultSeed+1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !r.Correct || r.Failed != 0 || r.SetupReused {
		t.Errorf("seed %d, cold: correct %v, %d of %d operations failed, reused %v: %v", r.Seed, r.Correct, r.Failed, r.Attempted, r.SetupReused, r.Notes)
	}
	l := smokeFixtures[fixtureLegacy]
	rekeyed, err := loadFixture(cfg.FixturesDir, fixtureLegacy, generatorFor(fixtureLegacy, defaultSeed+1, smokeScale))
	if err != nil || rekeyed == nil {
		t.Fatal("the fixture the run built is not there:", err)
	}
	if rekeyed.SHA256 == l.SHA256 || rekeyed.FirstNs == l.FirstNs {
		t.Error("seed+1 produced the same legacy fixture")
	}
	if rekeyed.Packets != l.Packets || rekeyed.Bytes != l.Bytes || rekeyed.HTTPTx != l.HTTPTx || rekeyed.SpanS != l.SpanS {
		t.Errorf("seed+1 changed the amount of work: %d packets / %d tx / %.0f s against %d / %d / %.0f",
			rekeyed.Packets, rekeyed.HTTPTx, rekeyed.SpanS, l.Packets, l.HTTPTx, l.SpanS)
	}
}

// TestSmokeAllWorkloads drives the four workloads through the real harness:
// subprocess runs at both worker settings, the socket blast and paced replay
// with SIGTERM drain, the in-process replays, and one traced pass. It checks
// that outputs verify and that exactly the catalogue's names come out — which
// TestBenchmarkFile ties to BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the harness reads /proc and uses inotify")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			traced := w.Name == "coalesced-batch" // the cheapest fixture carries the traced pass
			results, err := runWorkload(smokeCfg, w, defaultSeed, true, traced)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				defs := endToEnd
				if r.Trace == 1 {
					defs = perLayer
				}
				if got, want := fmt.Sprint(metricNames(r.Metrics)), fmt.Sprint(defNames(defs)); got != want {
					t.Errorf("trace %d emitted %s, catalogue has %s", r.Trace, got, want)
				}
				// Under a parallel test run on two cores the paced daemon may
				// miss the freshness objective; everything else must hold.
				if r.Attempted == 0 || r.Failed-r.Late != 0 {
					t.Errorf("trace %d: %d of %d operations failed (%d late): %v", r.Trace, r.Failed, r.Attempted, r.Late, r.Notes)
				}
				if !r.SetupReused {
					t.Errorf("trace %d: ran over a -fixtures directory but is not marked setup_reused", r.Trace)
				}
				for name, s := range r.Metrics {
					if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || (r.Trace == 0 && s.Value <= 0) {
						t.Errorf("trace %d: %s = %v", r.Trace, name, s.Value)
					}
				}
			}
			if w.Serve {
				fx := smokeFixtures[w.Fixture]
				if r := results[0]; r.Attempted != 4*fx.Windows || r.Metrics["window_lag_p50_ms"].N < fx.Windows/2 {
					t.Errorf("serve-live checked %d windows over blast W, blast 1, paced and in-process; the manifest expects %d each (lag samples: %d)",
						r.Attempted, fx.Windows, r.Metrics["window_lag_p50_ms"].N)
				}
			}
		})
	}
}
