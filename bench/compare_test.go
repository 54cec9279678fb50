package main

import "testing"

func TestJudge(t *testing.T) {
	wall := MetricDef{Name: "wall_s", Unit: "s", Better: lower}
	rate := MetricDef{Name: "wire_mb_s", Unit: "MB/s", Better: higher}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00}
	noisy := []float64{0.8, 1.2, 0.9, 1.1, 1.0, 0.7, 1.3, 1.0, 0.85, 1.15}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name      string
		def       MetricDef
		base, cur []float64
		want      string
	}{
		{"same", wall, steady, steady, vWithin},
		{"slower within the bound", wall, steady, scale(steady, 1.04), vWithin},
		{"slower beyond the bound", wall, steady, scale(steady, 1.10), vRegressed},
		{"faster beyond the bound", wall, steady, scale(steady, 0.80), vImproved},
		{"higher is better: lower rate regresses", rate, steady, scale(steady, 0.90), vRegressed},
		{"higher is better: higher rate improves", rate, steady, scale(steady, 1.20), vImproved},
		{"spread above the bound", wall, noisy, scale(noisy, 1.03), vUnresolved},
		{"noisy but every run better", wall, noisy, scale(noisy, 0.4), vImproved},
		{"noisy and every run worse", wall, noisy, scale(noisy, 2.5), vRegressed},
		{"one side empty", wall, steady, nil, vUnresolved},
	} {
		if got := judge(c.def, c.base, c.cur, 0.06); got.Verdict != c.want {
			t.Errorf("%s: %s, want %s (ratio %.3f, spreads %.3f/%.3f)", c.name, got.Verdict, c.want, got.Ratio, got.BaseSpread, got.NewSpread)
		}
	}
}

// TestCompareRefusesReusedSetup: a document measured over reused fixtures
// carries the set-up time of whenever they were built, so setup_s is never
// judged against a cold document.
func TestCompareRefusesReusedSetup(t *testing.T) {
	doc := func(reused bool) *Document {
		d := &Document{Schema: schemaName, SetupReused: reused}
		for _, w := range workloads {
			for seed := int64(1); seed <= 3; seed++ {
				m := Metrics{}
				for _, def := range endToEnd {
					m[def.Name] = Sample{Value: 2, Unit: def.Unit}
				}
				d.Runs = append(d.Runs, RunResult{Workload: w.Name, Seed: seed, Metrics: m})
			}
		}
		return d
	}
	bounds, err := loadBounds("..")
	if err != nil {
		t.Fatal(err)
	}
	vs := compareDocuments(doc(false), doc(true), bounds)
	if len(vs) != len(workloads)*len(endToEnd) {
		t.Fatalf("%d verdicts, want one per workload and metric", len(vs))
	}
	for _, v := range vs {
		want := vWithin
		if v.Metric == "setup_s" {
			want = vUnresolved
		}
		if v.Verdict != want {
			t.Errorf("%s on %s: %s, want %s", v.Metric, v.Workload, v.Verdict, want)
		}
		if v.Ratio != 1 || v.NBase != 3 {
			t.Errorf("%s on %s: ratio %v over %d base runs", v.Metric, v.Workload, v.Ratio, v.NBase)
		}
	}
}
