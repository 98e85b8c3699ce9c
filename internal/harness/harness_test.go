package harness

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOptions keeps experiment runtime test-friendly.
func tinyOptions() Options {
	return Options{
		Objects:       3000,
		Dims:          8,
		Queries:       40,
		Warmup:        300,
		ReorgEvery:    50,
		Seed:          7,
		Selectivities: []float64{5e-4, 5e-2},
		DimsSweep:     []int{8, 12},
		Target:        5e-3,
		MaxObjSize:    0.6,
	}
}

func TestRunFig7Shape(t *testing.T) {
	exp, err := RunFig7(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID != "fig7" || len(exp.Points) != 2 {
		t.Fatalf("experiment shape: %+v", exp)
	}
	for i, p := range exp.Points {
		for _, m := range exp.Methods {
			r, ok := p.Results[m]
			if !ok {
				t.Fatalf("point %d missing method %s", i, m)
			}
			if r.Partitions < 1 {
				t.Errorf("point %d %s: partitions %d", i, m, r.Partitions)
			}
			if r.ModeledMemMS <= 0 || r.ModeledDiskMS <= 0 {
				t.Errorf("point %d %s: modeled times %g/%g", i, m, r.ModeledMemMS, r.ModeledDiskMS)
			}
		}
		ss := p.Results[MethodSS]
		if ss.Partitions != 1 || ss.VerifiedPct < 99 {
			t.Errorf("SS must verify everything: %+v", ss)
		}
		// The headline claim: the cost model guarantees AC beats or
		// matches SS in its own scenario.
		ac := p.Results[MethodACMem]
		if ac.ModeledMemMS > ss.ModeledMemMS*1.05 {
			t.Errorf("point %d: AC-mem %.4g ms > SS %.4g ms", i, ac.ModeledMemMS, ss.ModeledMemMS)
		}
		acd := p.Results[MethodACDisk]
		if acd.ModeledDiskMS > ss.ModeledDiskMS*1.05 {
			t.Errorf("point %d: AC-disk %.4g ms > SS %.4g ms", i, acd.ModeledDiskMS, ss.ModeledDiskMS)
		}
		// AC should verify fewer objects than SS at selective points.
		if p.X <= 5e-4 && ac.VerifiedPct >= 100 {
			t.Errorf("point %d: AC verified %.1f%%", i, ac.VerifiedPct)
		}
	}
	var buf bytes.Buffer
	if err := exp.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig7", "Memory Storage Scenario", "Disk Storage Scenario", "expl%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
	buf.Reset()
	if err := exp.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 points × 5 methods
	if len(lines) != 1+2*5 {
		t.Errorf("CSV lines = %d, want 11", len(lines))
	}
	checkScan(t, exp)
}

// checkScan pins the one-cluster scan at every point of exp: it must not
// have reorganized, must verify every object, must count SS's answers on
// the same data and queries, and must get its AC-mem ÷ scan note.
func checkScan(t *testing.T, exp *Experiment) {
	t.Helper()
	for i, p := range exp.Points {
		scan, ok := p.Results[MethodScan]
		if !ok {
			t.Fatalf("point %d: no scan result", i)
		}
		if scan.Partitions != 1 || scan.VerifiedPct != 100 {
			t.Errorf("point %d: scan must stay one cluster and verify everything: %+v", i, scan)
		}
		if ss := p.Results[MethodSS]; scan.AvgResults != ss.AvgResults {
			t.Errorf("point %d: scan averages %g results, SS %g", i, scan.AvgResults, ss.AvgResults)
		}
	}
	notes := 0
	for _, n := range exp.Notes {
		if strings.Contains(n, "AC-mem ÷ scan") {
			notes++
		}
	}
	if notes != len(exp.Points) {
		t.Errorf("%d AC-mem ÷ scan notes for %d points: %q", notes, len(exp.Points), exp.Notes)
	}
}

func TestRunFig8Shape(t *testing.T) {
	o := tinyOptions()
	o.Objects = 2000
	o.Warmup = 200
	exp, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID != "fig8" || len(exp.Points) != 2 {
		t.Fatalf("experiment shape: %+v", exp)
	}
	if exp.Points[0].Label != "8" || exp.Points[1].Label != "12" {
		t.Errorf("labels: %s, %s", exp.Points[0].Label, exp.Points[1].Label)
	}
	for i, p := range exp.Points {
		ss := p.Results[MethodSS]
		ac := p.Results[MethodACMem]
		if ac.ModeledMemMS > ss.ModeledMemMS*1.05 {
			t.Errorf("dims point %d: AC %.4g > SS %.4g", i, ac.ModeledMemMS, ss.ModeledMemMS)
		}
	}
	checkScan(t, exp)
}

func TestRunPointEnclosing(t *testing.T) {
	o := tinyOptions()
	o.Objects = 2000
	exp, err := RunPointEnclosing(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 1 {
		t.Fatalf("points: %d", len(exp.Points))
	}
	if len(exp.Notes) == 0 {
		t.Error("expected speedup notes")
	}
	p := exp.Points[0]
	ss, ac := p.Results[MethodSS], p.Results[MethodACMem]
	// Point-enclosing queries are the best case (§7.2): AC must verify a
	// clearly smaller fraction than SS.
	if ac.VerifiedPct >= ss.VerifiedPct {
		t.Errorf("AC verified %.1f%%, SS %.1f%%", ac.VerifiedPct, ss.VerifiedPct)
	}
	checkScan(t, exp)
}

func TestRunAblationGrouping(t *testing.T) {
	o := tinyOptions()
	o.Objects = 2500
	o.Selectivities = []float64{5e-3}
	exp, err := RunAblationGrouping(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 2 {
		t.Fatalf("expected free+ext regimes, got %d points", len(exp.Points))
	}
	// Extended regime: every interval size is ≥ MaxObjSize/2 = 0.3,
	// wider than the f=4 sub-regions (width 0.25), so minimum-bounding
	// grouping cannot descend at all while the signature criterion still
	// clusters by interval starts/ends — the paper's claim 2 isolated.
	ext := exp.Points[1]
	ac, mbb := ext.Results[MethodACMem], ext.Results[MethodMBB]
	if mbb.Partitions != 1 {
		t.Errorf("MBB grouping should be stuck at the root with always-extended objects, got %d clusters", mbb.Partitions)
	}
	if ac.Partitions < 2 {
		t.Errorf("signature grouping should still cluster, got %d", ac.Partitions)
	}
	if ac.VerifiedPct >= mbb.VerifiedPct {
		t.Errorf("ext regime: AC verified %.1f%% >= MBB %.1f%%", ac.VerifiedPct, mbb.VerifiedPct)
	}
	if len(exp.Notes) == 0 {
		t.Error("expected regime notes")
	}
}

func TestRunAblationDivision(t *testing.T) {
	o := tinyOptions()
	o.Objects = 1500
	o.Warmup = 200
	exp, err := RunAblationDivision(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 5 {
		t.Fatalf("points: %d", len(exp.Points))
	}
	for _, p := range exp.Points {
		if _, ok := p.Results[MethodACMem]; !ok {
			t.Fatalf("missing result at f=%s", p.Label)
		}
	}
}

// TestRunConvergence requires E12's two rows, the default rule (AC) and
// the paper's unpriced rule (AC-paper), with splits and merges for every
// round that account for the cluster count: the index starts as one
// cluster, so after round i it holds 1 + Σ(splits − merges) of rounds ≤ i.
func TestRunConvergence(t *testing.T) {
	o := tinyOptions()
	o.Objects = 2000
	exp, err := RunConvergence(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 15 {
		t.Fatalf("points: %d", len(exp.Points))
	}
	if len(exp.Notes) != 2 {
		t.Errorf("expected one convergence note per row, got %q", exp.Notes)
	}
	churn := map[string]int64{}
	for _, m := range []string{MethodACMem, MethodACPaper} {
		clusters := int64(1)
		for i, p := range exp.Points {
			r, ok := p.Results[m]
			if !ok {
				t.Fatalf("round %s has no %s row", p.Label, m)
			}
			if r.Splits < 0 || r.Merges < 0 {
				t.Fatalf("%s round %s: %d splits, %d merges", m, p.Label, r.Splits, r.Merges)
			}
			clusters += r.Splits - r.Merges
			if int64(r.Partitions) != clusters {
				t.Errorf("%s round %d: %d clusters, but the splits and merges so far leave %d", m, i+1, r.Partitions, clusters)
			}
			churn[m] += r.Splits + r.Merges
		}
	}
	if churn[MethodACPaper] == 0 {
		t.Fatal("the paper rule made no splits or merges; the experiment shows nothing")
	}
	if churn[MethodACMem] > churn[MethodACPaper] {
		t.Errorf("the priced rule made %d splits and merges, the paper rule %d", churn[MethodACMem], churn[MethodACPaper])
	}
	var buf bytes.Buffer
	if err := exp.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"AC splits", "AC merges", "AC-paper splits", "AC-paper merges"} {
		if !strings.Contains(buf.String(), col) {
			t.Errorf("rendered table lacks the %q column", col)
		}
	}
}

func TestRunRelationSweep(t *testing.T) {
	o := tinyOptions()
	o.Objects = 1500
	o.Warmup = 150
	exp, err := RunRelationSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 3 {
		t.Fatalf("points: %d", len(exp.Points))
	}
	labels := []string{"intersects", "contained-by", "encloses"}
	for i, p := range exp.Points {
		if p.Label != labels[i] {
			t.Errorf("point %d label %q, want %q", i, p.Label, labels[i])
		}
		ss, ac := p.Results[MethodSS], p.Results[MethodACMem]
		if ac.ModeledMemMS > ss.ModeledMemMS*1.1 {
			t.Errorf("%s: AC %.4g > SS %.4g", p.Label, ac.ModeledMemMS, ss.ModeledMemMS)
		}
	}
}

func TestRunUpdates(t *testing.T) {
	o := tinyOptions()
	o.Objects = 2000
	o.Warmup = 200
	exp, err := RunUpdates(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 6 {
		t.Fatalf("points: %d", len(exp.Points))
	}
	if len(exp.Notes) == 0 {
		t.Error("expected churn notes")
	}
	// The clustering must stay useful under churn: the last round still
	// verifies well below 100% of objects.
	last := exp.Points[len(exp.Points)-1].Results[MethodACMem]
	if last.VerifiedPct >= 100 {
		t.Errorf("after churn AC verifies %.1f%%", last.VerifiedPct)
	}
}

func TestRunDiskExec(t *testing.T) {
	o := tinyOptions()
	o.Objects = 2500
	o.Warmup = 200
	o.Selectivities = []float64{5e-3}
	exp, err := RunDiskExec(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 1 || len(exp.Notes) != 1 {
		t.Fatalf("shape: %d points, %d notes", len(exp.Points), len(exp.Notes))
	}
	p := exp.Points[0]
	ac, ss := p.Results[MethodACDisk], p.Results[MethodSS]
	if ss.Partitions != 1 {
		t.Fatalf("scan reference must be one cluster, got %d", ss.Partitions)
	}
	// Executed virtual time (µs in MeasuredUS) must be within 20% of the
	// counter-based disk model for both engines: the layout is
	// sequential per cluster, so the two accountings coincide up to
	// region slack.
	for name, r := range map[string]MethodResult{"AC": ac, "SS": ss} {
		exec := r.MeasuredUS / 1000
		if r.ModeledDiskMS <= 0 {
			t.Fatalf("%s: no modeled time", name)
		}
		ratio := exec / r.ModeledDiskMS
		if ratio < 0.8 || ratio > 1.3 {
			t.Errorf("%s: executed %.1f ms vs modeled %.1f ms (ratio %.2f)", name, exec, r.ModeledDiskMS, ratio)
		}
	}
	// AC must not execute slower than the scan.
	if ac.MeasuredUS > ss.MeasuredUS*1.1 {
		t.Errorf("AC executed %.0f µs > scan %.0f µs", ac.MeasuredUS, ss.MeasuredUS)
	}
}

func TestRunDispatchAndErrors(t *testing.T) {
	if _, err := Run("nope", tinyOptions()); err == nil {
		t.Error("unknown experiment must fail")
	}
	if len(Experiments()) != 11 {
		t.Errorf("Experiments() = %v", Experiments())
	}
	if _, err := Run("latency", tinyOptions()); err == nil {
		t.Error("the retired latency experiment must fail as unknown")
	}
	o := tinyOptions()
	o.Objects = 800
	o.Warmup = 100
	o.Queries = 20
	o.Selectivities = []float64{5e-3}
	exp, err := Run("ablation-grouping", o)
	if err != nil || exp.ID != "ablation-grouping" {
		t.Fatalf("dispatch: %v", err)
	}
}

// TestOptionsAlignWindowToReorgPeriods: the warm-up and the measured
// window round up to whole reorganization periods, so a measurement never
// straddles part of a round; the defaults are already aligned.
func TestOptionsAlignWindowToReorgPeriods(t *testing.T) {
	for _, tc := range []struct {
		in                          Options
		queries, warmup, reorgEvery int
	}{
		{Options{}, 200, 1000, 100},
		{Options{Queries: 20, Warmup: 100}, 100, 100, 100},
		{Options{Queries: 40, Warmup: 130, ReorgEvery: 50}, 50, 150, 50},
		{Options{Queries: 100, Warmup: 300}, 100, 300, 100},
		{Options{Queries: 7, ReorgEvery: 3}, 9, 30, 3},
	} {
		o := tc.in
		o.setDefaults()
		if o.Queries != tc.queries || o.Warmup != tc.warmup || o.ReorgEvery != tc.reorgEvery {
			t.Errorf("%+v: queries %d, warmup %d, reorg %d; want %d, %d, %d",
				tc.in, o.Queries, o.Warmup, o.ReorgEvery, tc.queries, tc.warmup, tc.reorgEvery)
		}
	}
}

func TestResultAccessor(t *testing.T) {
	exp := &Experiment{Points: []Point{{Results: map[string]MethodResult{"SS": {Partitions: 1}}}}}
	if _, ok := exp.Result(0, "SS"); !ok {
		t.Error("Result(0, SS)")
	}
	if _, ok := exp.Result(0, "AC"); ok {
		t.Error("missing method must report false")
	}
	if _, ok := exp.Result(5, "SS"); ok {
		t.Error("out of range must report false")
	}
}

func TestNewEngineUnknown(t *testing.T) {
	if _, err := newEngine("bogus", 2, 10); err == nil {
		t.Error("unknown method must fail")
	}
}
