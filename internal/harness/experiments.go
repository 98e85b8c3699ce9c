package harness

import (
	"fmt"

	"accluster/internal/geom"
	"accluster/internal/workload"
)

// scanNote states AC-mem's measured wall time at one point as a multiple of
// the one-cluster scan's, which verifies everything with the same column
// kernels: the ratio measures the clustering alone.
func scanNote(xLabel string, p Point) string {
	ac, scan := p.Results[MethodACMem], p.Results[MethodScan]
	return fmt.Sprintf("%s %s: AC-mem ÷ scan %.2f on measured wall time (%.0f µs vs %.0f µs per query)",
		xLabel, p.Label, ac.MeasuredUS/scan.MeasuredUS, ac.MeasuredUS, scan.MeasuredUS)
}

// RunFig7 reproduces Fig. 7 and its two data-access tables (E1–E4): uniform
// workload, intersection queries, query selectivity swept from 5e-7 to 5e-1,
// both storage scenarios. The paper runs 2,000,000 objects in 16 dimensions;
// Options.Objects scales the database.
func RunFig7(o Options) (*Experiment, error) {
	o.setDefaults()
	exp := &Experiment{
		ID:      "fig7",
		Title:   "query performance when varying query selectivity (uniform workload)",
		XLabel:  "selectivity",
		Methods: []string{MethodSS, MethodRS, MethodScan, MethodACMem, MethodACDisk},
	}
	objSpec := workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize, Seed: o.Seed}

	// SS, RS and the scan do not adapt to the query distribution: build
	// them once.
	static := map[string]Engine{}
	for _, m := range []string{MethodSS, MethodRS, MethodScan} {
		e, err := newEngine(m, o.Dims, o.ReorgEvery)
		if err != nil {
			return nil, err
		}
		static[m] = e
	}
	o.logf("fig7: loading %d objects x %d dims into SS, RS and scan", o.Objects, o.Dims)
	if err := load(static, objSpec, o.Objects); err != nil {
		return nil, err
	}

	for pi, sel := range o.Selectivities {
		size, achieved, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, sel, o.Seed+100)
		if err != nil {
			return nil, err
		}
		o.logf("fig7: selectivity %.2g -> query size %.4f (estimated %.2g)", sel, size, achieved)
		qspec := workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + int64(pi)*7 + 3}
		warmQs, err := genQueries(qspec, o.Warmup)
		if err != nil {
			return nil, err
		}
		measQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: qspec.Seed + 1}, o.Queries)
		if err != nil {
			return nil, err
		}

		point := Point{Label: fmt.Sprintf("%.0e", sel), X: sel, Results: map[string]MethodResult{}}
		for name, e := range static {
			r, err := measure(e, measQs, geom.Intersects)
			if err != nil {
				return nil, err
			}
			point.Results[name] = r
		}
		// The adaptive index clusters differently per scenario and per
		// query distribution: fresh build per point.
		for _, m := range []string{MethodACMem, MethodACDisk} {
			e, err := newEngine(m, o.Dims, o.ReorgEvery)
			if err != nil {
				return nil, err
			}
			if err := load(map[string]Engine{m: e}, objSpec, o.Objects); err != nil {
				return nil, err
			}
			if err := warmup(e, warmQs, geom.Intersects); err != nil {
				return nil, err
			}
			r, err := measure(e, measQs, geom.Intersects)
			if err != nil {
				return nil, err
			}
			point.Results[m] = r
			o.logf("fig7: %s at %.0e: %d clusters, %.1f%% explored", m, sel, r.Partitions, r.ExploredPct)
		}
		exp.Notes = append(exp.Notes, scanNote(exp.XLabel, point))
		exp.Points = append(exp.Points, point)
	}
	return exp, nil
}

// RunFig8 reproduces Fig. 8 and its tables (E5–E7): skewed workload
// (per object, a random quarter of the dimensions is twice as selective),
// dimensionality swept (paper: 16–40), average query selectivity held at
// Options.Target (paper: 0.05%).
func RunFig8(o Options) (*Experiment, error) {
	o.setDefaults()
	exp := &Experiment{
		ID:      "fig8",
		Title:   "query performance when varying space dimensionality (skewed data)",
		XLabel:  "dims",
		Methods: []string{MethodSS, MethodRS, MethodScan, MethodACMem, MethodACDisk},
	}
	for pi, dims := range o.DimsSweep {
		objSpec := workload.ObjectSpec{Dims: dims, MaxSize: o.MaxObjSize, Skewed: true, Seed: o.Seed + int64(pi)}
		size, achieved, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, o.Target, o.Seed+200+int64(pi))
		if err != nil {
			return nil, err
		}
		o.logf("fig8: dims %d -> query size %.4f (estimated %.2g)", dims, size, achieved)
		warmQs, err := genQueries(workload.QuerySpec{Dims: dims, Size: size, Seed: o.Seed + int64(pi)*13 + 5}, o.Warmup)
		if err != nil {
			return nil, err
		}
		measQs, err := genQueries(workload.QuerySpec{Dims: dims, Size: size, Seed: o.Seed + int64(pi)*13 + 6}, o.Queries)
		if err != nil {
			return nil, err
		}
		point := Point{Label: fmt.Sprintf("%d", dims), X: float64(dims), Results: map[string]MethodResult{}}
		for _, m := range exp.Methods {
			e, err := newEngine(m, dims, o.ReorgEvery)
			if err != nil {
				return nil, err
			}
			o.logf("fig8: loading %d objects x %d dims into %s", o.Objects, dims, m)
			if err := load(map[string]Engine{m: e}, objSpec, o.Objects); err != nil {
				return nil, err
			}
			if m == MethodACMem || m == MethodACDisk {
				if err := warmup(e, warmQs, geom.Intersects); err != nil {
					return nil, err
				}
			}
			r, err := measure(e, measQs, geom.Intersects)
			if err != nil {
				return nil, err
			}
			point.Results[m] = r
		}
		exp.Notes = append(exp.Notes, scanNote(exp.XLabel, point))
		exp.Points = append(exp.Points, point)
	}
	return exp, nil
}

// RunPointEnclosing reproduces the point-enclosing experiment of §7.2 (E8):
// events are points verified against a database of range subscriptions; the
// paper reports AC up to 16× faster than SS in memory and up to 4× on disk.
func RunPointEnclosing(o Options) (*Experiment, error) {
	o.setDefaults()
	exp := &Experiment{
		ID:      "point",
		Title:   "point-enclosing queries (publish/subscribe events)",
		XLabel:  "dims",
		Methods: []string{MethodSS, MethodRS, MethodScan, MethodACMem, MethodACDisk},
	}
	for pi, dims := range []int{o.Dims} {
		// Skewed data, as in the paper: "For point-enclosing queries on
		// skewed data, gain can reach a factor of 16 in memory."
		objSpec := workload.ObjectSpec{Dims: dims, MaxSize: o.MaxObjSize, Skewed: true, Seed: o.Seed + int64(pi)}
		warmQs, err := genQueries(workload.QuerySpec{Dims: dims, Size: 0, Seed: o.Seed + 31}, o.Warmup)
		if err != nil {
			return nil, err
		}
		measQs, err := genQueries(workload.QuerySpec{Dims: dims, Size: 0, Seed: o.Seed + 32}, o.Queries)
		if err != nil {
			return nil, err
		}
		point := Point{Label: fmt.Sprintf("%d", dims), X: float64(dims), Results: map[string]MethodResult{}}
		for _, m := range exp.Methods {
			e, err := newEngine(m, dims, o.ReorgEvery)
			if err != nil {
				return nil, err
			}
			o.logf("point: loading %d objects x %d dims into %s", o.Objects, dims, m)
			if err := load(map[string]Engine{m: e}, objSpec, o.Objects); err != nil {
				return nil, err
			}
			if m == MethodACMem || m == MethodACDisk {
				if err := warmup(e, warmQs, geom.Encloses); err != nil {
					return nil, err
				}
			}
			r, err := measure(e, measQs, geom.Encloses)
			if err != nil {
				return nil, err
			}
			point.Results[m] = r
		}
		if ss, ok := point.Results[MethodSS]; ok {
			if ac, ok := point.Results[MethodACMem]; ok && ac.ModeledMemMS > 0 {
				exp.Notes = append(exp.Notes, fmt.Sprintf(
					"dims %d: AC vs SS speedup %.1fx in memory (paper: up to 16x)",
					dims, ss.ModeledMemMS/ac.ModeledMemMS))
			}
			if ac, ok := point.Results[MethodACDisk]; ok && ac.ModeledDiskMS > 0 {
				exp.Notes = append(exp.Notes, fmt.Sprintf(
					"dims %d: AC vs SS speedup %.1fx on disk (paper: up to 4x)",
					dims, ss.ModeledDiskMS/ac.ModeledDiskMS))
			}
		}
		exp.Notes = append(exp.Notes, scanNote(exp.XLabel, point))
		exp.Points = append(exp.Points, point)
	}
	return exp, nil
}
