package harness

import (
	"fmt"
	"time"

	"accluster/internal/geom"
	"accluster/internal/workload"
)

// Extension experiments beyond the paper's published charts (E13, E14 in
// the index on Experiments). The paper's §7 evaluates intersection and
// point-enclosing queries; its problem statement also covers containment and
// enclosure selections and demands support for "frequent updates" — these
// two experiments close that gap.

// RunRelationSweep (E13) compares the three spatial relations at a fixed
// intersection-equivalent query size, per method. Enclosure queries are the
// most selective (the signature's start/end grouping prunes them best);
// containment sits between enclosure and intersection.
func RunRelationSweep(o Options) (*Experiment, error) {
	o.setDefaults()
	exp := &Experiment{
		ID:      "relations",
		Title:   "spatial relations compared (intersection / containment / enclosure)",
		XLabel:  "relation",
		Methods: []string{MethodSS, MethodRS, MethodACMem, MethodACDisk},
	}
	objSpec := workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize, Seed: o.Seed}
	size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, o.Target, o.Seed+600)
	if err != nil {
		return nil, err
	}
	relations := []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses}
	// Containment queries need room to contain objects; reuse the same
	// size and let the observed result counts differ — the comparison is
	// about pruning behaviour, not matched cardinality.
	for _, rel := range relations {
		warmQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + 61}, o.Warmup)
		if err != nil {
			return nil, err
		}
		measQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + 62}, o.Queries)
		if err != nil {
			return nil, err
		}
		point := Point{Label: rel.String(), X: float64(rel), Results: map[string]MethodResult{}}
		for _, m := range exp.Methods {
			e, err := newEngine(m, o.Dims, o.ReorgEvery)
			if err != nil {
				return nil, err
			}
			o.logf("relations: loading %d objects into %s for %v", o.Objects, m, rel)
			if err := load(map[string]Engine{m: e}, objSpec, o.Objects); err != nil {
				return nil, err
			}
			if m == MethodACMem || m == MethodACDisk {
				if err := warmup(e, warmQs, rel); err != nil {
					return nil, err
				}
			}
			r, err := measure(e, measQs, rel)
			if err != nil {
				return nil, err
			}
			point.Results[m] = r
		}
		exp.Points = append(exp.Points, point)
	}
	return exp, nil
}

// RunBaselines (E15) adds the X-tree — the supernode approach the paper's
// related work discusses (§2) — to the selectivity sweep next to SS, R* and
// AC. In high dimensions with extended objects, low-overlap splits become
// impossible and the X-tree degenerates toward few huge supernodes, i.e.
// sequential scan with tree overhead.
func RunBaselines(o Options) (*Experiment, error) {
	o.setDefaults()
	exp := &Experiment{
		ID:      "baselines",
		Title:   "all access methods incl. X-tree (uniform workload)",
		XLabel:  "selectivity",
		Methods: []string{MethodSS, MethodRS, MethodXT, MethodACMem},
	}
	objSpec := workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize, Seed: o.Seed}
	static := map[string]Engine{}
	for _, m := range []string{MethodSS, MethodRS, MethodXT} {
		e, err := newEngine(m, o.Dims, o.ReorgEvery)
		if err != nil {
			return nil, err
		}
		static[m] = e
	}
	o.logf("baselines: loading %d objects x %d dims into SS, RS, XT", o.Objects, o.Dims)
	if err := load(static, objSpec, o.Objects); err != nil {
		return nil, err
	}
	for pi, sel := range o.Selectivities {
		size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, sel, o.Seed+800)
		if err != nil {
			return nil, err
		}
		warmQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + int64(pi)*23}, o.Warmup)
		if err != nil {
			return nil, err
		}
		measQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + int64(pi)*23 + 1}, o.Queries)
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
		ac, err := newEngine(MethodACMem, o.Dims, o.ReorgEvery)
		if err != nil {
			return nil, err
		}
		if err := load(map[string]Engine{MethodACMem: ac}, objSpec, o.Objects); err != nil {
			return nil, err
		}
		if err := warmup(ac, warmQs, geom.Intersects); err != nil {
			return nil, err
		}
		r, err := measure(ac, measQs, geom.Intersects)
		if err != nil {
			return nil, err
		}
		point.Results[MethodACMem] = r
		exp.Points = append(exp.Points, point)
	}
	if xt, ok := static[MethodXT].(xtreeEngine); ok {
		exp.Notes = append(exp.Notes, fmt.Sprintf(
			"X-tree built %d nodes of which %d supernodes", xt.Nodes(), xt.Supernodes()))
	}
	return exp, nil
}

// RunUpdates (E14) interleaves object insertions and deletions with the
// query stream (10% churn between measurement rounds) to verify the
// clustering absorbs frequent updates: answers stay exact (tested
// elsewhere), clusters stay bounded, and per-query cost stays near the
// static case. The X axis is the churn round.
func RunUpdates(o Options) (*Experiment, error) {
	o.setDefaults()
	const rounds = 6
	exp := &Experiment{
		ID:      "updates",
		Title:   "query performance under continuous updates (10% churn per round)",
		XLabel:  "round",
		Methods: []string{MethodACMem},
	}
	objSpec := workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize, Seed: o.Seed}
	size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, o.Target, o.Seed+700)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(MethodACMem, o.Dims, o.ReorgEvery)
	if err != nil {
		return nil, err
	}
	if err := load(map[string]Engine{MethodACMem: e}, objSpec, o.Objects); err != nil {
		return nil, err
	}
	ce := e.(coreEngine)
	warmQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + 71}, o.Warmup)
	if err != nil {
		return nil, err
	}
	if err := warmup(e, warmQs, geom.Intersects); err != nil {
		return nil, err
	}
	og, err := workload.NewObjectGen(workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize, Seed: o.Seed + 72})
	if err != nil {
		return nil, err
	}
	nextID := uint32(o.Objects)
	churn := o.Objects / 10
	r := geom.NewRect(o.Dims)
	var updateNS int64
	for round := 1; round <= rounds; round++ {
		if round > 1 {
			start := time.Now()
			for k := 0; k < churn; k++ {
				ce.Index.Delete(nextID - uint32(o.Objects)) // oldest live id
				og.Fill(r)
				if err := ce.Insert(nextID, r); err != nil {
					return nil, err
				}
				nextID++
			}
			updateNS = time.Since(start).Nanoseconds() / int64(2*churn)
		}
		measQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + 73 + int64(round)}, o.Queries)
		if err != nil {
			return nil, err
		}
		res, err := measure(e, measQs, geom.Intersects)
		if err != nil {
			return nil, err
		}
		exp.Points = append(exp.Points, Point{
			Label:   fmt.Sprintf("%d", round),
			X:       float64(round),
			Results: map[string]MethodResult{MethodACMem: res},
		})
		if round > 1 {
			exp.Notes = append(exp.Notes, fmt.Sprintf(
				"round %d: %d clusters after churn, avg update %d ns", round, res.Partitions, updateNS))
		}
	}
	return exp, nil
}
