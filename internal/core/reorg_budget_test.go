package core

// Tests for the incremental budgeted reorganization subsystem and the
// query-path accounting it rides with: early-stopped searches charge only
// explored clusters, budgeted drains reach the synchronous full pass's
// steady state, lazy epoch decay equals eager decay, and snapshots carry the
// adaptive statistics forward.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"accluster/internal/geom"
	"accluster/internal/sig"
)

// twoClusterIndex fabricates a deterministic two-cluster index via Restore:
// the root holds nRoot objects with Min[0] ≥ 0.6, a child cluster
// (constrained to starts in [0,0.5)) holds nChild objects. The root is at
// position 0, so a full-domain intersection query explores it first.
func twoClusterIndex(t *testing.T, nRoot, nChild int) *Index {
	t.Helper()
	const dims = 2
	child := sig.Root(dims)
	child.AHi[0] = 0.5

	rootIDs, rootData := make([]uint32, nRoot), make([]float32, 0, nRoot*2*dims)
	for i := 0; i < nRoot; i++ {
		rootIDs[i] = uint32(i)
		lo := 0.6 + 0.3*float32(i)/float32(nRoot)
		rootData = append(rootData, lo, lo+0.05, 0.2, 0.3)
	}
	childIDs, childData := make([]uint32, nChild), make([]float32, 0, nChild*2*dims)
	for i := 0; i < nChild; i++ {
		childIDs[i] = uint32(1000 + i)
		lo := 0.1 + 0.3*float32(i)/float32(nChild)
		childData = append(childData, lo, lo+0.05, 0.4, 0.5)
	}
	ix, err := Restore(Config{Dims: dims, ReorgEvery: 1 << 30}, []ClusterSnapshot{
		{Signature: sig.Root(dims), Parent: -1, IDs: rootIDs, Data: rootData},
		{Signature: child, Parent: 0, IDs: childIDs, Data: childData},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestEarlyStopAccounting pins the satellite fix: once emit returns false,
// the remaining signature-matching clusters add no Seeks, Explorations,
// ObjectsVerified or BytesTransferred — but their clustering statistics
// (cluster and candidate query indicators) are still updated, exactly as if
// the query had run to completion.
func TestEarlyStopAccounting(t *testing.T) {
	ix := twoClusterIndex(t, 8, 8)
	q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}

	// Stop inside the root (position 0): the child is matched but must
	// not be explored.
	err := ix.SearchRead(q, geom.Intersects, func(uint32) bool { return false })
	ix.DrainStats()
	if err != nil {
		t.Fatal(err)
	}
	m := ix.Meter()
	if m.Explorations != 1 || m.Seeks != 1 {
		t.Fatalf("early stop explored %d clusters / %d seeks, want 1 / 1", m.Explorations, m.Seeks)
	}
	if m.ObjectsVerified != 8 {
		t.Fatalf("ObjectsVerified = %d, want 8 (root members only)", m.ObjectsVerified)
	}
	wantBytes := int64(8) * int64(geom.ObjectBytes(2))
	if m.BytesTransferred != wantBytes {
		t.Fatalf("BytesTransferred = %d, want %d (root region only)", m.BytesTransferred, wantBytes)
	}
	if m.Results != 1 {
		t.Fatalf("Results = %d, want 1", m.Results)
	}
	// Clustering statistics still cover both matching clusters.
	for pos, c := range ix.clusters {
		if c.q != 1 {
			t.Fatalf("cluster %d query indicator = %g, want 1 (statistics must cover matched-but-unexplored clusters)", pos, c.q)
		}
	}

	// The same query without early stop explores both clusters; the only
	// meter difference is the verification work of the second cluster.
	ix.ResetMeter()
	if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	m = ix.Meter()
	if m.Explorations != 2 || m.Seeks != 2 || m.ObjectsVerified != 16 || m.Results != 16 {
		t.Fatalf("full run meter: %+v", m)
	}
}

// TestBudgetedReorgMatchesFullPass drives the identical differential
// workload (random inserts, deletes and queries) into an index reorganizing
// synchronously (unlimited budgets = the full pass at every trigger) and
// into budgeted ones, then converges each with repeated
// Reorganize rounds. The steady states must agree: same cluster count, same
// net structural outcome (splits − merges), equivalent per-query work, and
// comparable total relocation effort. Gross split/merge event counts are
// logged but only loosely bounded — chunked scheduling splits the same work
// into more, smaller events — and signature-level identity is deliberately
// not asserted: a near-threshold split choosing a different dimension
// cascades into a different but equally profitable subtree.
//
// The subject is the step scheduler, not the decision rule, so it runs two
// streams that churn. Uniform queries churn under the paper's unpriced rule
// (PaperRule), while the default rule, which charges each split or merge
// its relocations, makes a few splits on them and no merge; a query
// hotspot that moves every few periods keeps the default rule splitting
// and merging.
func TestBudgetedReorgMatchesFullPass(t *testing.T) {
	t.Run("paper rule", func(t *testing.T) {
		testBudgetedReorgMatchesFullPass(t, Config{Dims: 4, ReorgEvery: 50, PaperRule: true},
			func(rng *rand.Rand, _ int) geom.Rect { return randomRect(rng, 4, 0.4) })
	})
	t.Run("moving hotspot", func(t *testing.T) {
		// Queries fall in a box of side 0.6 whose center moves every
		// four reorganization periods.
		const period, side = 200, 0.6
		var center [4]float32
		testBudgetedReorgMatchesFullPass(t, Config{Dims: 4, ReorgEvery: 50},
			func(rng *rand.Rand, k int) geom.Rect {
				if k%period == 0 {
					for d := range center {
						center[d] = side/2 + (1-side)*rng.Float32()
					}
				}
				r := geom.NewRect(4)
				for d := range center {
					size := 0.3 * rng.Float32()
					lo := min(max(center[d]-side/2+side*rng.Float32()-size/2, 0), 1-size)
					r.Min[d], r.Max[d] = lo, lo+size
				}
				return r
			})
	})
}

// testBudgetedReorgMatchesFullPass runs TestBudgetedReorgMatchesFullPass on
// one configuration; query returns the stream's k-th query.
func testBudgetedReorgMatchesFullPass(t *testing.T, cfg Config, query func(rng *rand.Rand, k int) geom.Rect) {
	type budgeted struct {
		*Index
		clusters, objects int
	}
	build := func(clusterBudget, objectBudget int) budgeted {
		ix := mustNew(t, cfg)
		rng := rand.New(rand.NewSource(42))
		nextID := uint32(0)
		var live []uint32
		nq := 0
		for step := 0; step < 12000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // insert
				if err := ix.Insert(nextID, randomRect(rng, 4, 0.3)); err != nil {
					t.Fatal(err)
				}
				live = append(live, nextID)
				nextID++
			case op == 4 && len(live) > 0: // delete
				k := rng.Intn(len(live))
				ix.Delete(live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // query
				q := query(rng, nq)
				nq++
				_, err := ix.SearchIDsAppendRead(nil, q, geom.Intersects)
				ix.drainStats(clusterBudget, objectBudget)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// Converge: repeated rounds until the structure stops changing
		// (each round revisits every cluster; children materialized in
		// one round are refined in the next).
		for i := 0; i < 50; i++ {
			s0, m0 := ix.Splits(), ix.Merges()
			ix.Reorganize()
			if ix.Splits() == s0 && ix.Merges() == m0 {
				break
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return budgeted{ix, clusterBudget, objectBudget}
	}
	sync := build(-1, -1)
	deflt := build(reorgBudgetClusters, reorgBudgetObjects) // the shipped budgets
	tight := build(4, 32)

	if sync.Splits() == 0 || sync.Merges() == 0 {
		t.Fatalf("workload exercised no churn (splits %d, merges %d) — test is vacuous", sync.Splits(), sync.Merges())
	}
	for _, ix := range []budgeted{sync, deflt, tight} {
		t.Logf("budgets %d/%d: %d clusters, %d splits, %d merges (net %d), %d objects relocated",
			ix.clusters, ix.objects,
			ix.Clusters(), ix.Splits(), ix.Merges(), ix.Splits()-ix.Merges(), ix.ObjectsRelocated())
	}

	// probe measures the steady-state per-query work over a fixed query
	// sample — the quantity the cost model optimizes.
	probe := func(ix budgeted) (explored, verified float64) {
		ix.ResetMeter()
		rng := rand.New(rand.NewSource(7))
		const n = 200
		for i := 0; i < n; i++ {
			q := query(rng, i)
			_, err := ix.SearchIDsAppendRead(nil, q, geom.Intersects)
			ix.drainStats(ix.clusters, ix.objects)
			if err != nil {
				t.Fatal(err)
			}
		}
		m := ix.Meter()
		return float64(m.Explorations) / n, float64(m.ObjectsVerified) / n
	}
	// Read the full pass's steady state before its probe, as the budgeted
	// ones are read before theirs: a probe's queries reorganize further.
	syncClusters, syncNet := sync.Clusters(), sync.Splits()-sync.Merges()
	se, sv := probe(sync)
	for _, tc := range []struct {
		name string
		ix   budgeted
		// Tolerances: [cluster count ±, net splits−merges ±, verified
		// rel, relocation factor, gross-event factor]
		clusters, net int64
		verifiedTol   float64
		relocFactor   float64
		eventFactor   float64
	}{
		{"default budgets", deflt, 3, 3, 0.15, 1.6, 3},
		{"tight budgets", tight, 4, 4, 0.20, 3.0, 6},
	} {
		abs := func(x int64) int64 {
			if x < 0 {
				return -x
			}
			return x
		}
		if d := abs(int64(tc.ix.Clusters()) - int64(syncClusters)); d > tc.clusters {
			t.Errorf("%s: steady-state cluster count %d, sync %d (tolerance ±%d)",
				tc.name, tc.ix.Clusters(), syncClusters, tc.clusters)
		}
		if d := abs((tc.ix.Splits() - tc.ix.Merges()) - syncNet); d > tc.net {
			t.Errorf("%s: net splits−merges %d, sync %d (tolerance ±%d)",
				tc.name, tc.ix.Splits()-tc.ix.Merges(), syncNet, tc.net)
		}
		e, v := probe(tc.ix)
		t.Logf("%s probe: %.1f explored / %.0f verified per query (sync %.1f / %.0f)", tc.name, e, v, se, sv)
		if v > sv*(1+tc.verifiedTol) {
			t.Errorf("%s steady state verifies %.0f objects/query, sync %.0f — clustering quality degraded beyond %.0f%%",
				tc.name, v, sv, 100*tc.verifiedTol)
		}
		if e > se*1.3+1 {
			t.Errorf("%s steady state explores %.1f clusters/query, sync %.1f", tc.name, e, se)
		}
		if r := float64(tc.ix.ObjectsRelocated()); r > tc.relocFactor*float64(sync.ObjectsRelocated()) {
			t.Errorf("%s relocated %.0f objects, sync %d — budgeting must not multiply maintenance work beyond %.1f×",
				tc.name, r, sync.ObjectsRelocated(), tc.relocFactor)
		}
		if s := tc.ix.Splits(); float64(s) > tc.eventFactor*float64(sync.Splits()) {
			t.Errorf("%s recorded %d split events, sync %d — chunked churn exceeded the %.0f× event bound",
				tc.name, s, sync.Splits(), tc.eventFactor)
		}
	}
}

// TestLazyDecayEquivalence checks that a cluster left untouched for several
// epochs ages by exactly Decay^epochs when finally read, matching the eager
// per-round decay of the synchronous implementation.
func TestLazyDecayEquivalence(t *testing.T) {
	ix := twoClusterIndex(t, 4, 4)
	ix.cfg.Decay = 0.5

	full := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	if _, err := searchIDs(ix, full, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	child := ix.clusters[1]
	if child.q != 1 {
		t.Fatalf("child q = %g, want 1", child.q)
	}
	// Three epochs pass without the child being explored or revisited
	// (opened directly; nothing drains).
	for i := 0; i < 3; i++ {
		ix.beginEpoch()
	}
	if got, want := ix.effectiveQ(child), 0.125; math.Abs(got-want) > 1e-12 {
		t.Fatalf("effectiveQ after 3 lazy epochs = %g, want %g", got, want)
	}
	ix.syncStats(child)
	if math.Abs(child.q-0.125) > 1e-12 {
		t.Fatalf("synced q = %g, want 0.125", child.q)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCarriesStatsAndContinuesWarm is the save/load/continue parity
// test: a restored index resumes with the saved window and per-cluster /
// per-candidate indicators, and continuing the identical query stream keeps
// it exactly in step with the never-interrupted original — same clusters,
// same churn — instead of the cold restart that re-learned the query
// distribution from an empty window.
func TestSnapshotCarriesStatsAndContinuesWarm(t *testing.T) {
	cfg := Config{Dims: 3, ReorgEvery: 30}
	ix := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(17))
	for id := uint32(0); id < 4000; id++ {
		if err := ix.Insert(id, randomRect(rng, 3, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	// A concentrated query distribution that the clustering converges on.
	queries := make([]geom.Rect, 1200)
	for i := range queries {
		base := rng.Float32() * 0.1
		queries[i] = geom.Rect{
			Min: []float32{base, base, base},
			Max: []float32{base + 0.1, base + 0.1, base + 0.1},
		}
	}
	for _, q := range queries[:600] {
		if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}

	snap := ix.Snapshot()
	restored, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.SetStatsWindow(ix.StatsWindow()); err != nil {
		t.Fatal(err)
	}
	if restored.StatsWindow() != ix.StatsWindow() {
		t.Fatalf("window not restored: %g vs %g", restored.StatsWindow(), ix.StatsWindow())
	}
	// Per-signature cluster and candidate query indicators survive the
	// round trip exactly.
	type stats struct {
		q     float64
		candQ []float64
	}
	bySig := map[string]stats{}
	for _, c := range ix.clusters {
		bySig[c.signature.String()] = stats{q: ix.effectiveQ(c), candQ: c.cands.q}
	}
	for _, c := range restored.clusters {
		want, ok := bySig[c.signature.String()]
		if !ok || math.Abs(c.q-want.q) > 1e-9 {
			t.Fatalf("cluster %s restored q = %g, want %v", c.signature, c.q, want)
		}
		for k := range want.candQ {
			if math.Abs(c.cands.q[k]-want.candQ[k]) > 1e-9 {
				t.Fatalf("cluster %s candidate %d restored q = %g, want %g",
					c.signature, k, c.cands.q[k], want.candQ[k])
			}
		}
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Continue the identical stream on both; the warm restore must track
	// the original clustering step for step.
	churn0, churnR0 := ix.Splits()+ix.Merges(), restored.Splits()+restored.Merges()
	for _, q := range queries[600:] {
		for _, e := range []*Index{ix, restored} {
			if _, err := searchIDs(e, q, geom.Intersects); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix.Reorganize()
	restored.Reorganize()
	sigsOf := func(e *Index) []string {
		out := make([]string, 0, len(e.clusters))
		for _, c := range e.clusters {
			out = append(out, c.signature.String())
		}
		sort.Strings(out)
		return out
	}
	a, b := sigsOf(ix), sigsOf(restored)
	if len(a) != len(b) {
		t.Fatalf("continued clusterings diverged: original %d clusters, restored %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("continued clusterings diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	if d, dr := ix.Splits()+ix.Merges()-churn0, restored.Splits()+restored.Merges()-churnR0; d != dr {
		t.Errorf("continued churn diverged: original %d, restored %d", d, dr)
	}

	// A cold restore (statistics stripped, as a version-1 image loads)
	// starts with an empty window and no pending revisits — the old
	// behavior, still supported for pre-statistics images.
	for i := range snap {
		snap[i].Q, snap[i].CandQ = 0, nil
	}
	cold, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if cold.StatsWindow() != 0 {
		t.Fatalf("cold restore window = %g, want 0", cold.StatsWindow())
	}
	if cold.ReorgBacklog() > 0 {
		t.Fatal("cold restore must not queue revisits (zero probabilities degenerate the merge benefit)")
	}
	if restored.ReorgBacklog() == 0 && restored.ReorgRounds() == 0 {
		// The warm restore rebuilt its queue deterministically; by now
		// it has been drained by the continued stream.
		t.Log("warm restore queue already drained (expected)")
	}
}

// TestRestoreRejectsInvalidStats pins the validation on the persisted
// statistics: negative or NaN indicators, and candidates exceeding their
// owner, are rejected instead of poisoning the cost model.
func TestRestoreRejectsInvalidStats(t *testing.T) {
	base := func() []ClusterSnapshot {
		ix := twoClusterIndex(t, 4, 4)
		full := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
		if _, err := searchIDs(ix, full, geom.Intersects); err != nil {
			t.Fatal(err)
		}
		return ix.Snapshot()
	}
	cases := []struct {
		name   string
		mutate func(s []ClusterSnapshot)
	}{
		{"negative cluster q", func(s []ClusterSnapshot) { s[1].Q = -1 }},
		{"NaN cluster q", func(s []ClusterSnapshot) { s[0].Q = math.NaN() }},
		{"candidate exceeds cluster", func(s []ClusterSnapshot) { s[1].CandQ[0] = s[1].Q + 1 }},
		{"candidate count mismatch", func(s []ClusterSnapshot) { s[1].CandQ = s[1].CandQ[:1] }},
	}
	for _, tc := range cases {
		snap := base()
		tc.mutate(snap)
		if _, err := Restore(Config{Dims: 2}, snap); err == nil {
			t.Errorf("%s: Restore accepted invalid statistics", tc.name)
		}
	}
	if _, err := New(Config{Dims: 2, Decay: math.NaN()}); err == nil {
		t.Error("NaN decay accepted by config validation")
	}
}
