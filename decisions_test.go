package accluster

import (
	"runtime"
	"testing"

	"accluster/internal/workload"
)

// TestClusteringDecisionsPinned pins the clustering decisions of one seeded
// stream through the public API: point events against skewed 8-d
// subscriptions (the SDI shape), run once as single queries and once as
// 32-query batches. Every split and merge the index takes, every cluster it
// keeps and every count the queries charge is fixed by the stream, so any
// change to the statistics, the benefit formulas or the reorganization
// schedule that flips a decision shows here as a changed counter. A change
// that flips decisions on purpose updates the numbers and says why.
//
// The numbers changed once on purpose, when each split and merge began to
// pay for its relocations against the statistics horizon (cost.Relocation).
// The paper's unpriced rule made 257 splits and 238 merges on the single
// stream (200 and 174 batched) for 20 (27) clusters; the priced rule makes
// 32 and 16 (51 and 28) for 17 (24), checks and explores fewer clusters and
// verifies about 3% (4%) more objects. internal/core's
// TestPaperRuleDecisionsPinned keeps the paper's numbers for this stream.
//
// Off amd64 the compiler may fuse multiply-adds, which can move a benefit
// that sits near zero across it, so the pin is amd64-only.
func TestClusteringDecisionsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("decision counters are pinned for amd64 floating point")
	}
	const (
		dims    = 8
		objects = 4000
		queries = 6400
		batch   = 32
	)
	type counters struct {
		Clusters, Splits, Merges, ReorgRounds int64
		Checked, Explored, Verified           int64
		BytesVerified, Results                int64
	}
	want := map[string]counters{
		"single": {Clusters: 17, Splits: 32, Merges: 16, ReorgRounds: 64,
			Checked: 108469, Explored: 47391, Verified: 12811892, BytesVerified: 160327688, Results: 4215},
		"batch": {Clusters: 24, Splits: 51, Merges: 28, ReorgRounds: 64,
			Checked: 154432, Explored: 56510, Verified: 11889455, BytesVerified: 148606024, Results: 4215},
	}

	og, err := workload.NewObjectGen(workload.ObjectSpec{Dims: dims, MinSize: 0.3, MaxSize: 0.5, Skewed: true, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	rects := make([]Rect, objects)
	ids := make([]uint32, objects)
	for i := range rects {
		rects[i] = og.Rect()
		ids[i] = uint32(i)
	}
	qg, err := workload.NewQueryGen(workload.QuerySpec{Dims: dims, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Rect, queries)
	for i := range qs {
		qs[i] = qg.Rect()
	}

	for _, mode := range []string{"single", "batch"} {
		a, err := NewAdaptive(dims, WithScenario(MemoryScenario()), WithReorgEvery(100))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.InsertBatch(ids, rects); err != nil {
			t.Fatal(err)
		}
		if mode == "single" {
			var dst []uint32
			for _, q := range qs {
				if dst, err = a.SearchIDsAppend(dst[:0], q, Encloses); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			var res *BatchResult
			for i := 0; i < queries; i += batch {
				if res, err = a.SearchIDsBatch(res, qs[i:i+batch], Encloses); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := a.Stats()
		got := counters{
			Clusters: int64(a.Clusters()), Splits: a.Splits(), Merges: a.Merges(), ReorgRounds: a.ReorgRounds(),
			Checked: st.PartitionsChecked, Explored: st.PartitionsExplored, Verified: st.ObjectsVerified,
			BytesVerified: st.BytesVerified, Results: st.Results,
		}
		if got != want[mode] {
			t.Errorf("%s: counters\n got  %+v\n want %+v", mode, got, want[mode])
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		a.Close()
	}
}
