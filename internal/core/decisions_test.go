package core

import (
	"runtime"
	"testing"

	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/workload"
)

// TestPaperRuleDecisionsPinned replays, on a bare core index, the stream the
// public package's TestClusteringDecisionsPinned pins: 4,000 skewed 8-d
// objects probed by 6,400 point Encloses queries under cost.Memory(), at the
// cadence an Adaptive runs for a single owner (a read, then DrainStats), once
// as single queries and once as 32-query batches. It runs the paper's
// unpriced benefit tests (PaperRule), so its counters are the ones the
// public pin held before relocations were priced: every split, merge and
// count of eqs. 3 and 5 taken alone stays fixed here.
//
// Off amd64 the compiler may fuse multiply-adds, which can move a benefit
// that sits near zero across it, so the pin is amd64-only.
func TestPaperRuleDecisionsPinned(t *testing.T) {
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
		"single": {Clusters: 20, Splits: 257, Merges: 238, ReorgRounds: 64,
			Checked: 138325, Explored: 53810, Verified: 12475557, BytesVerified: 157724616, Results: 4215},
		"batch": {Clusters: 27, Splits: 200, Merges: 174, ReorgRounds: 64,
			Checked: 176096, Explored: 61082, Verified: 11396836, BytesVerified: 144104472, Results: 4215},
	}

	og, err := workload.NewObjectGen(workload.ObjectSpec{Dims: dims, MinSize: 0.3, MaxSize: 0.5, Skewed: true, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	rects := make([]geom.Rect, objects)
	for i := range rects {
		rects[i] = og.Rect()
	}
	qg, err := workload.NewQueryGen(workload.QuerySpec{Dims: dims, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]geom.Rect, queries)
	for i := range qs {
		qs[i] = qg.Rect()
	}

	for _, mode := range []string{"single", "batch"} {
		ix := mustNew(t, Config{Dims: dims, Params: cost.Memory(), ReorgEvery: 100, PaperRule: true})
		for i, r := range rects {
			if err := ix.Insert(uint32(i), r); err != nil {
				t.Fatal(err)
			}
		}
		if mode == "single" {
			var dst []uint32
			for _, q := range qs {
				if dst, err = ix.SearchIDsAppendRead(dst[:0], q, geom.Encloses); err != nil {
					t.Fatal(err)
				}
				ix.DrainStats()
			}
		} else {
			var res geom.IDBatch
			for i := 0; i < queries; i += batch {
				if err := ix.SearchBatchRead(&res, qs[i:i+batch], geom.Encloses); err != nil {
					t.Fatal(err)
				}
				ix.DrainStats()
			}
		}
		m := ix.Meter()
		got := counters{
			Clusters: int64(ix.Clusters()), Splits: ix.Splits(), Merges: ix.Merges(), ReorgRounds: ix.ReorgRounds(),
			Checked: m.SigChecks, Explored: m.Explorations, Verified: m.ObjectsVerified,
			BytesVerified: m.BytesVerified, Results: m.Results,
		}
		if got != want[mode] {
			t.Errorf("%s: counters\n got  %+v\n want %+v", mode, got, want[mode])
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}
