package core

import (
	"math/rand"
	"testing"

	"accluster/internal/geom"
)

func TestClusterInfos(t *testing.T) {
	ix := mustNew(t, Config{Dims: 3, ReorgEvery: 25})
	rng := rand.New(rand.NewSource(31))
	for id := uint32(0); id < 3000; id++ {
		if err := ix.Insert(id, randomRect(rng, 3, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		q := randomRect(rng, 3, 0.1)
		if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	infos := ix.ClusterInfos()
	if len(infos) != ix.Clusters() {
		t.Fatalf("%d infos for %d clusters", len(infos), ix.Clusters())
	}
	root := infos[0]
	if root.Depth != 0 || root.ConstrainedDims != 0 || root.Signature != "{root}" {
		t.Fatalf("root info: %+v", root)
	}
	if root.AccessProbability < 0.99 {
		t.Errorf("root access probability %g, want ~1 (explored by every query)", root.AccessProbability)
	}
	total := 0
	for i, in := range infos {
		total += in.Objects
		if in.AccessProbability < 0 || in.AccessProbability > 1 {
			t.Fatalf("info %d: probability %g", i, in.AccessProbability)
		}
		if i > 0 {
			if in.Depth < 1 {
				t.Fatalf("non-root cluster at depth %d", in.Depth)
			}
			if in.ConstrainedDims < 1 {
				t.Fatalf("non-root cluster without constraints: %+v", in)
			}
		}
		if in.Candidates < 0 || in.Children < 0 {
			t.Fatalf("negative counts: %+v", in)
		}
	}
	if total != ix.Len() {
		t.Fatalf("infos hold %d objects, index %d", total, ix.Len())
	}
}
