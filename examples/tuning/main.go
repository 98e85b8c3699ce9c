// Cost-model tuning and adaptivity: the same data clustered under the
// in-memory and the disk scenario (the disk's 15 ms seek makes fine clusters
// unprofitable, §5), and adaptation to a query-distribution shift (clusters
// that stop paying for themselves are merged back, §3.4).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"accluster"
)

const dims = 10

func load(ix accluster.Index, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	r := accluster.NewRect(dims)
	for id := uint32(0); id < uint32(n); id++ {
		for d := 0; d < dims; d++ {
			size := rng.Float32() * 0.25
			lo := rng.Float32() * (1 - size)
			r.Min[d], r.Max[d] = lo, lo+size
		}
		if err := ix.Insert(id, r); err != nil {
			return err
		}
	}
	return nil
}

// corner generates queries focused on a hyper-corner of the space.
func corner(rng *rand.Rand, q accluster.Rect, base float32) {
	for d := 0; d < dims; d++ {
		c := base + rng.Float32()*0.15
		q.Min[d], q.Max[d] = c, c+0.05
	}
}

func main() {
	const n = 40000

	// Part 1: scenario comparison. Identical data and queries; only the
	// cost parameters differ.
	fmt.Println("=== storage scenario drives cluster granularity ===")
	for _, sc := range []accluster.Scenario{accluster.MemoryScenario(), accluster.DiskScenario()} {
		ix, err := accluster.NewAdaptive(dims, accluster.WithScenario(sc), accluster.WithReorgEvery(100))
		if err != nil {
			log.Fatal(err)
		}
		if err := load(ix, n, 1); err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		q := accluster.NewRect(dims)
		for i := 0; i < 1200; i++ {
			corner(rng, q, rng.Float32()*0.8)
			if _, err := ix.Count(q, accluster.Intersects); err != nil {
				log.Fatal(err)
			}
		}
		st := ix.Stats()
		fmt.Printf("%-7s scenario: %5d clusters, %5.1f%% objects verified, modeled %.3f ms (mem) / %.1f ms (disk)\n",
			sc.Name, ix.Clusters(), 100*st.VerifiedFraction(),
			st.ModeledMSPerQuery(accluster.MemoryScenario()),
			st.ModeledMSPerQuery(accluster.DiskScenario()))
	}

	// Part 2: adaptation to a query-distribution shift.
	fmt.Println("\n=== adaptation to query distribution shift ===")
	ix, err := accluster.NewAdaptive(dims, accluster.WithReorgEvery(100))
	if err != nil {
		log.Fatal(err)
	}
	if err := load(ix, n, 3); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	q := accluster.NewRect(dims)

	// Phase A: queries concentrated near the origin corner.
	for i := 0; i < 1500; i++ {
		corner(rng, q, 0)
		if _, err := ix.Count(q, accluster.Intersects); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("phase A (corner queries): %d clusters, %d splits, %d merges\n",
		ix.Clusters(), ix.Splits(), ix.Merges())

	// Phase B: the workload moves to the opposite corner; statistics
	// decay lets the index unwind now-useless clusters and build new
	// ones where the queries are.
	splitsA, mergesA := ix.Splits(), ix.Merges()
	for i := 0; i < 3000; i++ {
		corner(rng, q, 0.8)
		if _, err := ix.Count(q, accluster.Intersects); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("phase B (shifted queries): %d clusters, +%d splits, +%d merges\n",
		ix.Clusters(), ix.Splits()-splitsA, ix.Merges()-mergesA)
	fmt.Println("merges > 0 shows clusters from phase A being folded back (§3.4 merging operation)")
}
