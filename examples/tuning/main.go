// Cost-model tuning and adaptivity: the same data clustered under the
// in-memory and the disk scenario (the disk's 15 ms seek makes fine clusters
// unprofitable, §5), adaptation to a query-distribution shift (clusters that
// stop paying for themselves are merged back, §3.4), and the reorganization
// scheduler knobs — budgeted incremental steps versus the synchronous full
// pass.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

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
	ix, err := accluster.NewAdaptive(dims, accluster.WithReorgEvery(100), accluster.WithDecay(0.3))
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

	// Part 3: the reorganization scheduler. Reorganization normally rides
	// the query path; the knobs decide how much of it one query may carry.
	// WithReorgBudget(Unbudgeted, Unbudgeted) restores the synchronous
	// full pass — every ReorgEvery-th query absorbs the whole merge/split
	// round — while the default budgets chunk the same work into bounded
	// steps, flattening the worst query at the same throughput.
	fmt.Println("\n=== reorganization budgets flatten the latency tail ===")
	for _, mode := range []struct {
		name string
		opts []accluster.Option
	}{
		{"synchronous", []accluster.Option{accluster.WithReorgBudget(accluster.Unbudgeted, accluster.Unbudgeted)}},
		{"budgeted", nil},
	} {
		ix, err := accluster.NewAdaptive(dims, append([]accluster.Option{accluster.WithReorgEvery(100)}, mode.opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		if err := load(ix, n, 5); err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		q := accluster.NewRect(dims)
		lat := make([]time.Duration, 0, 1500)
		for i := 0; i < 1500; i++ {
			// The hot corner shifts every reorganization period, so
			// every round has real merge/split work to do.
			corner(rng, q, float32((i/100)%4)*0.2)
			start := time.Now()
			if _, err := ix.Count(q, accluster.Intersects); err != nil {
				log.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("%-11s reorg: median %8v  p99 %8v  worst query %8v  (%d rounds)\n",
			mode.name, lat[len(lat)/2].Round(time.Microsecond),
			lat[len(lat)*99/100].Round(time.Microsecond),
			lat[len(lat)-1].Round(time.Microsecond), ix.ReorgRounds())
	}
}
