// Compare: the paper's evaluation in miniature, through the public API —
// the same workload loaded into Sequential Scan, the R*-tree and the
// Adaptive Clustering index, with per-method data-access statistics and
// modeled execution times under both storage scenarios.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"accluster"
)

const (
	dims    = 16
	objects = 30000
	queries = 300
	warmup  = 600
)

func randomRect(rng *rand.Rand, maxSize float32) accluster.Rect {
	r := accluster.NewRect(dims)
	for d := 0; d < dims; d++ {
		size := rng.Float32() * maxSize
		lo := rng.Float32() * (1 - size)
		r.Min[d], r.Max[d] = lo, lo+size
	}
	return r
}

func main() {
	methods := []struct {
		name string
		ix   accluster.Index
	}{}
	ss, err := accluster.NewSeqScan(dims)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := accluster.NewRStar(dims)
	if err != nil {
		log.Fatal(err)
	}
	ac, err := accluster.NewAdaptive(dims)
	if err != nil {
		log.Fatal(err)
	}
	methods = append(methods,
		struct {
			name string
			ix   accluster.Index
		}{"SeqScan", ss},
		struct {
			name string
			ix   accluster.Index
		}{"R*-tree", rs},
		struct {
			name string
			ix   accluster.Index
		}{"Adaptive", ac},
	)

	// Identical object stream for every method.
	for _, m := range methods {
		rng := rand.New(rand.NewSource(1))
		for id := uint32(0); id < objects; id++ {
			if err := m.ix.Insert(id, randomRect(rng, 1)); err != nil {
				log.Fatalf("%s: %v", m.name, err)
			}
		}
	}
	fmt.Printf("loaded %d objects x %d dims into %d methods\n\n", objects, dims, len(methods))

	// Warm the adaptive clustering, then measure everyone on the same
	// query stream.
	qrng := rand.New(rand.NewSource(2))
	warm := make([]accluster.Rect, warmup)
	for i := range warm {
		warm[i] = randomRect(qrng, 0.35)
	}
	meas := make([]accluster.Rect, queries)
	for i := range meas {
		meas[i] = randomRect(qrng, 0.35)
	}
	for _, q := range warm {
		if _, err := ac.Count(q, accluster.Intersects); err != nil {
			log.Fatal(err)
		}
	}
	for _, m := range methods {
		m.ix.ResetStats()
		for _, q := range meas {
			if _, err := m.ix.Count(q, accluster.Intersects); err != nil {
				log.Fatalf("%s: %v", m.name, err)
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\tpartitions\texplored%\tverified%\tmem ms/q\tdisk ms/q")
	for _, m := range methods {
		st := m.ix.Stats()
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.3f\t%.1f\n",
			m.name, st.Partitions,
			100*st.ExploredFraction(), 100*st.VerifiedFraction(),
			st.ModeledMSPerQuery(accluster.MemoryScenario()),
			st.ModeledMSPerQuery(accluster.DiskScenario()))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadaptive index: %d clusters after %d reorganizations (%d splits, %d merges)\n",
		ac.Clusters(), ac.ReorgRounds(), ac.Splits(), ac.Merges())
	fmt.Println("note: this adaptive index is tuned for the memory scenario; a disk deployment")
	fmt.Println("      (WithScenario(DiskScenario())) forms ~10-20x fewer clusters to avoid seeks")
}
