package accluster_test

import (
	"fmt"
	"log"

	"accluster"
)

// ExampleNewAdaptive shows the basic lifecycle: insert extended objects and
// run the three spatial selections of the paper.
func ExampleNewAdaptive() {
	ix, err := accluster.NewAdaptive(2)
	if err != nil {
		log.Fatal(err)
	}
	// Three apartments-as-rectangles in a (price, rooms) space normalized
	// to [0,1].
	_ = ix.Insert(1, accluster.MustRect([]float32{0.10, 0.30}, []float32{0.30, 0.50}))
	_ = ix.Insert(2, accluster.MustRect([]float32{0.20, 0.40}, []float32{0.60, 0.80}))
	_ = ix.Insert(3, accluster.MustRect([]float32{0.70, 0.10}, []float32{0.90, 0.20}))

	q := accluster.MustRect([]float32{0.05, 0.25}, []float32{0.65, 0.85})
	for _, rel := range []accluster.Relation{
		accluster.Intersects, accluster.ContainedBy, accluster.Encloses,
	} {
		n, err := ix.Count(q, rel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v: %d\n", rel, n)
	}
	// Output:
	// intersects: 2
	// contained-by: 2
	// encloses: 0
}

// ExampleAdaptive_Search demonstrates point-enclosing queries — the
// publish/subscribe case where an event point retrieves every subscription
// covering it.
func ExampleAdaptive_Search() {
	ix, _ := accluster.NewAdaptive(2)
	// Subscriptions: acceptable (price, distance) ranges.
	_ = ix.Insert(100, accluster.MustRect([]float32{0.2, 0.0}, []float32{0.6, 0.5}))
	_ = ix.Insert(200, accluster.MustRect([]float32{0.5, 0.4}, []float32{0.9, 1.0}))

	event := accluster.Point([]float32{0.55, 0.45})
	var matched []uint32
	_ = ix.Search(event, accluster.Encloses, func(id uint32) bool {
		matched = append(matched, id)
		return true
	})
	fmt.Println(len(matched))
	// Output:
	// 2
}

// ExampleWithScenario shows how the storage scenario drives the clustering:
// the disk scenario's 15 ms seek cost makes the index form far fewer
// clusters than the memory scenario on the same data.
func ExampleWithScenario() {
	ix, err := accluster.NewAdaptive(16,
		accluster.WithScenario(accluster.DiskScenario()),
		accluster.WithReorgEvery(100),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ix.Dims(), ix.Clusters())
	// Output:
	// 16 1
}
