// Disk persistence and fail recovery (§6): checkpoint an adaptive index to a
// database file — clusters stored sequentially with reserved slots, a
// checksummed directory in front — then recover it and verify the clustering
// and the answers survived. The second half queries the checkpoint in the
// disk storage scenario (§5.ii) through accluster.OpenDisk: only the
// directory lives in memory, member regions are read on demand through the
// decoded-region cache with seek-coalescing readahead.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"accluster"
)

func main() {
	const dims = 12
	dir, err := os.MkdirTemp("", "accluster-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "spatial.acdb")

	// Build a disk-scenario index: the cost model knows random seeks are
	// expensive (15 ms) so it forms fewer, larger clusters than in
	// memory.
	ix, err := accluster.NewAdaptive(dims,
		accluster.WithScenario(accluster.DiskScenario()),
		accluster.WithReorgEvery(50))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := accluster.NewRect(dims)
	for id := uint32(0); id < 30000; id++ {
		for d := 0; d < dims; d++ {
			size := rng.Float32() * 0.3
			lo := rng.Float32() * (1 - size)
			r.Min[d], r.Max[d] = lo, lo+size
		}
		if err := ix.Insert(id, r); err != nil {
			log.Fatal(err)
		}
	}
	// Converge the clustering under a query load.
	q := accluster.NewRect(dims)
	for i := 0; i < 600; i++ {
		for d := 0; d < dims; d++ {
			c := rng.Float32() * 0.8
			q.Min[d], q.Max[d] = c, c+0.2
		}
		if _, err := ix.Count(q, accluster.Intersects); err != nil {
			log.Fatal(err)
		}
	}
	for d := 0; d < dims; d++ {
		q.Min[d], q.Max[d] = 0.4, 0.6
	}
	before, err := ix.SearchIDs(q, accluster.Intersects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before checkpoint: %d objects, %d clusters, probe query -> %d results\n",
		ix.Len(), ix.Clusters(), len(before))

	// Checkpoint.
	if err := ix.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed to %s (%d KiB)\n", filepath.Base(path), st.Size()/1024)

	// Crash… and recover.
	recovered, err := accluster.OpenAdaptive(path,
		accluster.WithScenario(accluster.DiskScenario()),
		accluster.WithReorgEvery(50))
	if err != nil {
		log.Fatal(err)
	}
	after, err := recovered.SearchIDs(q, accluster.Intersects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery:    %d objects, %d clusters, probe query -> %d results\n",
		recovered.Len(), recovered.Clusters(), len(after))
	if len(before) != len(after) {
		log.Fatalf("answer sets differ: %d vs %d", len(before), len(after))
	}
	if err := recovered.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered index passes all structural invariants")

	// Statistics are re-gathered after recovery (the paper keeps them
	// optional in the checkpoint): keep querying and the index keeps
	// adapting.
	for i := 0; i < 200; i++ {
		if _, err := recovered.Count(q, accluster.Intersects); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after 200 post-recovery queries: %d clusters (%d reorganizations)\n",
		recovered.Clusters(), recovered.ReorgRounds())

	// Disk storage scenario: query the checkpoint directly from the file.
	// Only the header and directory are loaded; explored regions are read
	// on demand into a fixed-budget cache of decoded columns, and regions
	// within 256 KiB of each other on the device coalesce into single
	// sequential reads.
	dsk, err := accluster.OpenDisk(path, accluster.WithDiskCache(8<<20)) // 8 MiB of decoded regions
	if err != nil {
		log.Fatal(err)
	}
	defer dsk.Close()
	var onDisk []uint32
	for i := 0; i < 50; i++ { // repeated queries: the cache warms up
		if onDisk, err = dsk.SearchIDsAppend(onDisk[:0], q, accluster.Intersects); err != nil {
			log.Fatal(err)
		}
	}
	if len(onDisk) != len(before) {
		log.Fatalf("disk scenario answers differ: %d vs %d", len(onDisk), len(before))
	}
	ds := dsk.Stats()
	cs := dsk.CacheStats()
	fmt.Printf("disk scenario:     probe query -> %d results; %d explorations = %d cache hits + %d misses\n",
		len(onDisk), ds.PartitionsExplored, ds.CacheHits, ds.CacheMisses)
	fmt.Printf("                   %d seeks, %d bytes read, cache %d KiB used / %d regions resident\n",
		ds.Seeks, ds.BytesTransferred, cs.UsedBytes/1024, cs.Entries)
}
