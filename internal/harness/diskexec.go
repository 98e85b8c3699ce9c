package harness

import (
	"fmt"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/diskengine"
	"accluster/internal/geom"
	"accluster/internal/store"
	"accluster/internal/vdisk"
	"accluster/internal/workload"
)

// RunDiskExec (E16) executes the disk storage scenario end to end instead of
// modeling it from counters: the adaptive index is clustered under the disk
// cost model, checkpointed into the paper's on-device layout on a virtual
// disk (15 ms seek, 20 MB/s transfer), and the query stream then *runs
// against the device* — the virtual clock accumulates simulated I/O time
// from the actual access pattern. A single-cluster checkpoint of the same
// data serves as the sequential-scan reference. The experiment also
// cross-checks that the executed time agrees with the counter-based model
// (they must, since the layout is sequential per cluster).
func RunDiskExec(o Options) (*Experiment, error) {
	o.setDefaults()
	exp := &Experiment{
		ID:      "disk-exec",
		Title:   "disk scenario executed on a virtual disk (checkpointed layout)",
		XLabel:  "selectivity",
		Methods: []string{MethodSS, MethodACDisk},
	}
	objSpec := workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize, Seed: o.Seed}

	for pi, sel := range o.Selectivities {
		size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, sel, o.Seed+900)
		if err != nil {
			return nil, err
		}
		warmQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + int64(pi)*29}, o.Warmup)
		if err != nil {
			return nil, err
		}
		measQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + int64(pi)*29 + 1}, o.Queries)
		if err != nil {
			return nil, err
		}

		// Cluster in memory under the disk cost model, then checkpoint.
		ix, err := core.New(core.Config{Dims: o.Dims, Params: cost.Disk(), ReorgEvery: o.ReorgEvery})
		if err != nil {
			return nil, err
		}
		if err := load(map[string]Engine{MethodACDisk: coreEngine{ix}}, objSpec, o.Objects); err != nil {
			return nil, err
		}
		if err := warmup(coreEngine{ix}, warmQs, geom.Intersects); err != nil {
			return nil, err
		}
		point := Point{Label: fmt.Sprintf("%.0e", sel), X: sel, Results: map[string]MethodResult{}}

		run := func(ixToSave *core.Index) (MethodResult, float64, error) {
			disk := vdisk.New(cost.DiskAccessMS, cost.TransferMSPerByte)
			if err := store.Save(ixToSave, disk); err != nil {
				return MethodResult{}, 0, err
			}
			// The decoded-region cache is disabled here: this experiment
			// cross-checks the executed I/O time against the counter
			// model, so every exploration must really touch the device.
			// Seek-coalescing readahead stays on — it changes the access
			// pattern and the counters consistently. The cache-size
			// story is diskengine's BenchmarkDiskSearch.
			eng, err := diskengine.OpenConfig(disk, diskengine.Config{CacheBytes: -1})
			if err != nil {
				return MethodResult{}, 0, err
			}
			disk.ResetClock()
			for _, q := range measQs {
				if err := eng.Search(q, geom.Intersects, func(uint32) bool { return true }); err != nil {
					return MethodResult{}, 0, err
				}
			}
			m := eng.Meter()
			nq := float64(len(measQs))
			execMS := disk.ElapsedMS() / nq
			res := MethodResult{
				Partitions:    eng.Clusters(),
				ModeledMemMS:  m.ModelMSPerQuery(cost.Memory(), geom.ObjectBytes(o.Dims)),
				ModeledDiskMS: m.ModelMSPerQuery(cost.Disk(), geom.ObjectBytes(o.Dims)),
				AvgResults:    float64(m.Results) / nq,
			}
			if eng.Clusters() > 0 {
				res.ExploredPct = 100 * float64(m.Explorations) / nq / float64(eng.Clusters())
			}
			if eng.Len() > 0 {
				res.VerifiedPct = 100 * float64(m.ObjectsVerified) / nq / float64(eng.Len())
			}
			// Report the executed virtual time in the measured slot
			// (µs) so it prints alongside the modeled value.
			res.MeasuredUS = execMS * 1000
			return res, execMS, nil
		}

		acRes, acExecMS, err := run(ix)
		if err != nil {
			return nil, err
		}
		point.Results[MethodACDisk] = acRes

		// Sequential-scan reference: the same objects in one cluster
		// (an index checkpointed before any query has only the root).
		ssIx, err := core.New(core.Config{Dims: o.Dims, Params: cost.Disk(), ReorgEvery: o.ReorgEvery})
		if err != nil {
			return nil, err
		}
		if err := load(map[string]Engine{MethodSS: coreEngine{ssIx}}, objSpec, o.Objects); err != nil {
			return nil, err
		}
		ssRes, ssExecMS, err := run(ssIx)
		if err != nil {
			return nil, err
		}
		point.Results[MethodSS] = ssRes

		exp.Notes = append(exp.Notes, fmt.Sprintf(
			"%.0e: executed %.0f ms/query (AC, %d clusters) vs %.0f ms/query (scan); counter model said %.0f vs %.0f",
			sel, acExecMS, acRes.Partitions, ssExecMS, acRes.ModeledDiskMS, ssRes.ModeledDiskMS))
		exp.Points = append(exp.Points, point)
	}
	return exp, nil
}
