package accluster

import (
	"accluster/internal/core"
	"accluster/internal/cost"
)

// CalibratedMemoryScenario micro-benchmarks this machine's signature-check
// and verification speeds and returns an in-memory scenario built from the
// measurements — the paper's "dynamically evaluated" cost parameters (§6).
// dims is the intended data space dimensionality. The measurement takes a
// few milliseconds.
func CalibratedMemoryScenario(dims int) Scenario {
	return cost.Calibrate(dims).MemoryParams()
}

// CalibratedDiskScenario is CalibratedMemoryScenario plus the paper's
// reference disk characteristics (15 ms access, 20 MB/s transfer); override
// SeekMS and TransferMSPerByte on the result for a different device.
func CalibratedDiskScenario(dims int) Scenario {
	return cost.Calibrate(dims).DiskParams()
}

// ClusterInfo describes one materialized cluster of an Adaptive index: the
// quantities the cost model reasons about, for monitoring and debugging.
type ClusterInfo struct {
	// Signature renders the constrained dimensions.
	Signature string
	// Objects is the member count.
	Objects int
	// AccessProbability is the current access probability estimate.
	AccessProbability float64
	// Depth is the distance to the root cluster.
	Depth int
	// ConstrainedDims counts dimensions carrying a grouping constraint.
	ConstrainedDims int
	// Candidates is the number of virtual candidate subclusters.
	Candidates int
	// Children is the number of materialized child clusters.
	Children int
}

// ClusterInfos reports every materialized cluster, root first.
func (a *Adaptive) ClusterInfos() []ClusterInfo {
	var infos []core.ClusterInfo
	_ = a.l.Exclusive(func(ix *core.Index) error {
		infos = ix.ClusterInfos()
		return nil
	})
	out := make([]ClusterInfo, len(infos))
	for i, in := range infos {
		out[i] = ClusterInfo(in)
	}
	return out
}
