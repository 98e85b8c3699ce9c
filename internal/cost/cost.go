// Package cost implements the paper's cost model (§5): the expected query
// execution time of a cluster, the materialization and merging benefit
// functions driving the adaptive clustering, and a Meter that converts
// operation counts into modeled execution time for the in-memory and
// disk-based storage scenarios.
//
// The model for one cluster c is
//
//	T = A + p · (B + n·C)                                  (eq. 1)
//
// where p is the access probability, n the number of member objects, A the
// signature verification time, B the exploration setup time (plus one disk
// seek in the disk scenario), and C the per-object verification time (plus
// per-object transfer on disk).
//
// The benefit functions price only the per-query gain of a decision. The
// reorganization rule charges each split or merge its one-time relocation
// cost against the gain the statistics horizon collects (Relocation).
package cost

import "math"

// Reference I/O and CPU operation costs from paper Table 2 (§6), expressed
// in milliseconds.
const (
	// DiskAccessMS is the random disk access (seek) time: 15 ms.
	DiskAccessMS = 15.0
	// TransferMSPerByte is the sequential disk transfer cost per byte,
	// 20 MB/s ≈ 4.77e-5 ms per byte.
	TransferMSPerByte = 4.77e-5
	// SigCheckMS is the cluster signature check cost: 5e-7 ms.
	SigCheckMS = 5e-7
	// VerifyMSPerByte is the object verification cost per byte,
	// 300 MB/s ≈ 3.18e-6 ms per byte.
	VerifyMSPerByte = 3.18e-6
	// DefaultExploreSetupMS is the default exploration setup cost (the
	// memory part of B: the call, the scan initialization and the
	// statistics update for the cluster and its candidate subclusters,
	// §5.i). The paper measures it on its platform but does not list it
	// in Table 2. Updating the indicators of up to dims·f² candidates
	// dominates this cost; 25 µs reproduces the paper's observed cluster
	// granularity (≈80 objects per cluster at 2,000,000 objects,
	// Fig. 7 Table 1). The same per-indicator price also prices the
	// indicator half of a relocation (Params.Relocation): moving one
	// object between two clusters updates 2·dims of those indicators.
	DefaultExploreSetupMS = 2.5e-2
)

// Params holds the database and system parameters of one storage scenario.
// The zero value models a free machine; use Memory or Disk for realistic
// presets, then override fields as needed.
type Params struct {
	// Name labels the scenario in reports ("memory", "disk").
	Name string
	// SigCheckMS is A: the time to check one cluster signature.
	SigCheckMS float64
	// ExploreSetupMS is the storage-independent part of B: preparing the
	// exploration and updating query statistics.
	ExploreSetupMS float64
	// SeekMS is the disk head positioning time paid once per explored
	// cluster (0 in the memory scenario).
	SeekMS float64
	// VerifyMSPerByte is the CPU cost to check one byte of object data.
	VerifyMSPerByte float64
	// TransferMSPerByte is the disk→memory transfer cost per byte
	// (0 in the memory scenario).
	TransferMSPerByte float64
}

// Memory returns the in-memory storage scenario (§5.i) with the paper's CPU
// constants and no I/O costs.
func Memory() Params {
	return Params{
		Name:            "memory",
		SigCheckMS:      SigCheckMS,
		ExploreSetupMS:  DefaultExploreSetupMS,
		VerifyMSPerByte: VerifyMSPerByte,
	}
}

// Disk returns the disk-based storage scenario (§5.ii): signatures and
// statistics in memory, members on disk stored sequentially per cluster.
func Disk() Params {
	return Params{
		Name:              "disk",
		SigCheckMS:        SigCheckMS,
		ExploreSetupMS:    DefaultExploreSetupMS,
		SeekMS:            DiskAccessMS,
		VerifyMSPerByte:   VerifyMSPerByte,
		TransferMSPerByte: TransferMSPerByte,
	}
}

// A returns the signature check cost.
func (p Params) A() float64 { return p.SigCheckMS }

// B returns the full exploration setup cost for the scenario: setup plus one
// disk seek in the disk scenario (§5.ii).
func (p Params) B() float64 { return p.ExploreSetupMS + p.SeekMS }

// C returns the full per-object cost for objects of the given byte size:
// verification plus transfer in the disk scenario.
func (p Params) C(objBytes int) float64 {
	return float64(objBytes) * (p.VerifyMSPerByte + p.TransferMSPerByte)
}

// ClusterTime evaluates eq. 1: the expected per-query time contributed by a
// cluster with access probability pAccess and n objects of objBytes each.
func (p Params) ClusterTime(pAccess float64, n, objBytes int) float64 {
	return p.A() + pAccess*(p.B()+float64(n)*p.C(objBytes))
}

// MaterializationBenefit evaluates β(s,c) (eq. 3): the expected per-query
// gain from materializing a candidate subcluster with access probability ps
// and ns matching objects out of a cluster with access probability pc.
// Positive values mean materialization is profitable.
func (p Params) MaterializationBenefit(pc, ps float64, ns, objBytes int) float64 {
	return (pc-ps)*float64(ns)*p.C(objBytes) - ps*p.B() - p.A()
}

// MergingBenefit evaluates μ(c,a) (eq. 5): the expected per-query gain from
// merging a cluster (probability pc, nc objects) back into its parent
// (probability pa). Positive values mean merging is profitable.
func (p Params) MergingBenefit(pc, pa float64, nc, objBytes int) float64 {
	return p.A() + pc*p.B() - (pa-pc)*float64(nc)*p.C(objBytes)
}

// Relocation prices what eqs. 3 and 5 leave out: a split or merge moves
// every object of the candidate or cluster once, and that one-time cost has
// to be earned back by the per-query benefit before the decayed statistics
// forget the queries that justified it. The zero value charges nothing,
// which is the paper's rule.
type Relocation struct {
	// ObjectMS is r, the price of relocating one object.
	ObjectMS float64
	// Horizon is H, the number of queries the statistics remember; +Inf
	// when they never forget.
	Horizon float64
}

// Relocation returns the scenario's relocation price for objects of
// objBytes under a clustering function of division factor f whose
// statistics age by decay every reorgEvery queries.
//
// r = 2·C(objBytes) + 2·ExploreSetupMS/f² covers reading and writing the
// object plus moving it between two clusters' membership indicators. A
// cluster keeps dims·f² candidate indicators, whose updates ExploreSetupMS
// prices per exploration, and an object sits in one per dimension: a move
// updates 2·dims of them.
//
// H = reorgEvery/(1−decay) is the sum of the decay factors over the rounds:
// the number of queries the statistics remember. With decay 1 nothing is
// forgotten and the horizon is unbounded.
func (p Params) Relocation(objBytes, f, reorgEvery int, decay float64) Relocation {
	h := math.Inf(1)
	if decay < 1 {
		h = float64(reorgEvery) / (1 - decay)
	}
	return Relocation{ObjectMS: 2*p.C(objBytes) + 2*p.ExploreSetupMS/float64(f*f), Horizon: h}
}

// perQuery spreads the relocation of n objects over the horizon: n·r/H.
func (rl Relocation) perQuery(n int) float64 {
	if rl.ObjectMS == 0 {
		return 0
	}
	return float64(n) * rl.ObjectMS / rl.Horizon
}

// PricedMaterializationBenefit returns β(s,c) − ns·r/H: the materialization
// benefit (eq. 3) net of moving the candidate's ns objects, spread over the
// horizon. It is positive exactly when β(s,c)·H > ns·r, the test a
// candidate must pass to be materialized.
func (p Params) PricedMaterializationBenefit(pc, ps float64, ns, objBytes int, rl Relocation) float64 {
	return p.MaterializationBenefit(pc, ps, ns, objBytes) - rl.perQuery(ns)
}

// PricedMergingBenefit returns μ(c,a) − nc·r/H: the merging benefit (eq. 5)
// net of moving the cluster's nc objects, spread over the horizon. It is
// positive exactly when μ(c,a)·H > nc·r, the test a cluster must pass to be
// merged into its parent.
func (p Params) PricedMergingBenefit(pc, pa float64, nc, objBytes int, rl Relocation) float64 {
	return p.MergingBenefit(pc, pa, nc, objBytes) - rl.perQuery(nc)
}
