// Package meterneg holds the approved meter-mutation forms — mirrors of
// the scratch-record pattern in core/query.go, the record twins in cost,
// and the lock-serialized baseline engines — and must produce no
// diagnostics.
package meterneg

import "accluster/internal/cost"

// searchScratch is the pooled per-query record (mirrors core and
// diskengine).
//
//ac:scratch
type searchScratch struct {
	meter cost.Meter
}

// serialEngine is a single-mutex baseline whose every operation holds the
// exclusive lock (mirrors seqscan, rstar and mbbclust).
//
//ac:serialmeter
type serialEngine struct {
	meter cost.Meter
}

// index publishes through the synchronized meter.
type index struct {
	costs cost.SyncMeter
}

// record mutates the pooled scratch record — the approved pattern.
func (sc *searchScratch) record(n int64) {
	sc.meter.SigChecks += n
	sc.meter.Queries++
}

// op mutates the lock-serialized baseline meter.
func (e *serialEngine) op() {
	e.meter.Explorations++
}

// search assembles a local delta and merges it once (mirrors the read
// phase's end-of-query publish).
func (ix *index) search() {
	var d cost.Meter
	d.Queries++
	d.Seeks = 1
	ix.costs.Merge(d)
}

// fillDelta is a record twin writing through the caller's delta parameter.
func fillDelta(d *cost.Meter, seeks int64) {
	d.Seeks += seeks
}
