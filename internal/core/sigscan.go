package core

import "accluster/internal/sig"

// The per-query signature pass is the one cost every selection pays for
// every materialized cluster (the A term of the cost model). Instead of
// pointer-chasing the *Cluster list and calling the signature's virtual
// per-dimension checks, the index mirrors all signature bounds into one flat
// side-array scanned linearly: sigBounds holds, for the cluster at position
// ci, the 4·dims floats [aLo,aHi,bLo,bHi] per dimension starting at
// ci·4·dims. The mirror is maintained on materialization, merge and restore,
// exactly tracking Index.clusters positions.

// sigStride returns the per-cluster float count of the signature mirror.
func (ix *Index) sigStride() int { return 4 * ix.cfg.Dims }

// appendSigBounds mirrors s for the cluster just appended to ix.clusters,
// with its dimension-selector block when the dimensionality fits.
func (ix *Index) appendSigBounds(s sig.Signature) {
	ix.sigBounds = sig.AppendBounds(ix.sigBounds, s)
	if ix.cfg.Dims <= sig.MaxSelectorDims {
		ix.sigSel = sig.AppendSelectors(ix.sigSel, ix.sigBounds[len(ix.sigBounds)-ix.sigStride():], ix.cfg.Dims)
	}
}

// removeSigBoundsAt swap-removes the bounds block (and selector block) of the
// cluster at position pos, matching the swap-removal of ix.clusters entries.
func (ix *Index) removeSigBoundsAt(pos int) {
	stride := ix.sigStride()
	last := len(ix.sigBounds) - stride
	copy(ix.sigBounds[pos*stride:(pos+1)*stride], ix.sigBounds[last:])
	ix.sigBounds = ix.sigBounds[:last]
	if len(ix.sigSel) != 0 {
		lastSel := len(ix.sigSel) - 4
		copy(ix.sigSel[pos*4:pos*4+4], ix.sigSel[lastSel:])
		ix.sigSel = ix.sigSel[:lastSel]
	}
}

// rebuildSigBounds re-derives the whole mirror from ix.clusters (restore
// path).
func (ix *Index) rebuildSigBounds() {
	ix.sigBounds = ix.sigBounds[:0]
	ix.sigSel = ix.sigSel[:0]
	for _, c := range ix.clusters {
		ix.appendSigBounds(c.signature)
	}
}
