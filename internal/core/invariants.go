package core

import (
	"fmt"

	"accluster/internal/sig"
)

// CheckInvariants validates the structural invariants of the index. It is
// O(objects × candidates) and intended for tests and debugging:
//
//  1. clusters[0] is the root; positions and removed flags are consistent;
//  2. parent/child links are mutual and parent signatures cover child
//     signatures (backward compatibility, §3.3);
//  3. every member matches its cluster's signature;
//  4. the location map is exact (every object in exactly one cluster slot);
//  5. every candidate's n indicator equals the recomputed count;
//  6. the coordinate columns are consistent with the member count and the
//     flat signature mirror tracks every cluster's signature positionally;
//  7. statistics epochs never lead the index epoch and the reorganization
//     queue is consistent (no duplicates, queued flags match membership).
func (ix *Index) CheckInvariants() error {
	ix.exclusivePrep()
	if len(ix.clusters) == 0 || ix.clusters[0] != ix.root {
		return fmt.Errorf("clusters[0] is not the root")
	}
	if !ix.root.signature.IsRoot() {
		return fmt.Errorf("root cluster signature is constrained: %v", ix.root.signature)
	}
	if ix.root.parent != nil {
		return fmt.Errorf("root has a parent")
	}
	dims := ix.cfg.Dims
	total := 0
	for pos, c := range ix.clusters {
		if c.removed {
			return fmt.Errorf("removed cluster %v still listed", c.signature)
		}
		if c.pos != pos {
			return fmt.Errorf("cluster %v: pos %d, listed at %d", c.signature, c.pos, pos)
		}
		if c.signature.Dims() != dims {
			return fmt.Errorf("cluster %v: wrong dimensionality", c.signature)
		}
		if c.parent != nil {
			if !c.parent.signature.Covers(c.signature) {
				return fmt.Errorf("parent %v does not cover child %v", c.parent.signature, c.signature)
			}
			found := false
			for _, ch := range c.parent.children {
				if ch == c {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("cluster %v missing from its parent's children", c.signature)
			}
		}
		for _, ch := range c.children {
			if ch.parent != c {
				return fmt.Errorf("child %v of %v has wrong parent", ch.signature, c.signature)
			}
			if ch.removed {
				return fmt.Errorf("cluster %v has removed child", c.signature)
			}
		}
		if len(c.lo) != dims || len(c.hi) != dims {
			return fmt.Errorf("cluster %v: %d/%d coordinate columns, want %d", c.signature, len(c.lo), len(c.hi), dims)
		}
		for d := 0; d < dims; d++ {
			if len(c.lo[d]) != len(c.ids) || len(c.hi[d]) != len(c.ids) {
				return fmt.Errorf("cluster %v: column %d length mismatch", c.signature, d)
			}
		}
		for i, id := range c.ids {
			l, ok := ix.loc[id]
			if !ok || l.c != c || int(l.pos) != i {
				return fmt.Errorf("object %d: location map out of sync", id)
			}
			if !c.signature.MatchesObject(c.rectAt(i, dims)) {
				return fmt.Errorf("object %d does not match its cluster signature %v", id, c.signature)
			}
		}
		// The reference candidates come from the clustering function
		// itself, independent of the grids that number them.
		cs := &c.cands
		splits := sig.Enumerate(c.signature, ix.cfg.DivisionFactor)
		if len(splits) != cs.len() {
			return fmt.Errorf("cluster %v: %d candidates, clustering function derives %d", c.signature, cs.len(), len(splits))
		}
		for k, sp := range splits {
			n := int32(0)
			for i := range c.ids {
				if sp.MatchesObjectDim(c.signature, c.lo[sp.Dim][i], c.hi[sp.Dim][i]) {
					n++
				}
			}
			if n != cs.n[k] {
				return fmt.Errorf("cluster %v candidate %d (%+v): n=%d, recomputed %d", c.signature, k, sp, cs.n[k], n)
			}
			if cs.q[k] < 0 || c.q < 0 {
				return fmt.Errorf("negative query statistics")
			}
			if cs.q[k] > c.q+1e-9 {
				return fmt.Errorf("candidate explored more often than its cluster")
			}
		}
		if c.statsEpoch > ix.epoch {
			return fmt.Errorf("cluster %v: statistics epoch %d ahead of index epoch %d", c.signature, c.statsEpoch, ix.epoch)
		}
		total += len(c.ids)
	}
	inQueue := make(map[*Cluster]bool, len(ix.reorgQ))
	for _, c := range ix.reorgQ {
		if inQueue[c] {
			return fmt.Errorf("cluster %v queued twice", c.signature)
		}
		inQueue[c] = true
		if !c.queued {
			return fmt.Errorf("cluster %v in reorg queue without queued flag", c.signature)
		}
	}
	for _, c := range ix.clusters {
		if c.queued && !inQueue[c] {
			return fmt.Errorf("cluster %v flagged queued but missing from reorg queue", c.signature)
		}
	}
	if total != len(ix.loc) {
		return fmt.Errorf("object count mismatch: clusters hold %d, map holds %d", total, len(ix.loc))
	}
	if len(ix.sigBounds) != len(ix.clusters)*ix.sigStride() {
		return fmt.Errorf("signature mirror holds %d floats, want %d", len(ix.sigBounds), len(ix.clusters)*ix.sigStride())
	}
	if dims <= sig.MaxSelectorDims && len(ix.sigSel) != len(ix.clusters)*4 {
		return fmt.Errorf("selector side array holds %d bytes, want %d", len(ix.sigSel), len(ix.clusters)*4)
	}
	var selWant []uint8
	for pos, c := range ix.clusters {
		b := ix.sigBounds[pos*ix.sigStride() : (pos+1)*ix.sigStride()]
		s := c.signature
		for d := 0; d < dims; d++ {
			if b[4*d] != s.ALo[d] || b[4*d+1] != s.AHi[d] || b[4*d+2] != s.BLo[d] || b[4*d+3] != s.BHi[d] {
				return fmt.Errorf("cluster %v: signature mirror out of sync in dimension %d", s, d)
			}
		}
		if dims <= sig.MaxSelectorDims {
			selWant = sig.AppendSelectors(selWant[:0], b, dims)
			if got := ix.sigSel[pos*4 : pos*4+4]; got[0] != selWant[0] || got[1] != selWant[1] || got[2] != selWant[2] || got[3] != selWant[3] {
				return fmt.Errorf("cluster %v: dimension selectors out of sync: got %v want %v", s, got, selWant)
			}
		}
	}
	return nil
}
