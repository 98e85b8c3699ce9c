package accluster

import "accluster/internal/xtree"

// XTree is the X-tree baseline (Berchtold, Keim, Kriegel, VLDB 1996): an
// R-tree variant for high-dimensional data that avoids high-overlap splits
// by growing multi-page supernodes, trading fan-out for sequential scans of
// larger regions. The paper discusses it as the related supernode approach
// (§2); in very high dimensions it degenerates toward sequential scan.
type XTree struct {
	baseline
	t *xtree.Tree
}

// NewXTree builds an X-tree with 16 KB base pages by default. WithPageSize,
// WithMinFill and WithMaxOverlap tune it.
func NewXTree(dims int, opts ...Option) (*XTree, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	t, err := xtree.New(xtree.Config{
		Dims:       dims,
		PageSize:   o.pageSize,
		MinFill:    o.minFill,
		MaxOverlap: o.maxOverlap,
	})
	if err != nil {
		return nil, err
	}
	x := &XTree{t: t}
	x.init(t)
	return x, nil
}

// Nodes returns the number of tree nodes.
func (x *XTree) Nodes() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.t.Nodes()
}

// Supernodes returns the number of multi-page nodes.
func (x *XTree) Supernodes() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.t.Supernodes()
}

// Height returns the number of tree levels.
func (x *XTree) Height() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.t.Height()
}

// CheckInvariants validates the structural invariants; intended for tests.
func (x *XTree) CheckInvariants() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.t.CheckInvariants()
}

var _ Index = (*XTree)(nil)
