// Package mbbclust implements the classical grouping criterion the paper
// argues against (§1, contribution 2; §4): clusters defined by minimum
// bounding in all dimensions. A cluster owns a region rectangle and hosts
// only objects entirely contained in the region; candidate subclusters
// narrow the region on one dimension into f sub-ranges. The performance
// indicators, the cost model, insertion to the lowest-access-probability
// cluster and the merge/split benefit tests are those of the adaptive index
// (internal/core). How the two run is not the same: this index reorganizes
// in one synchronous full pass inside the query that ends each period and
// decays every indicator eagerly, where core spreads the pass over budgeted
// steps and decays lazily; and it verifies row-major members with the
// scalar geom.FlatMatches, where core verifies member columns with the
// vector kernels. So only the structural measurements — cluster count,
// explored and verified fractions, objects verified per query — compare
// the two grouping criteria; wall time also compares the kernels and the
// schedules.
//
// The structural weakness this exposes is exactly the one the paper's
// signature criterion fixes: an extended object that straddles a sub-region
// boundary can never descend into a subcluster, so with spatially extended
// data most objects stay in coarse clusters and queries keep exploring them.
package mbbclust

import (
	"fmt"

	"accluster/internal/cost"
	"accluster/internal/geom"
)

// Config parameterizes the MBB-grouping index; the fields mirror
// core.Config.
type Config struct {
	Dims           int
	Params         cost.Params
	DivisionFactor int
	ReorgEvery     int
	Decay          float64
}

func (c *Config) setDefaults() error {
	if c.Dims < 1 {
		return fmt.Errorf("mbbclust: invalid dimensionality %d", c.Dims)
	}
	if c.DivisionFactor == 0 {
		c.DivisionFactor = 4
	}
	if c.DivisionFactor < 2 {
		return fmt.Errorf("mbbclust: division factor must be ≥ 2, got %d", c.DivisionFactor)
	}
	if c.ReorgEvery == 0 {
		c.ReorgEvery = 100
	}
	if c.ReorgEvery < 1 {
		return fmt.Errorf("mbbclust: ReorgEvery must be ≥ 1")
	}
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	if c.Decay < 0 || c.Decay > 1 {
		return fmt.Errorf("mbbclust: decay must be in (0,1], got %g", c.Decay)
	}
	if c.Params.Name == "" {
		c.Params = cost.Memory()
	}
	return nil
}

// candidate narrows the owner's region on one dimension to
// [lo,hi) (closed at the domain top).
type candidate struct {
	dim    int
	lo, hi float32
	n      int32
	q      float64
}

func (cd *candidate) matchesObjectDim(olo, ohi float32) bool {
	// Containment of the object's interval in the sub-range, with the
	// same boundary convention as signatures: upper bound exclusive
	// except at the domain maximum.
	if olo < cd.lo || ohi > cd.hi {
		return false
	}
	if ohi == cd.hi {
		return cd.hi == 1
	}
	return true
}

// cluster is a region-based group.
type cluster struct {
	region   geom.Rect
	parent   *cluster
	children []*cluster
	ids      []uint32
	data     []float32
	cands    []candidate
	q        float64
	pos      int
	removed  bool
}

func (c *cluster) matchesObject(r geom.Rect) bool {
	for d := range r.Min {
		if !c.matchesObjectDim(d, r.Min[d], r.Max[d]) {
			return false
		}
	}
	return true
}

func (c *cluster) matchesObjectDim(d int, olo, ohi float32) bool {
	lo, hi := c.region.Min[d], c.region.Max[d]
	if olo < lo || ohi > hi {
		return false
	}
	if ohi == hi && hi != 1 {
		return false
	}
	return true
}

// matchesQuery prunes with the region: members are contained in it.
func (c *cluster) matchesQuery(q geom.Rect, rel geom.Relation) bool {
	if rel == geom.Encloses {
		return c.region.Encloses(q)
	}
	return c.region.Intersects(q)
}

func newCluster(region geom.Rect, f int) *cluster {
	c := &cluster{region: region}
	for d := 0; d < region.Dims(); d++ {
		lo, hi := region.Min[d], region.Max[d]
		if hi-lo <= 0 || lo+(hi-lo)/float32(f) == lo {
			continue
		}
		for k := 0; k < f; k++ {
			clo := lo + (hi-lo)*float32(k)/float32(f)
			chi := lo + (hi-lo)*float32(k+1)/float32(f)
			if k == f-1 {
				chi = hi
			}
			c.cands = append(c.cands, candidate{dim: d, lo: clo, hi: chi})
		}
	}
	return c
}

func (c *cluster) appendObject(id uint32, r geom.Rect) int {
	pos := len(c.ids)
	c.ids = append(c.ids, id)
	c.data = geom.AppendFlat(c.data, r)
	for i := range c.cands {
		cd := &c.cands[i]
		if cd.matchesObjectDim(r.Min[cd.dim], r.Max[cd.dim]) {
			cd.n++
		}
	}
	return pos
}

func (c *cluster) objectDim(i, dims, d int) (lo, hi float32) {
	base := i * 2 * dims
	return c.data[base+2*d], c.data[base+2*d+1]
}

func (c *cluster) removeObjectAt(i, dims int) (movedID uint32, moved bool) {
	for k := range c.cands {
		cd := &c.cands[k]
		lo, hi := c.objectDim(i, dims, cd.dim)
		if cd.matchesObjectDim(lo, hi) {
			cd.n--
		}
	}
	last := len(c.ids) - 1
	if i != last {
		c.ids[i] = c.ids[last]
		copy(c.data[i*2*dims:(i+1)*2*dims], c.data[last*2*dims:(last+1)*2*dims])
		movedID, moved = c.ids[i], true
	}
	c.ids = c.ids[:last]
	c.data = c.data[:last*2*dims]
	return movedID, moved
}

func (c *cluster) detachChild(ch *cluster) {
	for i, x := range c.children {
		if x == ch {
			c.children[i] = c.children[len(c.children)-1]
			c.children = c.children[:len(c.children)-1]
			return
		}
	}
}

type objLoc struct {
	c   *cluster
	pos int32
}

// Index is the MBB-grouping adaptive index. Not safe for concurrent use:
// every operation holds the caller's exclusive lock, so the embedded cost
// meter is written directly.
//
//ac:serialmeter
type Index struct {
	cfg      Config
	objBytes int
	root     *cluster
	clusters []*cluster
	loc      map[uint32]objLoc

	window     float64
	sinceReorg int
	meter      cost.Meter
	splits     int64
	merges     int64
}

// New builds an empty index.
func New(cfg Config) (*Index, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	region := geom.NewRect(cfg.Dims)
	for d := 0; d < cfg.Dims; d++ {
		region.Max[d] = 1
	}
	ix := &Index{
		cfg:      cfg,
		objBytes: geom.ObjectBytes(cfg.Dims),
		loc:      make(map[uint32]objLoc),
	}
	ix.root = newCluster(region, cfg.DivisionFactor)
	ix.clusters = []*cluster{ix.root}
	return ix, nil
}

// Dims returns the data space dimensionality.
func (ix *Index) Dims() int { return ix.cfg.Dims }

// Len returns the number of stored objects.
func (ix *Index) Len() int { return len(ix.loc) }

// Clusters returns the number of materialized clusters.
func (ix *Index) Clusters() int { return len(ix.clusters) }

// Meter returns the accumulated operation counters.
func (ix *Index) Meter() cost.Meter { return ix.meter }

// ResetMeter zeroes the operation counters.
func (ix *Index) ResetMeter() { ix.meter.Reset() }

// Splits returns the number of materializations performed.
func (ix *Index) Splits() int64 { return ix.splits }

// Merges returns the number of merges performed.
func (ix *Index) Merges() int64 { return ix.merges }

func (ix *Index) prob(q float64) float64 {
	if ix.window <= 0 {
		return 0
	}
	p := q / ix.window
	if p > 1 {
		p = 1
	}
	return p
}

// Insert places the object into the matching cluster with the lowest access
// probability.
func (ix *Index) Insert(id uint32, r geom.Rect) error {
	if r.Dims() != ix.cfg.Dims {
		return fmt.Errorf("mbbclust: object has %d dims, index has %d", r.Dims(), ix.cfg.Dims)
	}
	if !r.Valid() {
		return fmt.Errorf("mbbclust: invalid rectangle %v", r)
	}
	if _, dup := ix.loc[id]; dup {
		return fmt.Errorf("mbbclust: duplicate object id %d", id)
	}
	best := ix.root
	bestP := ix.prob(ix.root.q)
	for _, c := range ix.clusters[1:] {
		if !c.matchesObject(r) {
			continue
		}
		if p := ix.prob(c.q); p <= bestP {
			best, bestP = c, p
		}
	}
	pos := best.appendObject(id, r)
	ix.loc[id] = objLoc{c: best, pos: int32(pos)}
	return nil
}

// Delete removes an object, reporting whether it existed.
func (ix *Index) Delete(id uint32) bool {
	l, ok := ix.loc[id]
	if !ok {
		return false
	}
	movedID, moved := l.c.removeObjectAt(int(l.pos), ix.cfg.Dims)
	if moved {
		ix.loc[movedID] = objLoc{c: l.c, pos: l.pos}
	}
	delete(ix.loc, id)
	return true
}

// Get returns the rectangle stored under id.
func (ix *Index) Get(id uint32) (geom.Rect, bool) {
	l, ok := ix.loc[id]
	if !ok {
		return geom.Rect{}, false
	}
	return geom.FromFlat(l.c.data, int(l.pos), ix.cfg.Dims), true
}

// Search mirrors core.Index.SearchRead with region-based pruning.
func (ix *Index) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	if q.Dims() != ix.cfg.Dims {
		return fmt.Errorf("mbbclust: query has %d dims, index has %d", q.Dims(), ix.cfg.Dims)
	}
	if !rel.Valid() {
		return fmt.Errorf("mbbclust: invalid relation %v", rel)
	}
	ix.meter.Queries++
	ix.meter.SigChecks += int64(len(ix.clusters))
	stopped := false
	for _, c := range ix.clusters {
		if !c.matchesQuery(q, rel) {
			continue
		}
		ix.meter.Explorations++
		ix.meter.Seeks++
		ix.meter.BytesTransferred += int64(len(c.ids)) * int64(ix.objBytes)
		c.q++
		for i := range c.cands {
			cd := &c.cands[i]
			// A query can reach members of the narrowed region only
			// if it satisfies the pruning predicate against it.
			if rel == geom.Encloses {
				if q.Min[cd.dim] >= cd.lo && q.Max[cd.dim] <= cd.hi {
					cd.q++
				}
			} else if q.Min[cd.dim] <= cd.hi && q.Max[cd.dim] >= cd.lo {
				cd.q++
			}
		}
		if stopped {
			continue
		}
		ix.meter.ObjectsVerified += int64(len(c.ids))
		for i := range c.ids {
			ok, checked := geom.FlatMatches(c.data, i, q, rel)
			ix.meter.BytesVerified += int64(checked) * 8
			if ok {
				ix.meter.Results++
				if !emit(c.ids[i]) {
					stopped = true
					break
				}
			}
		}
	}
	ix.window++
	ix.sinceReorg++
	if ix.sinceReorg >= ix.cfg.ReorgEvery {
		ix.Reorganize()
	}
	return nil
}

// Count returns the number of qualifying objects.
func (ix *Index) Count(q geom.Rect, rel geom.Relation) (int, error) {
	n := 0
	err := ix.Search(q, rel, func(uint32) bool { n++; return true })
	return n, err
}

// Reorganize runs one merge/split round with the shared cost model.
func (ix *Index) Reorganize() {
	ix.sinceReorg = 0
	snapshot := append([]*cluster(nil), ix.clusters...)
	for _, c := range snapshot {
		if c.removed {
			continue
		}
		if c != ix.root && c.parent != nil && !c.parent.removed {
			pc, pa := ix.prob(c.q), ix.prob(c.parent.q)
			if ix.cfg.Params.MergingBenefit(pc, pa, len(c.ids), ix.objBytes) > 0 {
				ix.merge(c)
				continue
			}
		}
		ix.trySplit(c)
	}
	d := ix.cfg.Decay
	ix.window *= d
	for _, c := range ix.clusters {
		c.q *= d
		for i := range c.cands {
			c.cands[i].q *= d
		}
	}
}

func (ix *Index) trySplit(c *cluster) {
	for {
		pc := ix.prob(c.q)
		best := -1
		var bestBenefit float64
		for i := range c.cands {
			cd := &c.cands[i]
			if cd.n <= 0 {
				continue
			}
			ps := ix.prob(cd.q)
			if ps > pc {
				ps = pc
			}
			b := ix.cfg.Params.MaterializationBenefit(pc, ps, int(cd.n), ix.objBytes)
			if b > 0 && (best < 0 || b > bestBenefit) {
				best, bestBenefit = i, b
			}
		}
		if best < 0 {
			return
		}
		ix.materialize(c, best)
	}
}

func (ix *Index) materialize(c *cluster, ci int) {
	cd := &c.cands[ci]
	dims := ix.cfg.Dims
	region := c.region.Clone()
	region.Min[cd.dim], region.Max[cd.dim] = cd.lo, cd.hi
	child := newCluster(region, ix.cfg.DivisionFactor)
	child.parent = c
	child.q = cd.q
	for i := len(c.ids) - 1; i >= 0; i-- {
		lo, hi := c.objectDim(i, dims, cd.dim)
		if !cd.matchesObjectDim(lo, hi) {
			continue
		}
		id := c.ids[i]
		r := geom.FromFlat(c.data, i, dims)
		movedID, moved := c.removeObjectAt(i, dims)
		pos := child.appendObject(id, r)
		ix.loc[id] = objLoc{c: child, pos: int32(pos)}
		if moved {
			ix.loc[movedID] = objLoc{c: c, pos: int32(i)}
		}
	}
	c.children = append(c.children, child)
	child.pos = len(ix.clusters)
	ix.clusters = append(ix.clusters, child)
	ix.splits++
}

func (ix *Index) merge(c *cluster) {
	a := c.parent
	dims := ix.cfg.Dims
	for i := range c.ids {
		id := c.ids[i]
		pos := a.appendObject(id, geom.FromFlat(c.data, i, dims))
		ix.loc[id] = objLoc{c: a, pos: int32(pos)}
	}
	for _, ch := range c.children {
		ch.parent = a
		a.children = append(a.children, ch)
	}
	a.detachChild(c)
	last := len(ix.clusters) - 1
	ix.clusters[c.pos] = ix.clusters[last]
	ix.clusters[c.pos].pos = c.pos
	ix.clusters = ix.clusters[:last]
	c.removed = true
	c.ids, c.data, c.cands, c.children = nil, nil, nil, nil
	ix.merges++
}
