package core

import (
	"math"
	"math/rand"
	"testing"

	"accluster/internal/geom"
	"accluster/internal/sig"
)

// FuzzCandidateGrid checks the candidate grids against the clustering
// function they number, candidate by candidate: for a signature and division
// factor, the grid's candidate order must equal sig.Enumerate's, the
// membership counts an object bumps (on insert, and moved into a
// materialized child) must equal the per-candidate Split.MatchesObjectDim
// tests, and the candidates a query records must be exactly those passing
// Split.MatchesQueryDim, for every relation.
//
// Dimension 0 of the signature takes the fuzzed variation intervals when
// they lie inside the unit domain; the seed corpus hand-builds the
// degenerate ones float32 rounding produces: zero-width sides, sides a few
// float32 steps wide just above 0 and just below 1, sides closed at 1, and
// the interior cuts that round to 1 (f = 2 at one step below 1, f = 6 at
// three), where an object at 1 lies in several cells of one side. Each
// signature is then refined at random from there, and checked at every
// level. Objects put coordinates on the cuts, beside them, at 0 and at 1;
// queries add NaN, ±0 and ±Inf.
func FuzzCandidateGrid(f *testing.F) {
	below := func(k int) float32 { return 1 - float32(k)/(1<<24) } // k float32 steps below 1
	above := math.Float32frombits                                  // k float32 steps above 0
	// seed, f, refinement depth, then dimension 0's ALo, AHi, BLo, BHi.
	f.Add(int64(1), uint8(4), uint8(6), float32(0), float32(1), float32(0), float32(1))
	f.Add(int64(2), uint8(4), uint8(3), float32(0.5), float32(0.5), float32(0.5), float32(0.75))
	f.Add(int64(3), uint8(4), uint8(3), float32(0.25), float32(0.5), float32(0.75), float32(0.75))
	f.Add(int64(4), uint8(3), uint8(2), float32(0.25), float32(0.25), float32(0.25), float32(0.25))
	f.Add(int64(5), uint8(4), uint8(2), float32(1), float32(1), float32(0.5), float32(1))
	f.Add(int64(6), uint8(5), uint8(2), float32(1), float32(1), float32(1), float32(1))
	f.Add(int64(7), uint8(4), uint8(3), float32(0.5), float32(1), float32(0.75), float32(1))
	for k := 1; k <= 4; k++ {
		f.Add(int64(10+k), uint8(k+1), uint8(2), float32(0), above(uint32(k)), float32(0), above(uint32(k)))
		f.Add(int64(20+k), uint8(k+1), uint8(2), below(k), float32(1), below(k), float32(1))
		f.Add(int64(30+k), uint8(2*k), uint8(2), below(k), float32(1), float32(0), float32(1))
	}
	f.Add(int64(40), uint8(2), uint8(1), below(1), float32(1), below(1), float32(1))
	f.Add(int64(41), uint8(6), uint8(1), below(3), float32(1), below(3), float32(1))
	f.Add(int64(42), uint8(6), uint8(1), below(3), float32(1), float32(0.5), float32(1))
	for div := 2; div <= 8; div++ {
		f.Add(int64(50+div), uint8(div), uint8(8), float32(0), float32(1), float32(0), float32(1))
	}
	f.Fuzz(func(t *testing.T, seed int64, fdiv, depth uint8, aLo, aHi, bLo, bHi float32) {
		div := int(fdiv)
		if div < 2 || div > 8 {
			div = 2 + div%7
		}
		s := sig.Root(3)
		if d0 := (sig.Signature{ALo: []float32{aLo}, AHi: []float32{aHi}, BLo: []float32{bLo}, BHi: []float32{bHi}}); d0.Valid() {
			s.ALo[0], s.AHi[0], s.BLo[0], s.BHi[0] = aLo, aHi, bLo, bHi
		}
		rng := rand.New(rand.NewSource(seed))
		for level := 0; ; level++ {
			checkGrid(t, rng, s, div)
			splits := sig.Enumerate(s, div)
			if level == int(depth%10) || len(splits) == 0 {
				return
			}
			s = splits[rng.Intn(len(splits))].Child(s)
		}
	})
}

// checkGrid runs FuzzCandidateGrid's three assertions on one signature.
func checkGrid(t *testing.T, rng *rand.Rand, s sig.Signature, div int) {
	t.Helper()
	c := newCluster(s, div)
	cs := &c.cands
	splits := sig.Enumerate(s, div)
	if cs.len() != len(splits) {
		t.Fatalf("%v f=%d: grid numbers %d candidates, Enumerate derives %d", s, div, cs.len(), len(splits))
	}
	for k, want := range splits {
		if _, got := cs.split(k); got != want {
			t.Fatalf("%v f=%d: grid candidate %d is %+v, Enumerate's is %+v", s, div, k, got, want)
		}
	}

	// Coordinates worth probing, per dimension: every cut, its float32
	// neighbours, and the domain ends.
	dims := s.Dims()
	pool := make([][]float32, dims)
	for d := range pool {
		fa, fb := sig.Factor(s.ALo[d], s.AHi[d], div), sig.Factor(s.BLo[d], s.BHi[d], div)
		cuts := sig.Cuts(sig.Cuts(nil, s.ALo[d], s.AHi[d], fa), s.BLo[d], s.BHi[d], fb)
		pool[d] = []float32{0, 1}
		for _, x := range cuts {
			pool[d] = append(pool[d], x, math.Nextafter32(x, -1), math.Nextafter32(x, 2))
		}
	}
	pick := func(d int) float32 {
		if rng.Intn(8) == 0 {
			return rng.Float32()
		}
		return pool[d][rng.Intn(len(pool[d]))]
	}
	clamp := func(x float32) float32 { return min(max(x, 0), 1) }

	refMembership := func(s sig.Signature, splits []sig.Split, r geom.Rect) []int32 {
		want := make([]int32, len(splits))
		for k, sp := range splits {
			if sp.MatchesObjectDim(s, r.Min[sp.Dim], r.Max[sp.Dim]) {
				want[k] = 1
			}
		}
		return want
	}
	sameCounts := func(what string, r geom.Rect, got, want []int32) {
		t.Helper()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%v f=%d: object %v %s: candidate %d counted %d, want %d", s, div, r, what, k, got[k], want[k])
			}
		}
	}
	for o := 0; o < 32; o++ {
		r := geom.NewRect(dims)
		for d := 0; d < dims; d++ {
			lo, hi := clamp(pick(d)), clamp(pick(d))
			r.Min[d], r.Max[d] = min(lo, hi), max(lo, hi)
		}
		want := refMembership(s, splits, r)
		c.appendObject(uint32(o), r)
		sameCounts("inserted", r, cs.n, want)
		if len(splits) > 0 {
			// Move the object into a materialized child, as a split
			// does: the parent's counts must drop back to zero and the
			// child's must match its own clustering function.
			sp := splits[rng.Intn(len(splits))]
			csig := sp.Child(s)
			child := newCluster(csig, div)
			child.appendRow(c, 0)
			moveCounts(c, child, 0, int32(sp.Dim))
			c.removeRow(0)
			sameCounts("moved out", r, cs.n, make([]int32, len(splits)))
			csplits := sig.Enumerate(csig, div)
			sameCounts("moved into "+csig.String(), r, child.cands.n, refMembership(csig, csplits, r))
			c.appendObject(uint32(o), r)
		}
		c.removeObjectAt(0)
		sameCounts("deleted", r, cs.n, make([]int32, len(splits)))
	}

	special := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0, 1, float32(math.Inf(1)), float32(math.Inf(-1))}
	hits := make([]int, len(splits))
	for o := 0; o < 32; o++ {
		q := geom.NewRect(dims)
		for d := 0; d < dims; d++ {
			for _, x := range []*float32{&q.Min[d], &q.Max[d]} {
				*x = pick(d)
				if rng.Intn(6) == 0 {
					*x = special[rng.Intn(len(special))]
				}
			}
		}
		for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
			var delta statDelta
			recordCandidateStats(c, q, rel, &delta)
			clear(hits)
			for _, k := range delta.cands {
				hits[k]++
			}
			for k, sp := range splits {
				want := 0
				if sp.MatchesQueryDim(s, rel, q.Min[sp.Dim], q.Max[sp.Dim]) {
					want = 1
				}
				if hits[k] != want {
					t.Fatalf("%v f=%d: query %v %v recorded candidate %d (%+v) %d times, want %d", s, div, q, rel, k, sp, hits[k], want)
				}
			}
		}
	}
}

// TestRestoreRejectsOutsideUnitDomain pins the validation that keeps every
// restored cluster inside the domain the candidate grids are built for: a
// signature with an inverted or NaN variation interval, or a member that is
// not a valid rectangle, fails the restore with an error.
func TestRestoreRejectsOutsideUnitDomain(t *testing.T) {
	nan := float32(math.NaN())
	cases := []struct {
		name   string
		mutate func(s []ClusterSnapshot)
	}{
		{"inverted start interval", func(s []ClusterSnapshot) { s[1].Signature.ALo[0], s[1].Signature.AHi[0] = 0.4, 0.2 }},
		{"NaN end bound", func(s []ClusterSnapshot) { s[1].Signature.BHi[1] = nan }},
		{"NaN member coordinate", func(s []ClusterSnapshot) { s[0].Data[0] = nan }},
		{"inverted member", func(s []ClusterSnapshot) { s[0].Data[0], s[0].Data[1] = s[0].Data[1], s[0].Data[0] }},
	}
	for _, tc := range cases {
		snap := twoClusterIndex(t, 4, 4).Snapshot()
		tc.mutate(snap)
		if _, err := Restore(Config{Dims: 2}, snap); err == nil {
			t.Errorf("%s: Restore accepted the snapshot", tc.name)
		}
	}
}
