package sig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"accluster/internal/geom"
)

func TestEnumerateCountsOnRoot(t *testing.T) {
	// On the root, both variation intervals of every dimension coincide
	// ([0,1]), so symmetry leaves f(f+1)/2 feasible combinations per
	// dimension (§4.2 footnote 3): for f=4 that is 10 per dimension.
	for _, dims := range []int{1, 2, 16, 40} {
		splits := Enumerate(Root(dims), 4)
		want := dims * 10
		if len(splits) != want {
			t.Errorf("dims=%d: %d candidates, want %d", dims, len(splits), want)
		}
	}
	// Division factor 2: 2*3/2 = 3 per dimension.
	if got := len(Enumerate(Root(3), 2)); got != 9 {
		t.Errorf("f=2 dims=3: %d candidates, want 9", got)
	}
}

func TestEnumerateCountsAsymmetric(t *testing.T) {
	// When the two variation intervals differ, all feasible combinations
	// are kept; with A entirely below B, every combination is feasible:
	// f² per refined dimension.
	s := Root(1)
	s.ALo[0], s.AHi[0] = 0.0, 0.25
	s.BLo[0], s.BHi[0] = 0.75, 1.0
	if got := len(Enumerate(s, 4)); got != 16 {
		t.Errorf("asymmetric: %d candidates, want 16", got)
	}
}

func TestEnumerateBoundsPaperExample3(t *testing.T) {
	// §4.2 Example 3: refining c1 = {d1[0,0.25):[0,0.25), d2 root} on d1
	// with f=4 yields subintervals of width 0.0625 and only 10 distinct
	// combinations.
	s := Root(2)
	s.ALo[0], s.AHi[0] = 0, 0.25
	s.BLo[0], s.BHi[0] = 0, 0.25
	var d0 []Split
	for _, sp := range Enumerate(s, 4) {
		if sp.Dim == 0 {
			d0 = append(d0, sp)
		}
	}
	if len(d0) != 10 {
		t.Fatalf("d1 candidates = %d, want 10", len(d0))
	}
	// The first candidate corresponds to starts in [0,0.0625) and ends in
	// [0,0.0625).
	found := false
	for _, sp := range d0 {
		aLo, aHi, bLo, bHi := sp.Bounds(s)
		if aLo == 0 && aHi == 0.0625 && bLo == 0 && bHi == 0.0625 {
			found = true
		}
		if aLo > bHi {
			t.Errorf("infeasible candidate emitted: a=[%g,%g) b=[%g,%g)", aLo, aHi, bLo, bHi)
		}
	}
	if !found {
		t.Error("expected candidate σ1 = d1[0,0.0625):[0,0.0625)")
	}
}

func TestChildBackwardCompatibility(t *testing.T) {
	// Property (§3.3): any object qualifying for a subcluster qualifies
	// for the cluster. Check over random refinement chains.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(4) + 1
		s := Root(dims)
		for depth := 0; depth < 3; depth++ {
			splits := Enumerate(s, 4)
			if len(splits) == 0 {
				return true
			}
			sp := splits[rng.Intn(len(splits))]
			child := sp.Child(s)
			if !s.Covers(child) {
				return false
			}
			for i := 0; i < 30; i++ {
				o := randomRect(rng, dims)
				if child.MatchesObject(o) && !s.MatchesObject(o) {
					return false
				}
			}
			s = child
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChildrenPartitionParentMembers(t *testing.T) {
	// For a fixed dimension the candidates tile the parent's variation
	// rectangle: every parent member matches at least one candidate on
	// that dimension, and no two distinct candidates of the same dimension
	// share a member.
	s := Root(2)
	splits := Enumerate(s, 4)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		o := randomRect(rng, 2)
		for d := 0; d < 2; d++ {
			matches := 0
			for _, sp := range splits {
				if sp.Dim != d {
					continue
				}
				if sp.MatchesObjectDim(s, o.Min[d], o.Max[d]) {
					matches++
				}
			}
			if matches != 1 {
				t.Fatalf("object %v matches %d candidates on dim %d, want exactly 1", o, matches, d)
			}
		}
	}
}

func TestMatchesObjectDimAgreesWithChildSignature(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(4) + 1
		s := Root(dims)
		if n := rng.Intn(3); n > 0 {
			for k := 0; k < n; k++ {
				splits := Enumerate(s, 4)
				if len(splits) == 0 {
					break
				}
				s = splits[rng.Intn(len(splits))].Child(s)
			}
		}
		splits := Enumerate(s, 4)
		for i := 0; i < 20; i++ {
			o := randomRect(rng, dims)
			if !s.MatchesObject(o) {
				continue
			}
			for _, sp := range splits {
				fast := sp.MatchesObjectDim(s, o.Min[sp.Dim], o.Max[sp.Dim])
				slow := sp.Child(s).MatchesObject(o)
				if fast != slow {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMatchesQueryDimAgreesWithChildSignature(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(4) + 1
		s := Root(dims)
		splits := Enumerate(s, 4)
		for i := 0; i < 20; i++ {
			q := randomRect(rng, dims)
			for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
				if !s.MatchesQuery(q, rel) {
					continue
				}
				for _, sp := range splits {
					fast := sp.MatchesQueryDim(s, rel, q.Min[sp.Dim], q.Max[sp.Dim])
					slow := sp.Child(s).MatchesQuery(q, rel)
					if fast != slow {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateSkipsDegenerate(t *testing.T) {
	s := Root(2)
	// Dimension 0 fully degenerate: no candidates from it.
	s.ALo[0], s.AHi[0] = 0.5, 0.5
	s.BLo[0], s.BHi[0] = 0.5, 0.5
	for _, sp := range Enumerate(s, 4) {
		if sp.Dim == 0 {
			t.Fatalf("degenerate dimension produced candidate %+v", sp)
		}
	}
	// Only the A side degenerate: B still refined, f candidates.
	s2 := Root(1)
	s2.ALo[0], s2.AHi[0] = 0.5, 0.5
	s2.BLo[0], s2.BHi[0] = 0.5, 1.0
	got := Enumerate(s2, 4)
	if len(got) != 4 {
		t.Fatalf("A-degenerate dimension: %d candidates, want 4", len(got))
	}
	for _, sp := range got {
		if sp.FA != 1 || sp.FB != 4 {
			t.Fatalf("unexpected division: %+v", sp)
		}
	}
}

func TestEnumerateRejectsSmallFactor(t *testing.T) {
	if Enumerate(Root(2), 1) != nil || Enumerate(Root(2), 0) != nil {
		t.Error("division factor < 2 must produce no candidates")
	}
}
