package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dims = 5
	var buf []float32
	var rects []Rect
	for i := 0; i < 20; i++ {
		r := randomRect(rng, dims)
		rects = append(rects, r)
		buf = AppendFlat(buf, r)
	}
	if len(buf) != FlatLen(20, dims) {
		t.Fatalf("flat length = %d, want %d", len(buf), FlatLen(20, dims))
	}
	for i, want := range rects {
		got := FromFlat(buf, i, dims)
		if !got.Equal(want) {
			t.Fatalf("object %d: round trip %v != %v", i, got, want)
		}
	}
}

func TestFlatMatchesAgainstRect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(6) + 1
		var buf []float32
		var rects []Rect
		for i := 0; i < 8; i++ {
			r := randomRect(rng, dims)
			rects = append(rects, r)
			buf = AppendFlat(buf, r)
		}
		q := randomRect(rng, dims)
		for _, rel := range []Relation{Intersects, ContainedBy, Encloses} {
			for i, r := range rects {
				got, checked := FlatMatches(buf, i, q, rel)
				if got != r.Matches(rel, q) {
					return false
				}
				if checked < 1 || checked > dims {
					return false
				}
				if got && checked != dims {
					return false // a match must inspect every dimension
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFlatMatchesEarlyExit(t *testing.T) {
	// Object fails the intersection test in dimension 0: exactly one
	// dimension must be inspected.
	buf := AppendFlat(nil, Rect{Min: []float32{0.8, 0.1}, Max: []float32{0.9, 0.2}})
	q := Rect{Min: []float32{0.0, 0.0}, Max: []float32{0.1, 1.0}}
	ok, checked := FlatMatches(buf, 0, q, Intersects)
	if ok || checked != 1 {
		t.Fatalf("expected miss after 1 dim, got ok=%v checked=%d", ok, checked)
	}
}

func TestFlatMatchesUnknownRelation(t *testing.T) {
	buf := AppendFlat(nil, Point([]float32{0.5}))
	ok, checked := FlatMatches(buf, 0, Point([]float32{0.5}), Relation(9))
	if ok || checked != 0 {
		t.Fatalf("unknown relation: ok=%v checked=%d", ok, checked)
	}
}
