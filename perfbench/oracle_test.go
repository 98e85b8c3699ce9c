package main

import (
	"sort"
	"testing"
)

func TestOracleHandChecked(t *testing.T) {
	// Four 2-d boxes:
	//   10: [0,1]×[0,1]       the unit square
	//   11: [0.5,0.6]×[0.5,0.6]
	//   12: [1,2]×[0,1]       touches 10 along x = 1
	//   13: [3,4]×[3,4]       far away
	b := newBoxes(2, 4)
	b.add(10, []float32{0, 0}, []float32{1, 1})
	b.add(11, []float32{0.5, 0.5}, []float32{0.6, 0.6})
	b.add(12, []float32{1, 0}, []float32{2, 1})
	b.add(13, []float32{3, 3}, []float32{4, 4})
	for _, c := range []struct {
		name     string
		rel      relation
		qlo, qhi []float32
		want     []uint32
	}{
		{"closed intervals touch", intersects, []float32{1, 1}, []float32{1, 1}, []uint32{10, 12}},
		{"inner box", intersects, []float32{0.55, 0.55}, []float32{0.7, 0.7}, []uint32{10, 11}},
		{"nothing", intersects, []float32{2.5, 0}, []float32{2.9, 5}, nil},
		{"point on shared edge", encloses, []float32{1, 0.5}, []float32{1, 0.5}, []uint32{10, 12}},
		{"point inside two", encloses, []float32{0.55, 0.6}, []float32{0.55, 0.6}, []uint32{10, 11}},
		{"box enclosed by one", encloses, []float32{0.2, 0.2}, []float32{0.9, 0.9}, []uint32{10}},
		{"box straddling", encloses, []float32{0.9, 0.2}, []float32{1.1, 0.3}, nil},
	} {
		got := b.match(nil, c.qlo, c.qhi, c.rel)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
				break
			}
		}
	}

	// Replacing box 13 makes the far query match its new occupant.
	b.set(3, 20, []float32{2.6, 1}, []float32{2.7, 2})
	if got := b.match(nil, []float32{2.5, 0}, []float32{2.9, 5}, intersects); len(got) != 1 || got[0] != 20 {
		t.Errorf("after set: got %v, want [20]", got)
	}
}

func TestDigest(t *testing.T) {
	a := digestOf([]uint32{3, 1, 2})
	if b := digestOf([]uint32{2, 3, 1}); a != b {
		t.Error("digest depends on emission order")
	}
	for _, other := range [][]uint32{{1, 2}, {1, 2, 4}, {1, 2, 3, 3}, nil} {
		if digestOf(other) == a {
			t.Errorf("digest of %v equals that of [1 2 3]", other)
		}
	}
}

func TestDigestBatchSplitsByEvent(t *testing.T) {
	delivered := []uint32{5, 6, 7, 8}
	got := digestBatch(nil, delivered, []int{1, 0, 3})
	want := []digest{digestOf([]uint32{5}), {}, digestOf([]uint32{6, 7, 8})}
	if len(got) != len(want) {
		t.Fatalf("got %d digests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// Counts claiming more deliveries than were made yield badDigest, which
	// differs even from the empty answer.
	if got := digestBatch(nil, delivered, []int{5}); got[0] != badDigest || got[0] == digestOf(nil) {
		t.Errorf("short delivery: got %v, want badDigest", got[0])
	}
}
