package blockcache

import (
	"math/rand"
	"sync"
	"testing"
)

// mkRegion builds a filled region of n members in dims dimensions.
func mkRegion(n, dims int, fill float32) *Region {
	r := new(Region)
	r.Reset(n, dims)
	for i := range r.IDs {
		r.IDs[i] = uint32(i)
	}
	for d := 0; d < dims; d++ {
		for i := 0; i < n; i++ {
			r.Lo[d][i] = fill
			r.Hi[d][i] = fill + 1
		}
	}
	return r
}

func TestRegionResetLayout(t *testing.T) {
	r := new(Region)
	r.Reset(10, 3)
	if r.Len() != 10 || len(r.Lo) != 3 || len(r.Hi) != 3 {
		t.Fatalf("shape: len=%d lo=%d hi=%d", r.Len(), len(r.Lo), len(r.Hi))
	}
	for d := 0; d < 3; d++ {
		if len(r.Lo[d]) != 10 || len(r.Hi[d]) != 10 {
			t.Fatalf("column %d: %d/%d", d, len(r.Lo[d]), len(r.Hi[d]))
		}
	}
	// Columns must not alias: writing one must not leak into neighbours.
	r.Lo[0][9] = 42
	r.Hi[0][0] = 43
	if r.Hi[0][9] == 42 || r.Lo[1][0] == 43 {
		t.Fatal("columns alias each other")
	}
	// Shrinking reuses the slab; the layout must stay disjoint.
	slabBefore := &r.slab[0]
	r.Reset(4, 3)
	if &r.slab[0] != slabBefore {
		t.Fatal("shrink reallocated the slab")
	}
	r.Lo[2][3] = 7
	if r.Hi[2][0] == 7 || r.Lo[1][3] == 7 {
		t.Fatal("columns alias after shrink")
	}
}

func TestGetPutHitMiss(t *testing.T) {
	c := New(1 << 20)
	k := int32(7)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	r := mkRegion(8, 2, 0.5)
	got := c.Put(k, r)
	if got != r {
		t.Fatal("first Put must admit the caller's region")
	}
	c.Unpin(got)
	again, ok := c.Get(k)
	if !ok || again != r {
		t.Fatal("resident region not returned")
	}
	c.Unpin(again)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.UsedBytes != r.Bytes() {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPutRace_KeepsCanonical(t *testing.T) {
	c := New(1 << 20)
	k := int32(1)
	first := mkRegion(8, 2, 0.1)
	second := mkRegion(8, 2, 0.2)
	a := c.Put(k, first)
	b := c.Put(k, second) // concurrent decode of the same key lost the race
	if a != first || b != first {
		t.Fatal("Put must return the first-admitted region for the key")
	}
	c.Unpin(a)
	c.Unpin(b)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate insert created %d entries", st.Entries)
	}
}

func TestBudgetEvictionClock(t *testing.T) {
	// Budget sized for ~4 of the 8 regions.
	one := mkRegion(64, 4, 0).Bytes()
	c := New(4 * one)
	for i := 0; i < 8; i++ {
		r := mkRegion(64, 4, float32(i))
		c.Unpin(c.Put(int32(i), r))
	}
	st := c.Stats()
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("over budget: %+v", st)
	}
	if st.Evictions == 0 || st.Entries > 4 {
		t.Fatalf("no eviction happened: %+v", st)
	}
	// Second chance: a just-referenced entry survives the next eviction —
	// the sweep grants it another pass, and every other entry it clears on
	// the way is evictable before the hand can come around again.
	var kept int32
	for i := 7; i >= 0; i-- {
		k := int32(i)
		if c.Contains(k) {
			kept = k
			break
		}
	}
	for i := 8; i < 11; i++ {
		r, ok := c.Get(kept)
		if !ok {
			t.Fatalf("referenced entry %v evicted", kept)
		}
		c.Unpin(r)
		c.Unpin(c.Put(int32(i), mkRegion(64, 4, float32(i))))
		if !c.Contains(kept) {
			t.Fatalf("entry %v evicted immediately after being referenced", kept)
		}
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	one := mkRegion(64, 4, 0).Bytes()
	c := New(2 * one)
	pinned := c.Put(0, mkRegion(64, 4, 0)) // stays pinned
	for i := 1; i < 8; i++ {
		c.Unpin(c.Put(int32(i), mkRegion(64, 4, float32(i))))
	}
	if !c.Contains(0) {
		t.Fatal("pinned entry evicted")
	}
	// The pinned columns must still be intact.
	if pinned.Lo[0][0] != 0 || pinned.Hi[0][0] != 1 {
		t.Fatal("pinned region corrupted")
	}
	c.Unpin(pinned)
}

func TestOversizeAndAllPinnedRejected(t *testing.T) {
	small := mkRegion(4, 2, 0)
	c := New(small.Bytes() + 1) // holds exactly one small region
	big := mkRegion(1024, 8, 0)
	if got := c.Put(0, big); got != big {
		t.Fatal("oversize Put must hand back the caller's region")
	}
	c.Unpin(big) // must be a no-op for a never-admitted region
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("oversize region admitted: %+v", st)
	}
	// Admit one small region and keep it pinned: the next insert finds
	// nothing evictable and must be rejected, not admitted over budget.
	held := c.Put(1, small)
	other := mkRegion(4, 2, 1)
	if got := c.Put(2, other); got != other {
		t.Fatal("Put with everything pinned must not evict")
	}
	if !c.Contains(1) {
		t.Fatal("pinned entry lost")
	}
	if st := c.Stats(); st.UsedBytes > st.BudgetBytes {
		t.Fatalf("budget exceeded: %+v", st)
	}
	c.Unpin(held)
}

// TestMultiEvictionAdmission pins the sweep-limit regression: admitting a
// region that needs several evictions must not abort mid-sweep because the
// evictions themselves shrank the ring — with everything unpinned and
// referenced, one admission evicts as many entries as the budget demands.
func TestMultiEvictionAdmission(t *testing.T) {
	small := mkRegion(16, 2, 0)
	c := New(10 * small.Bytes())
	for i := 0; i < 10; i++ {
		c.Unpin(c.Put(int32(i), mkRegion(16, 2, float32(i))))
	}
	// All ten resident and referenced; a region several times the size
	// needs several evictions behind a full ref-clearing pass.
	big := mkRegion(16*5, 2, 99)
	if got := c.Put(99, big); got != big {
		t.Fatal("multi-eviction admission refused")
	}
	c.Unpin(big)
	st := c.Stats()
	if !c.Contains(99) || st.Rejected != 0 {
		t.Fatalf("big region not admitted: %+v", st)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("over budget: %+v", st)
	}
}

// TestConcurrentCacheStress hammers Get/Put/Unpin from many goroutines over
// a tiny budget (run under -race in CI): pins must protect every region a
// worker is reading, and the bookkeeping must stay consistent.
func TestConcurrentCacheStress(t *testing.T) {
	one := mkRegion(64, 4, 0).Bytes()
	c := New(3 * one)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := int32(rng.Intn(16))
				r, ok := c.Get(k)
				if !ok {
					r = c.Put(k, mkRegion(64, 4, float32(k)))
				}
				// Read through the pin; the fill value must match the
				// key no matter what eviction does around us.
				if r.Lo[0][0] != float32(k) {
					t.Errorf("worker %d: region %d holds value %g", w, k, r.Lo[0][0])
					c.Unpin(r)
					return
				}
				c.Unpin(r)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("budget exceeded at rest: %+v", st)
	}
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("stress exercised nothing: %+v", st)
	}
}

func TestStatsPinnedAndEvictionAccounting(t *testing.T) {
	r0 := mkRegion(16, 2, 0)
	per := r0.Bytes()
	c := New(4 * per) // room for exactly four regions
	regions := make([]*Region, 4)
	for i := range regions {
		regions[i] = c.Put(int32(i), mkRegion(16, 2, 0))
	}
	// All four resident and pinned (Put returns pinned).
	s := c.Stats()
	if s.Entries != 4 || s.Pinned != 4 || s.PinnedBytes != 4*per {
		t.Fatalf("after 4 pinned puts: %+v (per=%d)", s, per)
	}
	if s.UsedBytes != 4*per || s.BudgetBytes != 4*per {
		t.Fatalf("byte accounting: %+v", s)
	}
	// Release two pins: pinned figures must drop, residency must not.
	c.Unpin(regions[0])
	c.Unpin(regions[1])
	s = c.Stats()
	if s.Entries != 4 || s.Pinned != 2 || s.PinnedBytes != 2*per {
		t.Fatalf("after 2 unpins: %+v", s)
	}
	// Admitting a fifth region forces evictions of unpinned entries only.
	c.Put(100, mkRegion(16, 2, 0))
	s = c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", s)
	}
	if s.Entries+int(s.Evictions) != 5 {
		t.Fatalf("entries (%d) + evictions (%d) must account for all 5 puts", s.Entries, s.Evictions)
	}
	for i := 2; i < 4; i++ { // the still-pinned regions must have survived
		if !c.Contains(int32(i)) {
			t.Fatalf("pinned region %d was evicted", i)
		}
	}
	if s.UsedBytes != int64(s.Entries)*per {
		t.Fatalf("used bytes %d do not match %d resident entries", s.UsedBytes, s.Entries)
	}
}
