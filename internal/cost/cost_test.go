package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestPaperTable2Constants(t *testing.T) {
	// Pin the reference constants of paper Table 2 (§6).
	if DiskAccessMS != 15.0 {
		t.Errorf("DiskAccessMS = %g, want 15", DiskAccessMS)
	}
	if SigCheckMS != 5e-7 {
		t.Errorf("SigCheckMS = %g, want 5e-7", SigCheckMS)
	}
	// 20 MB/s: 1/(20·2^20) s/B ≈ 4.77e-5 ms/B (paper rounds to 4.77e-5).
	if math.Abs(TransferMSPerByte-4.77e-5) > 1e-7 {
		t.Errorf("TransferMSPerByte = %g, want ≈4.77e-5", TransferMSPerByte)
	}
	// 300 MB/s ≈ 3.18e-6 ms/B.
	if math.Abs(VerifyMSPerByte-3.18e-6) > 1e-8 {
		t.Errorf("VerifyMSPerByte = %g, want ≈3.18e-6", VerifyMSPerByte)
	}
}

func TestScenarioComposition(t *testing.T) {
	mem, dsk := Memory(), Disk()
	if mem.Name != "memory" || dsk.Name != "disk" {
		t.Error("scenario names")
	}
	if mem.SeekMS != 0 || mem.TransferMSPerByte != 0 {
		t.Error("memory scenario must have no I/O costs")
	}
	if dsk.B() <= mem.B() {
		t.Error("disk B must include the seek (B' = B + access time, §5.ii)")
	}
	if !almost(dsk.B()-mem.B(), DiskAccessMS) {
		t.Errorf("disk B - memory B = %g, want %g", dsk.B()-mem.B(), DiskAccessMS)
	}
	objBytes := 132 // 16 dims
	if !almost(dsk.C(objBytes)-mem.C(objBytes), float64(objBytes)*TransferMSPerByte) {
		t.Error("disk C must add the per-object transfer time (C' = C + read time)")
	}
	if mem.A() != dsk.A() {
		t.Error("A is storage independent (§5.ii: A' = A)")
	}
}

func TestClusterTimeEquation(t *testing.T) {
	p := Disk()
	// T = A + p(B + nC) spelled out.
	pAccess, n, objBytes := 0.25, 1000, 132
	want := p.A() + pAccess*(p.B()+float64(n)*p.C(objBytes))
	if got := p.ClusterTime(pAccess, n, objBytes); !almost(got, want) {
		t.Errorf("ClusterTime = %g, want %g", got, want)
	}
	// Zero access probability costs only the signature check.
	if got := p.ClusterTime(0, 1e6, objBytes); !almost(got, p.A()) {
		t.Errorf("never-accessed cluster costs %g, want A=%g", got, p.A())
	}
}

// TestBenefitDerivation checks the closed forms of eq. 3 and eq. 5 against
// their definitions as differences of eq. 1 terms (β = T_c − (T_c' + T_s),
// μ = (T_c + T_a) − T_a'), under the paper's assumptions p_c' = p_c,
// n_c' = n_c − n_s for splits and p_a' = p_a, n_a' = n_a + n_c for merges.
func TestBenefitDerivation(t *testing.T) {
	check := func(p Params) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			objBytes := 4 + 8*(1+rng.Intn(40))
			pc := rng.Float64()
			ps := pc * rng.Float64() // candidate probability ≤ cluster probability
			nc := rng.Intn(100000) + 1
			ns := rng.Intn(nc + 1)

			// Split derivation.
			tBefore := p.ClusterTime(pc, nc, objBytes)
			tAfter := p.ClusterTime(pc, nc-ns, objBytes) + p.ClusterTime(ps, ns, objBytes)
			if !almost(p.MaterializationBenefit(pc, ps, ns, objBytes), tBefore-tAfter) {
				return false
			}

			// Merge derivation: cluster c with parent a.
			pa := math.Min(1, pc+rng.Float64()*(1-pc))
			na := rng.Intn(100000) + 1
			tBefore = p.ClusterTime(pc, nc, objBytes) + p.ClusterTime(pa, na, objBytes)
			tAfter = p.ClusterTime(pa, na+nc, objBytes)
			return almost(p.MergingBenefit(pc, pa, nc, objBytes), tBefore-tAfter)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s scenario: %v", p.Name, err)
		}
	}
	check(Memory())
	check(Disk())
}

func TestBenefitMonotonicity(t *testing.T) {
	p := Disk()
	objBytes := 132
	// Lower candidate access probability → higher materialization benefit.
	b1 := p.MaterializationBenefit(0.8, 0.1, 5000, objBytes)
	b2 := p.MaterializationBenefit(0.8, 0.5, 5000, objBytes)
	if b1 <= b2 {
		t.Error("benefit must grow as candidate probability drops (§5)")
	}
	// More matching objects → higher benefit.
	if p.MaterializationBenefit(0.8, 0.1, 10000, objBytes) <= b1 {
		t.Error("benefit must grow with the number of qualifying objects")
	}
	// Merging pays when child probability approaches the parent's.
	m1 := p.MergingBenefit(0.75, 0.8, 100, objBytes)
	m2 := p.MergingBenefit(0.10, 0.8, 100, objBytes)
	if m1 <= m2 {
		t.Error("merging benefit must grow as p_c approaches p_a")
	}
	// Splitting a candidate with the cluster's own probability never pays.
	if p.MaterializationBenefit(0.5, 0.5, 100000, objBytes) > 0 {
		t.Error("no gain when the candidate is explored as often as the cluster")
	}
}

func TestDiskDiscouragesFineClusters(t *testing.T) {
	// The disk seek makes small clusters unprofitable: a candidate worth
	// materializing in memory can be worthless on disk (§7.2 observes far
	// fewer clusters on disk). Example: 500 objects, p_s = p_c/2.
	objBytes := 132
	mem, dsk := Memory(), Disk()
	if mem.MaterializationBenefit(1.0, 0.5, 500, objBytes) <= 0 {
		t.Error("500-object candidate should be profitable in memory")
	}
	if dsk.MaterializationBenefit(1.0, 0.5, 500, objBytes) >= 0 {
		t.Error("500-object candidate should be unprofitable on disk")
	}
	// But a large candidate pays even on disk (threshold ≈ B'/C' ≈ 2240
	// objects at 16 dims).
	if dsk.MaterializationBenefit(1.0, 0.5, 100000, objBytes) <= 0 {
		t.Error("100k-object candidate should be profitable on disk")
	}
	// Very small candidates do not pay even in memory: the exploration
	// setup B bounds cluster granularity (≈ B/C ≈ 60 objects at 16 dims).
	if mem.MaterializationBenefit(1.0, 0.5, 10, objBytes) >= 0 {
		t.Error("10-object candidate should be unprofitable in memory")
	}
}

// TestRelocationPrice pins r = 2·C(objBytes) + 2·ExploreSetupMS/f² at f = 4,
// worked by hand from Table 2's constants. An object of d dims takes
// 8·d+4 bytes: 68 at 8 dims, 132 at 16.
func TestRelocationPrice(t *testing.T) {
	for _, tc := range []struct {
		p        Params
		objBytes int
		c, r     float64 // C and r in ms, by hand
	}{
		// memory: C = bytes·3.18e-6; 2·B/f² = 2·0.025/16 = 3.125e-3
		{Memory(), 68, 2.1624e-4, 4.3248e-4 + 3.125e-3},  // r ≈ 16.5·C
		{Memory(), 132, 4.1976e-4, 8.3952e-4 + 3.125e-3}, // r ≈ 9.4·C
		// disk: C = bytes·(3.18e-6 + 4.77e-5) = bytes·5.088e-5; the seek
		// is paid per exploration, not per relocated object
		{Disk(), 68, 3.45984e-3, 6.91968e-3 + 3.125e-3},
		{Disk(), 132, 6.71616e-3, 1.343232e-2 + 3.125e-3},
	} {
		if got := tc.p.C(tc.objBytes); !almost(got, tc.c) {
			t.Errorf("%s %d B: C = %g, want %g", tc.p.Name, tc.objBytes, got, tc.c)
		}
		if got := tc.p.Relocation(tc.objBytes, 4, 100, 0.5).ObjectMS; !almost(got, tc.r) {
			t.Errorf("%s %d B: r = %g, want %g", tc.p.Name, tc.objBytes, got, tc.r)
		}
	}
	// H = ReorgEvery/(1−decay): 100/(1−0.5) = 200 queries.
	if got := Memory().Relocation(132, 4, 100, 0.5).Horizon; got != 200 {
		t.Errorf("H at period 100, decay 0.5 = %g, want 200", got)
	}
	if got := Memory().Relocation(132, 4, 100, 1).Horizon; !math.IsInf(got, 1) {
		t.Errorf("H at decay 1 = %g, want +Inf", got)
	}
}

// TestPricedRuleHandWorked checks the priced split and merge tests against
// decisions worked out by hand on a scenario with round prices: A = 1 ms,
// B = 16 ms and C = 1 ms per 4-byte object, so at f = 4 the relocation price
// is r = 2·1 + 2·16/16 = 4 ms. Reorganizing every 10 queries with decay 0.5
// gives the horizon H = 10/(1−0.5) = 20 queries.
//
// Split, pc = 1, ps = 0.5: β = 0.5·ns − 0.5·16 − 1 = 0.5·ns − 9, which is
// positive from ns = 19. β·H = 10·ns − 180 beats ns·r = 4·ns only from
// ns = 31: at ns = 30 both sides are 120.
//
// Merge, pa = 1, pc = 0.75: μ = 1 + 0.75·16 − 0.25·nc = 13 − 0.25·nc, which
// is positive up to nc = 51. μ·H = 260 − 5·nc beats nc·r = 4·nc only up to
// nc = 28: at 28 it is 120 against 112, at 29 115 against 116.
func TestPricedRuleHandWorked(t *testing.T) {
	const objBytes = 4
	p := Params{Name: "hand", SigCheckMS: 1, ExploreSetupMS: 16, VerifyMSPerByte: 0.25}
	rl := p.Relocation(objBytes, 4, 10, 0.5)
	if rl.ObjectMS != 4 || rl.Horizon != 20 {
		t.Fatalf("r = %g, H = %g; want 4 and 20", rl.ObjectMS, rl.Horizon)
	}
	never := p.Relocation(objBytes, 4, 10, 1) // decay 1: nothing forgotten

	type decision struct {
		n                   int
		paper, priced, keep bool // paper rule, priced at H = 20, priced at H = ∞
	}
	for _, d := range []decision{
		{18, false, false, false}, // β = 0
		{19, true, false, true},   // β = 0.5
		{30, true, false, true},   // β = 6: β·H = 120 = ns·r
		{31, true, true, true},    // β = 6.5: β·H = 130 > 124
		{200, true, true, true},
	} {
		if got := p.MaterializationBenefit(1, 0.5, d.n, objBytes) > 0; got != d.paper {
			t.Errorf("split ns=%d: β > 0 is %v, want %v", d.n, got, d.paper)
		}
		if got := p.PricedMaterializationBenefit(1, 0.5, d.n, objBytes, Relocation{}) > 0; got != d.paper {
			t.Errorf("split ns=%d: paper rule materializes %v, want %v", d.n, got, d.paper)
		}
		if got := p.PricedMaterializationBenefit(1, 0.5, d.n, objBytes, rl) > 0; got != d.priced {
			t.Errorf("split ns=%d: priced rule materializes %v, want %v", d.n, got, d.priced)
		}
		if got := p.PricedMaterializationBenefit(1, 0.5, d.n, objBytes, never) > 0; got != d.keep {
			t.Errorf("split ns=%d: decay 1 materializes %v, want %v", d.n, got, d.keep)
		}
	}
	for _, d := range []decision{
		{1, true, true, true},
		{28, true, true, true},    // μ = 6: μ·H = 120 > 112
		{29, true, false, true},   // μ = 5.75: μ·H = 115 < 116
		{51, true, false, true},   // μ = 0.25
		{52, false, false, false}, // μ = 0
	} {
		if got := p.MergingBenefit(0.75, 1, d.n, objBytes) > 0; got != d.paper {
			t.Errorf("merge nc=%d: μ > 0 is %v, want %v", d.n, got, d.paper)
		}
		if got := p.PricedMergingBenefit(0.75, 1, d.n, objBytes, Relocation{}) > 0; got != d.paper {
			t.Errorf("merge nc=%d: paper rule merges %v, want %v", d.n, got, d.paper)
		}
		if got := p.PricedMergingBenefit(0.75, 1, d.n, objBytes, rl) > 0; got != d.priced {
			t.Errorf("merge nc=%d: priced rule merges %v, want %v", d.n, got, d.priced)
		}
		if got := p.PricedMergingBenefit(0.75, 1, d.n, objBytes, never) > 0; got != d.keep {
			t.Errorf("merge nc=%d: decay 1 merges %v, want %v", d.n, got, d.keep)
		}
	}
}

func TestMeterAccumulation(t *testing.T) {
	var m Meter
	m.Add(Meter{Queries: 2, SigChecks: 10, Explorations: 3, Seeks: 3,
		ObjectsVerified: 100, BytesVerified: 800, BytesTransferred: 1320, Results: 7})
	m.Add(Meter{Queries: 1, SigChecks: 5, Explorations: 1, Seeks: 1,
		ObjectsVerified: 50, BytesVerified: 400, BytesTransferred: 660, Results: 3})
	if m.Queries != 3 || m.SigChecks != 15 || m.Results != 10 {
		t.Fatalf("Add: %v", m)
	}
	d := m.Sub(Meter{Queries: 1, SigChecks: 5, Explorations: 1, Seeks: 1,
		ObjectsVerified: 50, BytesVerified: 400, BytesTransferred: 660, Results: 3})
	if d.Queries != 2 || d.BytesTransferred != 1320 {
		t.Fatalf("Sub: %v", d)
	}
	m.Reset()
	if m != (Meter{}) {
		t.Fatal("Reset must zero the meter")
	}
}

func TestMeterModeledTime(t *testing.T) {
	m := Meter{
		Queries:          2,
		SigChecks:        1000,
		Explorations:     10,
		Seeks:            10,
		BytesVerified:    1 << 20,
		BytesTransferred: 1 << 20,
	}
	mem := Memory()
	wantMem := 1000*mem.SigCheckMS + 10*mem.ExploreSetupMS + float64(1<<20)*mem.VerifyMSPerByte
	if got := m.ModeledMS(mem); !almost(got, wantMem) {
		t.Errorf("memory modeled = %g, want %g", got, wantMem)
	}
	dsk := Disk()
	wantDisk := wantMem + 10*DiskAccessMS + float64(1<<20)*TransferMSPerByte
	if got := m.ModeledMS(dsk); !almost(got, wantDisk) {
		t.Errorf("disk modeled = %g, want %g", got, wantDisk)
	}
	if got := m.ModeledMSPerQuery(dsk); !almost(got, wantDisk/2) {
		t.Errorf("per-query = %g, want %g", got, wantDisk/2)
	}
	if (Meter{}).ModeledMSPerQuery(mem) != 0 {
		t.Error("no queries → per-query time 0")
	}
	if m.String() == "" {
		t.Error("String must render")
	}
}
