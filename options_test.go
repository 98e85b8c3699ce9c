package accluster

import (
	"math"
	"testing"
)

func TestOptionsApplied(t *testing.T) {
	o, err := gatherOptions([]Option{
		WithScenario(DiskScenario()),
		WithDivisionFactor(6),
		WithReorgEvery(42),
		WithDecay(0.75),
		WithReorgBudget(32, 2048),
		WithPageSize(8192),
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.scenario.Name != "disk" {
		t.Errorf("scenario = %q", o.scenario.Name)
	}
	if o.divisionFactor != 6 || o.reorgEvery != 42 || o.decay != 0.75 {
		t.Errorf("adaptive options: %+v", o)
	}
	if o.reorgClusters != 32 || o.reorgObjects != 2048 {
		t.Errorf("reorg options: %+v", o)
	}
	if o.pageSize != 8192 {
		t.Errorf("tree options: %+v", o)
	}
}

// TestOptionValidation is the table-driven audit of the option surface: a
// tuned configuration must not be able to smuggle an invalid Decay or
// ReorgEvery (or budget) past validation. Engine-level defaulting maps the
// zero value to "use the default", so without option-layer checks an
// explicit WithDecay(0) would silently become 0.5 instead of failing — and
// NaN used to pass the engine's range check outright.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		ok   bool
	}{
		{"decay valid", WithDecay(0.3), true},
		{"decay one", WithDecay(1), true},
		{"decay zero", WithDecay(0), false},
		{"decay negative", WithDecay(-0.5), false},
		{"decay above one", WithDecay(1.5), false},
		{"decay NaN", WithDecay(math.NaN()), false},
		{"reorg every valid", WithReorgEvery(1), true},
		{"reorg every zero", WithReorgEvery(0), false},
		{"reorg every negative", WithReorgEvery(-5), false},
		{"division factor valid", WithDivisionFactor(2), true},
		{"division factor one", WithDivisionFactor(1), false},
		{"division factor zero", WithDivisionFactor(0), false},
		{"budget valid", WithReorgBudget(1, 1), true},
		{"budget unlimited", WithReorgBudget(Unbudgeted, Unbudgeted), true},
		{"budget zero clusters", WithReorgBudget(0, 100), false},
		{"budget zero objects", WithReorgBudget(100, 0), false},
		{"shards negative", WithShards(-1), false},
		{"disk cache valid", WithDiskCache(1 << 20), true},
		{"disk cache zero", WithDiskCache(0), true},
		{"disk cache negative", WithDiskCache(-1), false},
		{"readahead valid", WithReadahead(64 << 10), true},
		{"readahead zero", WithReadahead(0), true},
		{"readahead negative", WithReadahead(-4096), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every constructor consuming adaptive options must agree.
			ac, errA := NewAdaptive(3, tc.opt)
			sh, errS := NewSharded(3, tc.opt, WithShards(2))
			if tc.ok {
				if errA != nil || errS != nil {
					t.Fatalf("valid option rejected: adaptive=%v sharded=%v", errA, errS)
				}
				_ = ac.Close()
				_ = sh.Close()
				return
			}
			if errA == nil || errS == nil {
				t.Fatalf("invalid option accepted: adaptive=%v sharded=%v", errA, errS)
			}
		})
	}
}

func TestOptionsReachConstructors(t *testing.T) {
	ac, err := NewAdaptive(4, WithDivisionFactor(3), WithReorgEvery(7))
	if err != nil {
		t.Fatal(err)
	}
	// Division factor 3 on a 4-dim root: 4 · 3·4/2 = 24 candidates; the
	// effect is observable through clustering behaviour, but here just
	// assert construction succeeded with non-defaults.
	if ac.Dims() != 4 {
		t.Error("dims")
	}
	rs, err := NewRStar(4, WithPageSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Dims() != 4 {
		t.Error("dims")
	}
}

func TestStatsZeroValueSafe(t *testing.T) {
	var s Stats
	if s.ModeledMSPerQuery(MemoryScenario()) != 0 {
		t.Error("zero stats must model to 0")
	}
	if s.ExploredFraction() != 0 || s.VerifiedFraction() != 0 {
		t.Error("zero stats fractions")
	}
	if s.String() == "" {
		t.Error("String on zero value")
	}
}

func TestStatsDimsCarried(t *testing.T) {
	ix, err := NewAdaptive(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().Dims; got != 7 {
		t.Errorf("Stats.Dims = %d, want 7", got)
	}
	ss, _ := NewSeqScan(5)
	if got := ss.Stats().Dims; got != 5 {
		t.Errorf("SeqScan Stats.Dims = %d", got)
	}
	rs, _ := NewRStar(3)
	if got := rs.Stats().Dims; got != 3 {
		t.Errorf("RStar Stats.Dims = %d", got)
	}
}
