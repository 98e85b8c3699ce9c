package accluster

import "testing"

func TestOptionsApplied(t *testing.T) {
	o, err := gatherOptions([]Option{
		WithScenario(DiskScenario()),
		WithReorgEvery(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.scenario.Name != "disk" {
		t.Errorf("scenario = %q", o.scenario.Name)
	}
	if o.reorgEvery != 42 {
		t.Errorf("adaptive options: %+v", o)
	}
}

// TestOptionValidation is the table-driven audit of the option surface: a
// tuned configuration must not be able to smuggle an invalid ReorgEvery (or
// shard count or cache budget) past validation. Engine-level defaulting maps
// the zero value to "use the default", so without option-layer checks an
// explicit WithReorgEvery(0) would silently become 100 instead of failing.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		ok   bool
	}{
		{"reorg every valid", WithReorgEvery(1), true},
		{"reorg every zero", WithReorgEvery(0), false},
		{"reorg every negative", WithReorgEvery(-5), false},
		{"shards negative", WithShards(-1), false},
		{"disk cache valid", WithDiskCache(1 << 20), true},
		{"disk cache zero", WithDiskCache(0), true},
		{"disk cache negative", WithDiskCache(-1), false},
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
	ac, err := NewAdaptive(4, WithReorgEvery(7))
	if err != nil {
		t.Fatal(err)
	}
	if ac.Dims() != 4 {
		t.Error("dims")
	}
	rs, err := NewRStar(4)
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
