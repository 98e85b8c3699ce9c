package cost

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"accluster/internal/geom"
)

func TestCalibrateProducesUsableParams(t *testing.T) {
	c := Calibrate(16)
	if c.SigCheckMS <= 0 || c.VerifyMSPerByte <= 0 || c.ExploreSetupMS <= 0 {
		t.Fatalf("non-positive calibration: %+v", c)
	}
	// Sanity bands: a signature check is sub-microsecond on anything
	// modern; verification faster than 1 ms per byte.
	if c.SigCheckMS > 1e-2 {
		t.Errorf("signature check %g ms implausibly slow", c.SigCheckMS)
	}
	if c.VerifyMSPerByte > 1e-3 {
		t.Errorf("verification %g ms/B implausibly slow", c.VerifyMSPerByte)
	}
	// Exploration setup covers many candidate updates: it must exceed a
	// single signature check.
	if c.ExploreSetupMS <= c.SigCheckMS {
		t.Errorf("explore setup %g not above sig check %g", c.ExploreSetupMS, c.SigCheckMS)
	}
}

func TestCalibratedScenarios(t *testing.T) {
	c := Calibrate(8)
	mem := c.MemoryParams()
	if mem.Name != "memory-calibrated" || mem.SeekMS != 0 || mem.TransferMSPerByte != 0 {
		t.Fatalf("memory params: %+v", mem)
	}
	dsk := c.DiskParams()
	if dsk.SeekMS != DiskAccessMS || dsk.TransferMSPerByte != TransferMSPerByte {
		t.Fatalf("disk params must keep the reference disk: %+v", dsk)
	}
	if dsk.B() <= mem.B() {
		t.Error("disk B must include the seek")
	}
	// The benefit algebra holds for calibrated params too.
	if mem.MaterializationBenefit(1, 0, 1_000_000, 132) <= 0 {
		t.Error("a huge cold candidate must be profitable")
	}
}

func TestCalibrateDegenerateDims(t *testing.T) {
	c := Calibrate(0) // clamped to 1
	if c.SigCheckMS <= 0 {
		t.Fatalf("calibration with clamped dims: %+v", c)
	}
}

// TestCalibrateTracksColumnKernel checks that the calibrated verification
// rate prices the kernel the adaptive engines verify with: Calibrate(16)'s
// VerifyMSPerByte must lie within 3× of the per-byte cost of
// geom.FilterIntersects timed here, on columns of random intervals, charging
// 8 B per surviving candidate per scanned column as sig.Scan.Explore does.
// A rate timed on a row-major per-object test overprices every verified
// byte several times over where the kernel is vectorized. Timing-based, so
// it is skipped under -short and -race.
func TestCalibrateTracksColumnKernel(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing comparison: skipped under -short and -race")
	}
	const dims, n = 16, 4096
	rng := rand.New(rand.NewSource(5))
	lo, hi := make([][]float32, dims), make([][]float32, dims)
	for d := range lo {
		lo[d], hi[d] = make([]float32, n), make([]float32, n)
		for i := range lo[d] {
			a, b := rng.Float32(), rng.Float32()
			lo[d][i], hi[d][i] = min(a, b), max(a, b)
		}
	}
	bits := make([]uint64, geom.BitmapWords(n))
	explore := func() (bytes int64) {
		geom.InitBitmap(bits, n)
		alive := n
		for d := 0; d < dims && alive > 0; d++ {
			bytes += int64(alive) * 8
			alive = geom.FilterIntersects(lo[d], hi[d], 0.25, 0.75, bits)
		}
		return bytes
	}
	// best returns the lowest of five measurements, damping scheduling
	// noise on both sides of the comparison.
	best := func(measure func() float64) float64 {
		m := math.Inf(1)
		for i := 0; i < 5; i++ {
			m = math.Min(m, measure())
		}
		return m
	}
	kernel := best(func() float64 {
		var bytes int64
		start := time.Now()
		for r := 0; r < 256; r++ {
			bytes += explore()
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(bytes)
	})
	calibrated := best(func() float64 { return Calibrate(dims).VerifyMSPerByte })
	ratio := calibrated / kernel
	t.Logf("Calibrate(%d): %.3g ms/B; kernel: %.3g ms/B; ratio %.2f", dims, calibrated, kernel, ratio)
	if ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("calibrated verification rate is %.2f× the column kernel's, want within 3×", ratio)
	}
}
