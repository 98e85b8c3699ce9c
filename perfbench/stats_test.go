package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	q, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	// Nearest rank ceil(0.99·1000) = 990: value 990, samples 991..1000 beyond.
	if q.Value != 990 || q.N != 1000 || q.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, 10 beyond", q)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must fail")
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must fail")
	}
	q, err = percentile(seq(20), 0.5)
	if err != nil || q.Value != 10 || q.Beyond != 10 {
		t.Fatalf("p50 of 1..20 = %+v, %v; want value 10 with 10 beyond", q, err)
	}
}

func TestPercentilePrintsItsSampleCount(t *testing.T) {
	q, err := percentile(seq(2000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s := q.String(); !strings.Contains(s, "n=2000") || !strings.Contains(s, "20 beyond") {
		t.Fatalf("%q does not state the sample count and the samples beyond", s)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}
