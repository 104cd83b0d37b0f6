package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestParseSizeDistForms(t *testing.T) {
	cases := []struct {
		in   string
		want string
		mean float64
	}{
		{"64", "64", 64},
		{"1500", "1500", 1500},
		{"imix", "imix", (64*7 + 594*4 + 1518*1) / 12.0},
		{"uniform:64-1518", "uniform:64-1518", (64 + 1518) / 2.0},
		{"hist:64=1,1500=1", "hist:64=1,1500=1", 782},
		{"IMIX", "imix", (64*7 + 594*4 + 1518*1) / 12.0},
	}
	for _, c := range cases {
		d, err := ParseSizeDist(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if d.String() != c.want {
			t.Errorf("%q: String() = %q, want %q", c.in, d.String(), c.want)
		}
		if math.Abs(d.Mean()-c.mean) > 1e-9 {
			t.Errorf("%q: Mean() = %v, want %v", c.in, d.Mean(), c.mean)
		}
	}
}

func TestParseSizeDistErrors(t *testing.T) {
	for _, in := range []string{
		"", "bogus", "0", "-5", "100000", "uniform:1518-64", "uniform:64",
		"uniform:a-b", "hist:", "hist:64", "hist:64=0", "hist:64=x", "hist:0=1",
		"hist:64=9223372036854775807,128=1", // total weight overflows
	} {
		if _, err := ParseSizeDist(in); err == nil {
			t.Errorf("%q accepted, want error", in)
		}
	}
}

func TestFixedSizeConsumesNoRandomness(t *testing.T) {
	// Fixed-size workloads must replay bit-identically to code paths
	// that never sample, so the degenerate distribution must not touch
	// the rng.
	rng := rand.New(rand.NewSource(7))
	want := rand.New(rand.NewSource(7)).Int63()
	d := FixedSize(256)
	for i := 0; i < 10; i++ {
		if got := d.Sample(rng); got != 256 {
			t.Fatalf("Sample = %d", got)
		}
	}
	if got := rng.Int63(); got != want {
		t.Error("FixedSize.Sample consumed rng state")
	}
}

func TestHistogramSamplingMatchesWeights(t *testing.T) {
	d := IMIX()
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	// 7:4:1 over 12 parts, each within 2 percentage points.
	for sz, wantFrac := range map[int]float64{64: 7.0 / 12, 594: 4.0 / 12, 1518: 1.0 / 12} {
		got := float64(counts[sz]) / n
		if math.Abs(got-wantFrac) > 0.02 {
			t.Errorf("size %d frequency %.3f, want ~%.3f", sz, got, wantFrac)
		}
	}
	if d.Max() != 1518 {
		t.Errorf("Max = %d", d.Max())
	}
}

func TestUniformBounds(t *testing.T) {
	d, err := Uniform(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	seenLo, seenHi := false, false
	for i := 0; i < 5000; i++ {
		v := d.Sample(rng)
		if v < 64 || v > 128 {
			t.Fatalf("sample %d out of range", v)
		}
		seenLo = seenLo || v == 64
		seenHi = seenHi || v == 128
	}
	if !seenLo || !seenHi {
		t.Error("uniform never hit its bounds")
	}
	one, err := Uniform(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if one.Sample(rng) != 100 {
		t.Error("degenerate uniform")
	}
}
