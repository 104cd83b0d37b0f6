package workload

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzParseSizeDist: ParseSizeDist never panics, and an accepted
// distribution re-parses from its own String() form into one with the
// same form, mean and maximum, whose draws stay within the frame bounds.
func FuzzParseSizeDist(f *testing.F) {
	for _, s := range []string{
		"1500", "64", " 9216 ", "imix", "IMIX", "uniform:64-1518", "uniform: 1 - 9216",
		"hist:64=7,594=4,1518=1", "hist:1500=1", "0", "9217", "uniform:1518-64",
		"hist:64=0", "hist:", "hist:64=9223372036854775807,128=1", "uniform:", "poisson:1M",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseSizeDist(s)
		if err != nil {
			return
		}
		again, err := ParseSizeDist(d.String())
		if err != nil {
			t.Fatalf("%q parsed to %q, which does not re-parse: %v", s, d.String(), err)
		}
		if again.String() != d.String() || again.Mean() != d.Mean() || again.Max() != d.Max() {
			t.Fatalf("%q: re-parsed %q (mean %v max %d), first %q (mean %v max %d)",
				s, again.String(), again.Mean(), again.Max(), d.String(), d.Mean(), d.Max())
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 4; i++ {
			if v := d.Sample(rng); v < minFrame || v > d.Max() {
				t.Fatalf("%q drew %d, want 1..%d", s, v, d.Max())
			}
		}
	})
}

// FuzzParseArrival: ParseArrival never panics, and an accepted process
// offers a finite rate (zero only when saturating) and re-parses from
// its own String() form into one with the same form.
func FuzzParseArrival(f *testing.F) {
	for _, s := range []string{
		"", "saturate", "rate:14.88M", "poisson:10M", "poisson:10M:burst=32", "RATE:1k",
		"rate:2.5G:burst=1", "rate:0", "rate:-1M", "rate:nan", "rate:inf", "rate:1e308G",
		"poisson:1M:burst=0", "poisson:1M:jitter=3", "rate", "uniform:64-1518",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseArrival(s)
		if err != nil {
			return
		}
		pps := a.OfferedPPS()
		if math.IsNaN(pps) || math.IsInf(pps, 0) || pps < 0 || (pps == 0) != a.Saturating() {
			t.Fatalf("%q offers %v pps (saturating %v)", s, pps, a.Saturating())
		}
		again, err := ParseArrival(a.String())
		if err != nil {
			t.Fatalf("%q parsed to %q, which does not re-parse: %v", s, a.String(), err)
		}
		if again.String() != a.String() || again.Saturating() != a.Saturating() {
			t.Fatalf("%q: re-parsed %q, first %q", s, again.String(), a.String())
		}
		if gap, burst := a.NextGap(rand.New(rand.NewSource(1))); gap < 0 || burst < 1 {
			t.Fatalf("%q: gap %v burst %d", s, gap, burst)
		}
	})
}
