package workload

import (
	"math"
	"math/rand"
	"testing"

	"pciebench/internal/sim"
)

func TestParseArrivalForms(t *testing.T) {
	cases := []struct {
		in         string
		saturating bool
		pps        float64
		str        string
	}{
		{"", true, 0, "saturate"},
		{"saturate", true, 0, "saturate"},
		{"rate:1M", false, 1e6, "rate:1M"},
		{"rate:14.88M", false, 14.88e6, "rate:14.88M"},
		{"poisson:500K", false, 5e5, "poisson:500K"},
		{"poisson:2M:burst=32", false, 2e6, "poisson:2M:burst=32"},
		{"rate:750", false, 750, "rate:750"},
	}
	for _, c := range cases {
		a, err := ParseArrival(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if a.Saturating() != c.saturating {
			t.Errorf("%q: Saturating = %v", c.in, a.Saturating())
		}
		if a.OfferedPPS() != c.pps {
			t.Errorf("%q: OfferedPPS = %v, want %v", c.in, a.OfferedPPS(), c.pps)
		}
		if a.String() != c.str {
			t.Errorf("%q: String = %q, want %q", c.in, a.String(), c.str)
		}
	}
}

func TestParseArrivalErrors(t *testing.T) {
	for _, in := range []string{
		"burst", "rate", "rate:", "rate:-1", "rate:x", "poisson",
		"poisson:1M:burst=0", "poisson:1M:burst=x", "poisson:1M:frob=2", "drizzle:1M",
		"rate:nan", "rate:inf", "poisson:1e308G", // not a finite rate
	} {
		if _, err := ParseArrival(in); err == nil {
			t.Errorf("%q accepted, want error", in)
		}
	}
}

func TestFixedRateGapIsDeterministic(t *testing.T) {
	a, err := FixedRate(1e6, 1) // 1 Mpps -> 1us gaps
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		gap, batch := a.NextGap(rng)
		if gap != sim.Microsecond || batch != 1 {
			t.Fatalf("gap %v batch %d, want 1us/1", gap, batch)
		}
	}
}

func TestBurstScalesGap(t *testing.T) {
	a, err := FixedRate(1e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	gap, batch := a.NextGap(rand.New(rand.NewSource(1)))
	if batch != 8 {
		t.Fatalf("batch %d", batch)
	}
	// 8 packets per burst at 1 Mpps keeps the mean rate: 8us gaps.
	if gap != 8*sim.Microsecond {
		t.Errorf("gap %v, want 8us", gap)
	}
}

func TestPoissonMeanGap(t *testing.T) {
	a, err := Poisson(1e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		gap, _ := a.NextGap(rng)
		sum += float64(gap)
	}
	mean := sum / n
	want := float64(sim.Microsecond)
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean gap %v ps, want ~%v ps", mean, want)
	}
}

func TestParseRate(t *testing.T) {
	for in, want := range map[string]float64{
		"1000": 1000, "1K": 1e3, "2.5M": 2.5e6, "0.1G": 1e8, "14.88m": 14.88e6,
	} {
		got, err := ParseRate(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("%q = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"", "x", "-1M", "0", "NaN", "+Inf", "1e300G"} {
		if _, err := ParseRate(in); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}
