package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"pciebench/internal/sim"
)

// Arrival generates packet arrivals. Saturating processes run the
// engine closed-loop (every queue keeps its in-flight window full);
// open-loop processes emit timed arrival batches and packets queue in
// software when their target queue's window is full — which is where
// completion-latency tails come from.
type Arrival interface {
	// Saturating reports closed-loop mode.
	Saturating() bool
	// NextGap returns the gap before the next arrival batch and the
	// number of packets arriving together. Never called when Saturating.
	NextGap(rng *rand.Rand) (gap sim.Time, batch int)
	// OfferedPPS returns the offered load in packets/s (0 when
	// saturating).
	OfferedPPS() float64
	String() string
}

// saturate is the closed-loop arrival process.
type saturate struct{}

// Saturate returns the closed-loop arrival process: the engine issues
// a new packet the moment a window slot frees, like the paper's
// bandwidth benchmarks.
func Saturate() Arrival { return saturate{} }

func (saturate) Saturating() bool                   { return true }
func (saturate) NextGap(*rand.Rand) (sim.Time, int) { return 0, 1 }
func (saturate) OfferedPPS() float64                { return 0 }
func (saturate) String() string                     { return "saturate" }

// timedArrival is an open-loop process: packets arrive in fixed-size
// bursts with deterministic or exponential gaps, at a configured mean
// rate.
type timedArrival struct {
	pps     float64
	burst   int
	meanGap float64 // picoseconds between bursts
	poisson bool
}

func newTimed(pps float64, burst int, poisson bool) (Arrival, error) {
	if !(pps > 0) || math.IsInf(pps, 0) {
		return nil, fmt.Errorf("workload: arrival rate %v pps, want finite and > 0", pps)
	}
	if burst < 1 {
		burst = 1
	}
	return &timedArrival{
		pps:     pps,
		burst:   burst,
		meanGap: float64(burst) / pps * 1e12,
		poisson: poisson,
	}, nil
}

// FixedRate returns a constant-rate arrival process offering pps
// packets/s in bursts of burst back-to-back packets (burst <= 1 means
// one packet per arrival).
func FixedRate(pps float64, burst int) (Arrival, error) { return newTimed(pps, burst, false) }

// Poisson returns a Poisson arrival process offering pps packets/s on
// average: burst-sized batches separated by exponentially distributed
// gaps, the classic bursty-traffic model.
func Poisson(pps float64, burst int) (Arrival, error) { return newTimed(pps, burst, true) }

func (a *timedArrival) Saturating() bool    { return false }
func (a *timedArrival) OfferedPPS() float64 { return a.pps }

func (a *timedArrival) NextGap(rng *rand.Rand) (sim.Time, int) {
	gap := a.meanGap
	if a.poisson {
		gap = rng.ExpFloat64() * a.meanGap
	}
	return sim.Time(gap), a.burst
}

func (a *timedArrival) String() string {
	kind := "rate"
	if a.poisson {
		kind = "poisson"
	}
	s := fmt.Sprintf("%s:%s", kind, formatRate(a.pps))
	if a.burst > 1 {
		s += fmt.Sprintf(":burst=%d", a.burst)
	}
	return s
}

// ParseRate parses a packets-per-second rate with an optional decimal
// K/M/G suffix ("14.88M" -> 14.88e6).
func ParseRate(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1e9, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1e3, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) || math.IsInf(v*mult, 0) {
		return 0, fmt.Errorf("workload: bad rate %q", s)
	}
	return v * mult, nil
}

func formatRate(pps float64) string {
	switch {
	case pps >= 1e9:
		return strconv.FormatFloat(pps/1e9, 'g', -1, 64) + "G"
	case pps >= 1e6:
		return strconv.FormatFloat(pps/1e6, 'g', -1, 64) + "M"
	case pps >= 1e3:
		return strconv.FormatFloat(pps/1e3, 'g', -1, 64) + "K"
	}
	return strconv.FormatFloat(pps, 'g', -1, 64)
}

// ParseArrival parses the textual arrival forms used by sweep specs
// and CLIs:
//
//	"saturate"                  closed loop (the default)
//	"rate:14.88M"               constant rate in packets/s
//	"poisson:10M"               Poisson arrivals
//	"poisson:10M:burst=32"      Poisson bursts of 32 packets
func ParseArrival(s string) (Arrival, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "saturate" {
		return Saturate(), nil
	}
	parts := strings.Split(s, ":")
	kind := parts[0]
	if kind != "rate" && kind != "poisson" {
		return nil, fmt.Errorf("workload: unknown arrival %q (want saturate, rate:<pps> or poisson:<pps>[:burst=<n>])", s)
	}
	if len(parts) < 2 {
		return nil, fmt.Errorf("workload: arrival %q needs a rate", s)
	}
	pps, err := ParseRate(parts[1])
	if err != nil {
		return nil, err
	}
	burst := 1
	for _, opt := range parts[2:] {
		name, val, ok := strings.Cut(opt, "=")
		if !ok || name != "burst" {
			return nil, fmt.Errorf("workload: unknown arrival option %q", opt)
		}
		burst, err = strconv.Atoi(val)
		if err != nil || burst < 1 {
			return nil, fmt.Errorf("workload: bad burst %q", val)
		}
	}
	if kind == "poisson" {
		return Poisson(pps, burst)
	}
	return FixedRate(pps, burst)
}
