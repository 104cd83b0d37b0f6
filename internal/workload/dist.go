package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// SizeDist draws per-packet frame sizes. Implementations are
// deterministic functions of the supplied rng, so a workload replays
// bit-for-bit from its seed.
type SizeDist interface {
	// Sample returns the next frame size in bytes. Degenerate
	// distributions must not consume rng state, so fixed-size runs stay
	// bit-identical to experiments that never sample.
	Sample(rng *rand.Rand) int
	// Mean returns the expected frame size, for offered-load math.
	Mean() float64
	// Max returns the largest size the distribution can produce.
	Max() int
	String() string
}

// Frame-size bounds accepted by every distribution: one byte up to a
// jumbo frame.
const (
	minFrame = 1
	maxFrame = 9216
)

func checkFrame(sz int) error {
	if sz < minFrame || sz > maxFrame {
		return fmt.Errorf("workload: frame size %d out of [%d,%d]", sz, minFrame, maxFrame)
	}
	return nil
}

// fixedDist emits one size forever.
type fixedDist struct{ n int }

// FixedSize returns the degenerate distribution: every packet is n
// bytes. Its Sample never touches the rng.
func FixedSize(n int) SizeDist { return fixedDist{n} }

func (d fixedDist) Sample(*rand.Rand) int { return d.n }
func (d fixedDist) Mean() float64         { return float64(d.n) }
func (d fixedDist) Max() int              { return d.n }
func (d fixedDist) String() string        { return strconv.Itoa(d.n) }

// SizePoint is one (size, weight) bin of a histogram distribution.
type SizePoint struct {
	Size   int
	Weight int
}

// histDist samples sizes proportionally to integer weights.
type histDist struct {
	points []SizePoint
	cum    []int // inclusive prefix sums of weights
	total  int
	mean   float64
	max    int
	label  string
}

// HistogramDist builds a weighted-histogram distribution from points.
// Weights are relative integer frequencies (e.g. the 7:4:1 of IMIX).
func HistogramDist(points []SizePoint, label string) (SizeDist, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: histogram needs at least one size")
	}
	d := &histDist{points: append([]SizePoint(nil), points...), label: label}
	var weighted float64
	for _, p := range d.points {
		if err := checkFrame(p.Size); err != nil {
			return nil, err
		}
		if p.Weight <= 0 {
			return nil, fmt.Errorf("workload: histogram size %d has weight %d, want > 0", p.Size, p.Weight)
		}
		if p.Weight > math.MaxInt-d.total {
			return nil, fmt.Errorf("workload: histogram weights overflow at size %d", p.Size)
		}
		d.total += p.Weight
		d.cum = append(d.cum, d.total)
		weighted += float64(p.Size) * float64(p.Weight)
		if p.Size > d.max {
			d.max = p.Size
		}
	}
	d.mean = weighted / float64(d.total)
	return d, nil
}

func (d *histDist) Sample(rng *rand.Rand) int {
	v := rng.Intn(d.total)
	for i, c := range d.cum {
		if v < c {
			return d.points[i].Size
		}
	}
	return d.points[len(d.points)-1].Size
}

func (d *histDist) Mean() float64 { return d.mean }
func (d *histDist) Max() int      { return d.max }
func (d *histDist) String() string {
	if d.label != "" {
		return d.label
	}
	parts := make([]string, len(d.points))
	for i, p := range d.points {
		parts[i] = fmt.Sprintf("%d=%d", p.Size, p.Weight)
	}
	return "hist:" + strings.Join(parts, ",")
}

// IMIX returns the classic "simple IMIX" Internet mix: 64, 594 and
// 1518 byte frames in 7:4:1 proportion (~353B average), the standard
// stand-in for production packet-size diversity.
func IMIX() SizeDist {
	d, err := HistogramDist([]SizePoint{{64, 7}, {594, 4}, {1518, 1}}, "imix")
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return d
}

// uniformDist draws uniformly from [lo, hi].
type uniformDist struct{ lo, hi int }

// Uniform returns the distribution drawing uniformly from [lo, hi].
func Uniform(lo, hi int) (SizeDist, error) {
	if err := checkFrame(lo); err != nil {
		return nil, err
	}
	if err := checkFrame(hi); err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, fmt.Errorf("workload: uniform range %d-%d inverted", lo, hi)
	}
	return uniformDist{lo, hi}, nil
}

func (d uniformDist) Sample(rng *rand.Rand) int {
	if d.lo == d.hi {
		return d.lo
	}
	return d.lo + rng.Intn(d.hi-d.lo+1)
}
func (d uniformDist) Mean() float64  { return float64(d.lo+d.hi) / 2 }
func (d uniformDist) Max() int       { return d.hi }
func (d uniformDist) String() string { return fmt.Sprintf("uniform:%d-%d", d.lo, d.hi) }

// ParseSizeDist parses the textual distribution forms used by sweep
// specs and CLIs:
//
//	"1500"                a fixed size
//	"imix"                the 7:4:1 simple IMIX
//	"uniform:64-1518"     uniform over an inclusive range
//	"hist:64=7,594=4,1518=1"  a custom weighted histogram
func ParseSizeDist(s string) (SizeDist, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch {
	case s == "":
		return nil, fmt.Errorf("workload: empty size distribution")
	case s == "imix":
		return IMIX(), nil
	case strings.HasPrefix(s, "uniform:"):
		body := strings.TrimPrefix(s, "uniform:")
		lo, hi, ok := strings.Cut(body, "-")
		if !ok {
			return nil, fmt.Errorf("workload: bad uniform range %q (want lo-hi)", body)
		}
		l, err1 := strconv.Atoi(strings.TrimSpace(lo))
		h, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("workload: bad uniform range %q", body)
		}
		return Uniform(l, h)
	case strings.HasPrefix(s, "hist:"):
		var points []SizePoint
		for _, part := range strings.Split(strings.TrimPrefix(s, "hist:"), ",") {
			szStr, wStr, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("workload: bad histogram bin %q (want size=weight)", part)
			}
			sz, err1 := strconv.Atoi(strings.TrimSpace(szStr))
			w, err2 := strconv.Atoi(strings.TrimSpace(wStr))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("workload: bad histogram bin %q", part)
			}
			points = append(points, SizePoint{Size: sz, Weight: w})
		}
		return HistogramDist(points, "")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return nil, fmt.Errorf("workload: unknown size distribution %q (want a size, imix, uniform:lo-hi or hist:size=weight,...)", s)
	}
	if err := checkFrame(n); err != nil {
		return nil, err
	}
	return FixedSize(n), nil
}
