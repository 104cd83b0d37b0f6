package rc

import (
	"fmt"
	"math/rand"

	"pciebench/internal/sim"
)

// QuantilePoint anchors a point of an inverse CDF: at cumulative
// probability P the extra delay is Delay.
type QuantilePoint struct {
	P     float64
	Delay sim.Time
}

// QuantileJitter draws extra per-TLP delays from a piecewise-linear
// inverse CDF. It is the explicit, tunable stand-in for root-complex
// behaviour the paper observes but cannot attribute: §6.2 documents the
// Xeon E3's heavy latency tail (median more than double the E5's, a
// 99.9th percentile an order of magnitude above the median, and
// outliers to 5.8 ms) and suspects hidden power-saving states. The
// anchors for the E3 model are fitted to exactly those reported
// percentiles; see sysconf.XeonE3Jitter.
type QuantileJitter struct {
	points []QuantilePoint
}

// NewQuantileJitter builds a jitter model from anchor points. Points
// must be supplied with strictly increasing P in [0,1]; the first point
// is treated as the distribution's minimum and the last as its maximum.
func NewQuantileJitter(points []QuantilePoint) (*QuantileJitter, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("rc: need at least 2 quantile points")
	}
	for i, p := range points {
		if p.P < 0 || p.P > 1 {
			return nil, fmt.Errorf("rc: quantile P %v out of [0,1]", p.P)
		}
		if p.Delay < 0 {
			return nil, fmt.Errorf("rc: negative delay at P=%v", p.P)
		}
		if i > 0 && p.P <= points[i-1].P {
			return nil, fmt.Errorf("rc: quantile points must have increasing P")
		}
	}
	cp := make([]QuantilePoint, len(points))
	copy(cp, points)
	return &QuantileJitter{points: cp}, nil
}

// Sample draws one delay.
func (q *QuantileJitter) Sample(rng *rand.Rand) sim.Time {
	u := rng.Float64()
	pts := q.points
	if u <= pts[0].P {
		return pts[0].Delay
	}
	if u >= pts[len(pts)-1].P {
		return pts[len(pts)-1].Delay
	}
	// The first point with P >= u; a linear scan, since a model has a
	// handful of points.
	i := 1
	for pts[i].P < u {
		i++
	}
	lo, hi := pts[i-1], pts[i]
	frac := (u - lo.P) / (hi.P - lo.P)
	return lo.Delay + sim.Time(frac*float64(hi.Delay-lo.Delay))
}

// ConstantJitter adds a fixed delay to every TLP; useful in tests.
type ConstantJitter sim.Time

// Sample returns the constant.
func (c ConstantJitter) Sample(*rand.Rand) sim.Time { return sim.Time(c) }
