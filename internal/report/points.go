package report

import (
	"fmt"
	"strings"

	"pciebench/internal/sweep"
)

// A point is one value a table row reads from a measured figure:
// Series.YAt(x) of the named series or, for a quantile point, the
// latency at which the named CDF series reaches x. on narrows the
// spec's other axes to the cells the series is drawn from; the x
// coordinate comes from the spec's own x axis (see pick).
type point struct {
	fig      string // registered figure spec, e.g. "fig8"
	series   string
	x        float64
	on       string // space-separated axis=value overrides
	quantile bool
}

// at reads series at x from figure fig, narrowed to the cells on names.
func at(fig, series string, x float64, on string) point {
	return point{fig: fig, series: series, x: x, on: on}
}

// quantileOf reads the value at which CDF series reaches fraction p.
func quantileOf(fig, series string, p float64, on string) point {
	return point{fig: fig, series: series, x: p, on: on, quantile: true}
}

// pick returns the overrides narrowing spec s to the cells p reads: its
// on coordinates plus, for a YAt read, the x-axis value string the full
// grid's series would answer YAt(x) with.
func (p point) pick(s *sweep.Spec) []string {
	pick := strings.Fields(p.on)
	if s.XAxis != "" && !p.quantile {
		pick = append(pick, s.XAxis+"="+gridX(s, p.x))
	}
	return pick
}

// gridX returns the value of s's x axis that Series.YAt(want) selects
// on the full grid: the first value >= want, else the last.
func gridX(s *sweep.Spec, want float64) string {
	var values []string
	for _, a := range s.Axes {
		if a.Name == s.XAxis {
			values = a.Values
		}
	}
	for _, v := range values {
		if n, err := sweep.ParseSize(v); err == nil && float64(n) >= want {
			return v
		}
	}
	return values[len(values)-1]
}

// figures maps each figure spec a table reads to its narrowed assembler.
var figures = map[string]func(Quality, ...[]string) ([]*Figure, error){
	"fig2": single(fig2), "fig4": fig4, "fig5": single(fig5), "fig6": single(fig6),
	"fig7": fig7, "fig8": single(fig8), "fig9": single(fig9),
}

func single(f func(Quality, ...[]string) (*Figure, error)) func(Quality, ...[]string) ([]*Figure, error) {
	return func(q Quality, picks ...[]string) ([]*Figure, error) {
		fig, err := f(q, picks...)
		return []*Figure{fig}, err
	}
}

// readPoints assembles each figure the points name from only the cells
// they read, figure by figure in first-mention order, and returns every
// point's value.
func readPoints(q Quality, pts []point) (map[point]float64, error) {
	var order []string
	picks := make(map[string][][]string)
	for _, p := range pts {
		s, err := sweep.ByName(p.fig)
		if err != nil {
			return nil, err
		}
		if _, ok := picks[p.fig]; !ok {
			order = append(order, p.fig)
		}
		picks[p.fig] = append(picks[p.fig], p.pick(s))
	}
	vals := make(map[point]float64, len(pts))
	for _, name := range order {
		figs, err := figures[name](q, picks[name]...)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			if p.fig != name {
				continue
			}
			if vals[p], err = p.read(figs); err != nil {
				return nil, err
			}
		}
	}
	return vals, nil
}

// read takes p's value from the figures its spec assembled.
func (p point) read(figs []*Figure) (float64, error) {
	for _, f := range figs {
		s := f.SeriesByName(p.series)
		switch {
		case s == nil:
			continue
		case len(s.X) == 0:
			return 0, fmt.Errorf("report: no %s cells read for series %q", p.fig, p.series)
		case p.quantile:
			return inverseAtSeries(s, p.x), nil
		default:
			return s.YAt(p.x), nil
		}
	}
	return 0, fmt.Errorf("report: %s has no series %q", p.fig, p.series)
}
