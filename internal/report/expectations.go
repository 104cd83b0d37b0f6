package report

import (
	"fmt"
	"math"

	"pciebench/internal/stats"
)

// Expectation is one paper-reported quantity checked against the
// simulator.
type Expectation struct {
	Experiment string
	Quantity   string
	Paper      string
	Measured   string
	OK         bool
}

// A check is one simulated paper-reported quantity: the value of its
// first point, minus the second's when there are two, times scale.
type check struct {
	exp, quantity, paper string
	unit                 string
	lo, hi               float64
	scale                float64
	at                   []point
}

// checks are the simulated rows of Expectations, in table order after
// the analytic Figure 1 rows.
var checks = []check{
	{"fig2", "loopback latency @128B", "~1000 ns", " ns", 800, 1200, 1,
		[]point{at("fig2", "NIC", 128, "")}},
	{"fig2", "PCIe fraction @128B", "90.6%", " %", 82, 95, 100,
		[]point{at("fig2", "PCIe fraction", 128, "")}},
	{"fig2", "PCIe fraction @1500B", "77.2%", " %", 70, 85, 100,
		[]point{at("fig2", "PCIe fraction", 1500, "")}},

	{"fig4a", "NFP BW_RD @64B", "~30 Gb/s", " Gb/s", 25, 35, 1,
		[]point{at("fig4", "fig4a (NFP6000-HSW)", 64, "bench=bw_rd system=NFP6000-HSW")}},
	{"fig4a", "NetFPGA BW_RD @1024B", "~48 Gb/s", " Gb/s", 44, 54, 1,
		[]point{at("fig4", "fig4a (NetFPGA-HSW)", 1024, "bench=bw_rd system=NetFPGA-HSW")}},
	{"fig4b", "NetFPGA BW_WR @64B", "~40 Gb/s", " Gb/s", 34, 44, 1,
		[]point{at("fig4", "fig4b (NetFPGA-HSW)", 64, "bench=bw_wr system=NetFPGA-HSW")}},

	{"fig5", "NFP-NetFPGA LAT_RD gap @64B", "~100 ns", " ns", 60, 160, 1, []point{
		at("fig5", "LAT_RD (NFP6000-HSW)", 64, "system=NFP6000-HSW"),
		at("fig5", "LAT_RD (NetFPGA-HSW)", 64, "system=NetFPGA-HSW"),
	}},
	{"fig5", "NFP LAT_RD @2048B", "~1500 ns", " ns", 1300, 1700, 1,
		[]point{at("fig5", "LAT_RD (NFP6000-HSW)", 2048, "system=NFP6000-HSW")}},

	{"fig6", "E5 median @64B", "547 ns", " ns", 500, 620, 1,
		[]point{quantileOf("fig6", "NFP6000-HSW", 0.5, "system=NFP6000-HSW")}},
	{"fig6", "E3 median @64B", "1213 ns", " ns", 1000, 1500, 1,
		[]point{quantileOf("fig6", "NFP6000-HSW-E3", 0.5, "system=NFP6000-HSW-E3")}},
	{"fig6", "E3 p99 @64B", "5707 ns", " ns", 4000, 8000, 1,
		[]point{quantileOf("fig6", "NFP6000-HSW-E3", 0.99, "system=NFP6000-HSW-E3")}},

	{"fig7a", "LLC-resident read benefit", "~70 ns", " ns", 50, 90, 1, []point{
		at("fig7", "8B LAT_RD (cold)", 64<<10, "cache=cold"),
		at("fig7", "8B LAT_RD (warm)", 64<<10, "cache=warm"),
	}},
	{"fig7a", "DDIO boundary penalty", "~70 ns", " ns", 50, 95, 1, []point{
		at("fig7", "8B LAT_WRRD (cold)", 16<<20, "cache=cold"),
		at("fig7", "8B LAT_WRRD (cold)", 256<<10, "cache=cold"),
	}},

	{"fig8", "64B remote penalty (cached)", "-20 %", " %", -30, -12, 1,
		[]point{at("fig8", "64B BW_RD", 64<<10, "transfer=64")}},
	{"fig8", "64B remote penalty (uncached)", "-10 %", " %", -20, -5, 1,
		[]point{at("fig8", "64B BW_RD", 64<<20, "transfer=64")}},
	{"fig8", "128B remote penalty", "-5..-7 % (deviation: link-capped here)", " %", -15, 0.5, 1,
		[]point{at("fig8", "128B BW_RD", 64<<10, "transfer=128")}},
	{"fig8", "512B remote penalty", "~0 %", " %", -3, 3, 1,
		[]point{at("fig8", "512B BW_RD", 64<<10, "transfer=512")}},

	{"fig9", "64B IOMMU drop beyond 256KB", "-70 %", " %", -85, -55, 1,
		[]point{at("fig9", "64B BW_RD", 16<<20, "transfer=64")}},
	{"fig9", "256B IOMMU drop beyond 256KB", "-30 %", " %", -45, -18, 1,
		[]point{at("fig9", "256B BW_RD", 16<<20, "transfer=256")}},
	{"fig9", "512B IOMMU drop beyond 256KB", "~0 %", " %", -10, 5, 1,
		[]point{at("fig9", "512B BW_RD", 16<<20, "transfer=512")}},
	{"fig9", "64B IOMMU drop inside 256KB", "~0 %", " %", -6, 6, 1,
		[]point{at("fig9", "64B BW_RD", 64<<10, "transfer=64")}},
}

// Expectations compares the key quantities the paper reports against
// the model and the simulator, producing the table recorded in
// EXPERIMENTS.md. It runs only the figure cells its rows read, not the
// figures they come from. A row is marked ok when the measured value
// falls within the stated tolerance of the paper's figure; rows that
// deviate are kept visible rather than hidden.
func Expectations(q Quality) (*Table, error) {
	t := &Table{
		Title:   "Paper vs measured (tolerances are on shape, not testbed-absolute values)",
		Columns: []string{"Experiment", "Quantity", "Paper", "Measured", "OK"},
	}
	add := func(exp, quantity, paper string, measured float64, unit string, lo, hi float64) {
		ok := measured >= lo && measured <= hi
		t.Rows = append(t.Rows, []string{
			exp, quantity, paper, fmt.Sprintf("%.1f%s", measured, unit), verdict(ok),
		})
	}

	// Figure 1 (analytical).
	fig1 := Fig1()
	add("fig1", "effective bidir BW @1500B", "~50 Gb/s",
		fig1.SeriesByName("Effective PCIe BW").YAt(1500), " Gb/s", 48, 53)
	cross := crossover(fig1)
	add("fig1", "simple NIC 40G crossover", ">512B", cross, " B", 384, 768)

	var pts []point
	for _, c := range checks {
		pts = append(pts, c.at...)
	}
	y, err := readPoints(q, pts)
	if err != nil {
		return nil, err
	}
	for _, c := range checks {
		v := y[c.at[0]]
		if len(c.at) == 2 {
			v -= y[c.at[1]]
		}
		add(c.exp, c.quantity, c.paper, c.scale*v, c.unit, c.lo, c.hi)
	}
	return t, nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "DEVIATES"
}

// crossover finds the packet size where the simple NIC first reaches
// the 40G Ethernet line rate in a Figure 1 result.
func crossover(fig *Figure) float64 {
	simple := fig.SeriesByName("Simple NIC")
	eth := fig.SeriesByName("40G Ethernet")
	for i := range simple.X {
		if simple.Y[i] >= eth.Y[i] {
			return simple.X[i]
		}
	}
	return math.Inf(1)
}

// inverseAtSeries reads a CDF series (X = latency values, Y =
// cumulative fractions): the smallest value whose fraction reaches p.
func inverseAtSeries(s *stats.Series, p float64) float64 {
	for i := range s.X {
		if s.Y[i] >= p {
			return s.X[i]
		}
	}
	return s.X[len(s.X)-1]
}
