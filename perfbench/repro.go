package main

import (
	"fmt"
	"strings"

	"pciebench/internal/bench"
	"pciebench/internal/mem"
	"pciebench/internal/report"
	"pciebench/internal/sweep"
	"pciebench/internal/sysconf"
)

// artifacts maps an output file name, as pcie-repro writes it, to its
// contents.
type artifacts map[string]string

// experiment is one pcie-repro experiment: its -only name and the
// report calls that produce its files.
type experiment struct {
	id  string
	run func(q report.Quality, out artifacts) error
}

// experiments lists the report.* calls pcie-repro makes, in its order.
// Tables are also rendered as text, as pcie-repro prints them.
var experiments = []experiment{
	{"table1", func(_ report.Quality, out artifacts) error { return tableTo(out, "table1")(report.Table1(), nil) }},
	{"fig1", func(_ report.Quality, out artifacts) error { return figTo(out)(report.Fig1(), nil) }},
	{"fig2", func(q report.Quality, out artifacts) error { return figTo(out)(report.Fig2(q)) }},
	{"fig4", func(q report.Quality, out artifacts) error { return figsTo(out)(report.Fig4(q)) }},
	{"fig5", func(q report.Quality, out artifacts) error { return figTo(out)(report.Fig5(q)) }},
	{"fig6", func(q report.Quality, out artifacts) error { return figTo(out)(report.Fig6(q)) }},
	{"fig7", func(q report.Quality, out artifacts) error { return figsTo(out)(report.Fig7(q)) }},
	{"fig8", func(q report.Quality, out artifacts) error { return figTo(out)(report.Fig8(q)) }},
	{"fig9", func(q report.Quality, out artifacts) error { return figTo(out)(report.Fig9(q)) }},
	{"table2", func(q report.Quality, out artifacts) error { return tableTo(out, "table2")(report.Table2(q)) }},
	{"ablations", func(q report.Quality, out artifacts) error {
		if err := figTo(out)(report.AblationMPS(), nil); err != nil {
			return err
		}
		for _, run := range []func(report.Quality) (*report.Figure, error){
			report.AblationGen4, report.AblationWalkers, report.AblationInFlight,
		} {
			if err := figTo(out)(run(q)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"expect", func(q report.Quality, out artifacts) error {
		return tableTo(out, "expectations")(report.Expectations(q))
	}},
}

func tableTo(out artifacts, name string) func(*report.Table, error) error {
	return func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		_ = t.Render()
		out[name+".tsv"] = t.TSV()
		return nil
	}
}

func figTo(out artifacts) func(*report.Figure, error) error {
	return func(f *report.Figure, err error) error {
		if err != nil {
			return err
		}
		out[f.ID+".tsv"] = f.TSV()
		return nil
	}
}

func figsTo(out artifacts) func([]*report.Figure, error) error {
	return func(figs []*report.Figure, err error) error {
		if err != nil {
			return err
		}
		for _, f := range figs {
			out[f.ID+".tsv"] = f.TSV()
		}
		return nil
	}
}

// reproduce makes every pcie-repro artifact at quick quality, with a
// span around each experiment when t is non-nil. A failed experiment
// is logged; its files are then missing and fail the digest check.
func reproduce(e *env, t *tracer, parent int, id string) artifacts {
	files := artifacts{}
	for _, ex := range experiments {
		if err := t.do("report."+ex.id, id, parent, func() error { return ex.run(sweep.Quick, files) }); err != nil {
			fmt.Fprintf(e.log, "error %s: %v\n", ex.id, err)
		}
	}
	return files
}

// runRepro is the repro-quick workload: the whole paper evaluation at
// quick quality, as pcie-repro -parallel $(nproc) produces it, checked
// against the recorded digests of its 18 files.
func runRepro(e *env) (*outcome, error) {
	want := loadDigests().ReproQuick
	out := &outcome{}
	report.SetParallelism(e.nproc)
	// Set-up assembles every Table 1 system and host-warms its whole
	// buffer once, so the first timed round does not pay for growing
	// the heap.
	if _, err := timeSetup(e, out, 3, func(bool) (struct{}, error) {
		for _, s := range sysconf.Systems() {
			inst, err := s.Build(sysconf.Options{})
			if err != nil {
				return struct{}{}, err
			}
			inst.Buffer.WarmHost(0, inst.Buffer.Size)
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	rowsOK := -1
	err := measureRounds(e, out, 0, func(k int, t *tracer) error {
		id := fmt.Sprintf("round-%d", k)
		root := t.begin("repro.round", id, -1)
		files := reproduce(e, t, root, id)
		t.end(root)
		out.attempted += len(want)
		for name, sum := range want {
			if got, ok := files[name]; !ok || digest(got) != sum {
				out.failed++
				fmt.Fprintf(e.log, "mismatch %s round %d\n", name, k)
			}
		}
		if n := paperRowsOK(files["expectations.tsv"]); rowsOK < 0 || n < rowsOK {
			rowsOK = n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.set("paper_rows_ok", float64(rowsOK))
	if e.trace != nil {
		for _, ex := range experiments {
			out.set("report."+ex.id+"_s", median(e.trace.durations("report."+ex.id)))
		}
		if err := probeRepro(e, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// paperRowsOK counts the rows of the expectations table whose verdict
// is ok.
func paperRowsOK(tsv string) int {
	n := 0
	for _, line := range strings.Split(tsv, "\n") {
		if strings.HasSuffix(line, "\tok") {
			n++
		}
	}
	return n
}

// reproProbe is a heavy representative cell of one simulated artifact,
// sent through the layers one call at a time: build the system, warm
// the window from the host, run the micro-benchmark.
type reproProbe struct {
	artifact string
	system   string
	opt      sysconf.Options
	run      func(*bench.Target, bench.Params) error
	params   bench.Params
}

func bwRd(t *bench.Target, p bench.Params) error  { _, err := bench.BwRd(t, p); return err }
func latRd(t *bench.Target, p bench.Params) error { _, err := bench.LatRd(t, p); return err }

func reproProbes() []reproProbe {
	q := sweep.Quick
	warm := func(window, transfer, n int) bench.Params {
		return bench.Params{WindowSize: window, TransferSize: transfer, Cache: bench.HostWarm, Transactions: n}
	}
	direct := warm(64<<10, 8, q.LatN())
	direct.Direct = true
	return []reproProbe{
		{"fig4", "NFP6000-HSW", sysconf.Options{NoJitter: true}, bwRd, warm(8<<10, 64, q.BwN())},
		{"fig5", "NFP6000-HSW", sysconf.Options{NoJitter: true}, latRd, warm(8<<10, 2048, q.LatN())},
		{"fig6", "NFP6000-HSW-E3", sysconf.Options{Seed: 17}, latRd, warm(8<<10, 64, q.CDFN())},
		{"fig7", "NFP6000-SNB", sysconf.Options{NoJitter: true}, bwRd, warm(64<<20, 64, q.BwN())},
		{"fig8", "NFP6000-BDW", sysconf.Options{NoJitter: true, BufferNode: 1}, bwRd, warm(64<<20, 64, q.BwN())},
		{"fig9", "NFP6000-BDW", sysconf.Options{NoJitter: true, IOMMU: true}, bwRd, warm(64<<20, 64, q.BwN())},
		{"table2", "NFP6000-SNB", sysconf.Options{NoJitter: true}, latRd, direct},
		{"ablations", "NFP6000-BDW", sysconf.Options{NoJitter: true, IOMMU: true, Seed: 67}, bwRd, warm(16<<20, 64, q.BwN())},
	}
}

// probeRepro sends each probe cell through sysconf.System.Build,
// mem.NewSystem, hostif.Buffer.WarmHost and bench.* under spans, and
// sets the build, warm and simulate layer metrics from them.
func probeRepro(e *env, out *outcome) error {
	t := e.trace
	var allocMB, lines float64
	var hits, misses, evictions uint64
	for _, p := range reproProbes() {
		root := t.begin("probe.cell", p.artifact, -1)
		sys, err := sysconf.ByName(p.system)
		if err != nil {
			return err
		}
		var inst *sysconf.Instance
		a0 := heapAllocMB()
		err = t.do("sysconf.build", p.artifact, root, func() (err error) {
			inst, err = sys.Build(p.opt)
			return err
		})
		allocMB += heapAllocMB() - a0
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.artifact, err)
		}
		if err := t.do("mem.newsystem", p.artifact, root, func() error {
			_, err := mem.NewSystem(inst.Mem.Config())
			return err
		}); err != nil {
			return fmt.Errorf("probe %s: %w", p.artifact, err)
		}
		t.do("hostif.warm", p.artifact, root, func() error {
			inst.Buffer.WarmHost(0, p.params.WindowSize)
			return nil
		})
		lines += float64(p.params.WindowSize / 64)
		if err := t.do("bench.simulate", p.artifact, root, func() error {
			return p.run(inst.Target(), p.params)
		}); err != nil {
			return fmt.Errorf("probe %s: %w", p.artifact, err)
		}
		t.end(root)
		for n := 0; n < inst.Mem.Config().Nodes; n++ {
			c := inst.Mem.Node(n)
			hits, misses, evictions = hits+c.Hits, misses+c.Misses, evictions+c.Evictions
		}
	}
	warm := t.selfSeconds("hostif.warm")
	out.set("sysconf.build_s", t.selfSeconds("sysconf.build"))
	out.set("mem.newsystem_s", t.selfSeconds("mem.newsystem"))
	out.set("go.build_alloc_mb", allocMB)
	out.set("hostif.warm_s", warm)
	out.set("hostif.warm_lines_per_s", lines/warm)
	out.set("bench.simulate_s", t.selfSeconds("bench.simulate"))
	out.set("mem.llc_hits", float64(hits))
	out.set("mem.llc_misses", float64(misses))
	out.set("mem.evictions", float64(evictions))
	return nil
}
