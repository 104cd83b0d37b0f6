// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the simulator's public packages, checks every
// output the simulator produces, and prints the metrics BENCHMARK.json
// names as the last line of standard output:
//
//	bash perfbench/run.sh --workload repro-quick --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the benchmark records a span around
// every layer call it makes, runs the layer probes, writes the spans to
// --trace-dir and reports the per-layer metrics instead.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"pciebench/internal/buildinfo"
)

// metricDef is one metric of BENCHMARK.json, by name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics the traced run reports. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"report.table1_s", "s"}, {"report.fig1_s", "s"}, {"report.fig2_s", "s"},
	{"report.fig4_s", "s"}, {"report.fig5_s", "s"}, {"report.fig6_s", "s"},
	{"report.fig7_s", "s"}, {"report.fig8_s", "s"}, {"report.fig9_s", "s"},
	{"report.table2_s", "s"}, {"report.ablations_s", "s"}, {"report.expect_s", "s"},
	{"sysconf.build_s", "s"}, {"mem.newsystem_s", "s"}, {"go.build_alloc_mb", "MB"},
	{"hostif.warm_s", "s"}, {"hostif.warm_lines_per_s", "1/s"},
	{"mem.llc_hits", "count"}, {"mem.llc_misses", "count"}, {"mem.evictions", "count"},
	{"bench.simulate_s", "s"},
	{"workload.simulate_s", "s"}, {"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"rc.tlps", "count"}, {"rc.tlps_per_s", "1/s"},
	{"sim.parallel_speedup_w2", "x"}, {"sim.parallel_speedup_wN", "x"},
	{"iommu.hits", "count"}, {"iommu.misses", "count"},
	{"fault.replays", "count"}, {"fault.timeouts", "count"}, {"fault.retrains", "count"},
	{"runner.cell_p50_ms", "ms"}, {"runner.cell_max_ms", "ms"}, {"runner.busy_frac", "ratio"},
	{"sweep.emit_ms", "ms"},
	{"cache.get_us_p50", "us"}, {"cache.put_us_p50", "us"},
	{"cache.hit_ratio", "ratio"}, {"cache.entries", "count"},
	{"serve.submit_ms_p50", "ms"}, {"serve.results_wait_ms_p50", "ms"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	// End-to-end metrics that only one workload can measure. BENCHMARK.json
	// requires every end-to-end metric on every workload, so they travel
	// with the traced run's layer metrics; the untraced run prints them.
	{"failed_ratio", "ratio"}, {"paper_rows_ok", "count"}, {"sim_txn_per_s", "1/s"},
	{"hit_p50_ms", "ms"}, {"hit_p99_ms", "ms"}, {"hit_samples", "count"},
	{"miss_p50_ms", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"repro-quick":  runRepro,
	"fabric-sweep": runFabric,
	"served-mix":   runServed,
}

// env is what every workload gets from the command line and the host.
type env struct {
	seed    int64
	seconds float64
	trace   *tracer // nil with --trace 0
	nproc   int
	log     io.Writer // human-readable lines
}

// outcome is a workload's measurement: operations attempted and
// failed, and every metric it measured by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fl.String("workload", "", "workload: repro-quick, fabric-sweep or served-mix")
		seed     = fl.Int64("seed", 1, "workload seed")
		seconds  = fl.Int("seconds", 25, "length of the measured phase")
		traceOn  = fl.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		traceDir = fl.String("trace-dir", filepath.Join(".bench_build", "traces"), "where the traced run writes its spans")
		record   = fl.Bool("record-digests", false, "print the output digests of the current tree as digests.json and exit")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *record {
		return recordDigests(stdout)
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	e := &env{seed: *seed, seconds: float64(*seconds), nproc: runtime.NumCPU(), log: stdout}
	if *traceOn == 1 {
		e.trace = newTracer()
	}
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s commit=%s src=%s workload=%s seed=%d seconds=%d trace=%d\n",
		e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), buildinfo.Version(), sourceDigest(),
		*name, *seed, *seconds, *traceOn)

	out, err := wl(e)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if out.attempted > 0 {
		out.set("failed_ratio", float64(out.failed)/float64(out.attempted))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.set("peak_rss_mb", rss)
	if e.trace != nil {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := e.trace.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace %s\n", path)
	}

	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-28s %.6g\n", n, out.metrics[n])
	}

	defs := endToEnd
	if e.trace != nil {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if e.trace == nil && (!ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0) {
			return fmt.Errorf("workload measured no positive %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stdout, "metric %s is not finite; reported as 0\n", d.name)
			v = 0
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(blob))
	return nil
}

// checkBenchmarkJSON fails when BENCHMARK.json and this program
// disagree on the metric names or units.
func checkBenchmarkJSON(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(got []struct{ Name, Unit string }, want []metricDef) bool {
		return slices.EqualFunc(got, want, func(g struct{ Name, Unit string }, w metricDef) bool {
			return g.Name == w.name && g.Unit == w.unit
		})
	}
	if !same(doc.EndToEnd, endToEnd) || !same(doc.PerLayer, perLayer) {
		return fmt.Errorf("%s lists other metrics than perfbench measures", path)
	}
	return nil
}

// measureRounds repeats round until the measured phase has spent its
// budget: a round starts only while the time used plus the previous
// round's duration fits in e.seconds, and at least one round runs.
// maxRounds > 0 also ends the phase after that many rounds, for a
// workload whose state grows with the work done. In a traced run every
// other round runs untraced, so the traced and untraced medians give
// the tracing overhead. It sets wall_s to the median untraced round and
// the go.* metrics to their change per round.
func measureRounds(e *env, out *outcome, maxRounds int, round func(k int, t *tracer) error) error {
	before := readRuntime()
	start := time.Now()
	var plain, withTrace []float64
	for k := 0; maxRounds <= 0 || k < maxRounds; k++ {
		var t *tracer
		if e.trace != nil && k%2 == 1 {
			t = e.trace
		}
		r0 := time.Now()
		if err := round(k, t); err != nil {
			return err
		}
		d := time.Since(r0).Seconds()
		if t != nil {
			withTrace = append(withTrace, d)
		} else {
			plain = append(plain, d)
		}
		if time.Since(start).Seconds()+d > e.seconds && (e.trace == nil || k >= 1) {
			break
		}
	}
	after := readRuntime()
	n := float64(len(plain) + len(withTrace))
	out.set("go.alloc_mb", (after.allocBytes-before.allocBytes)/1e6/n)
	out.set("go.gc_cycles", (after.gcCycles-before.gcCycles)/n)
	if busy := (after.cpuTotal - after.cpuIdle) - (before.cpuTotal - before.cpuIdle); busy > 0 {
		out.set("go.gc_cpu_frac", (after.cpuGC-before.cpuGC)/busy)
	}
	out.set("wall_s", median(plain))
	if len(withTrace) > 0 {
		out.set("trace.overhead_frac", median(withTrace)/median(plain)-1)
	}
	fmt.Fprintf(e.log, "rounds %d in %.1fs, untraced %s traced %s\n", int(n), time.Since(start).Seconds(), fmtList(plain), fmtList(withTrace))
	return nil
}

// timeSetup runs setup several times and records the median as
// setup_s; it returns the last setup's product.
func timeSetup[T any](e *env, out *outcome, reps int, setup func(last bool) (T, error)) (T, error) {
	var v T
	var durs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if v, err = setup(i == reps-1); err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(durs))
	fmt.Fprintf(e.log, "setup_s %s\n", fmtList(durs))
	return v, nil
}

// runtimeSample holds the cumulative runtime/metrics counters the
// go.* metrics are differences of.
type runtimeSample struct {
	allocBytes, gcCycles, cpuGC, cpuTotal, cpuIdle float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{f(0), f(1), f(2), f(3), f(4)}
}

// heapAllocMB returns the bytes allocated so far, in MB.
func heapAllocMB() float64 { return readRuntime().allocBytes / 1e6 }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// sourceDigest identifies the measured code when no VCS revision is
// stamped into the build: a hash over every Go source and go.mod file
// of the tree, skipping hidden directories.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(blob))
			h.Write(blob)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
