// Command pcie-bench runs individual pcie-bench micro-benchmarks
// against a simulated system from the paper's Table 1, mirroring the
// control programs of paper §5.4, and exposes the declarative sweep
// engine for whole parameter grids.
//
// Examples:
//
//	pcie-bench -list
//	pcie-bench -system NFP6000-HSW -bench lat_rd -transfer 64 -cache warm
//	pcie-bench -system NFP6000-BDW -bench bw_rd -transfer 64 -window 16M -iommu
//	pcie-bench -system NFP6000-HSW-E3 -bench lat_rd -n 100000 -cdf
//	pcie-bench -system NFP6000-HSW -bench bw_rdwr -json
//	pcie-bench -bench workload -queues 4 -sizes imix -arrival poisson:4M:burst=64
//	pcie-bench -suite -parallel 8
//	pcie-bench -sweeps
//	pcie-bench -run fig9 transfer=64 mps=512
//	pcie-bench -spec my-grid.json -format json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pciebench/internal/bench"
	"pciebench/internal/fault"
	"pciebench/internal/pcie"
	_ "pciebench/internal/report" // registers the paper-figure sweeps
	"pciebench/internal/stats"
	"pciebench/internal/sweep"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcie-bench:", err)
		os.Exit(1)
	}
}

// benchResult is the machine-readable form of one benchmark run
// (-json output).
type benchResult struct {
	Bench   string `json:"bench"`
	System  string `json:"system"`
	Adapter string `json:"adapter"`
	Params  string `json:"params"`
	// Latency benchmarks fill Latency; bandwidth benchmarks fill
	// Gbps/TxnPerSec; the workload engine fills Workload.
	Latency   *stats.Summary   `json:"latency_ns,omitempty"`
	Gbps      float64          `json:"gbps,omitempty"`
	TxnPerSec float64          `json:"txn_per_sec,omitempty"`
	Workload  *workload.Result `json:"workload,omitempty"`
	// Multi-endpoint topology runs fill WorkloadMulti or P2P instead.
	WorkloadMulti *workload.MultiResult `json:"workload_multi,omitempty"`
	P2P           *topo.P2PResult       `json:"p2p,omitempty"`
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcie-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file when the run finishes")
		list       = fs.Bool("list", false, "list systems and exit")
		listSys    = fs.Bool("list-systems", false, "list the Table-1 systems (name, CPU, adapter, link) and exit")
		system     = fs.String("system", "NFP6000-HSW", "system under test (see -list)")
		benchSel   = fs.String("bench", "lat_rd", "lat_rd|lat_wrrd|bw_rd|bw_wr|bw_rdwr|workload|p2p")
		window     = fs.String("window", "8K", "window size (supports K/M/G suffixes)")
		transfer   = fs.Int("transfer", 64, "transfer size in bytes")
		offset     = fs.Int("offset", 0, "offset from cache line start")
		pattern    = fs.String("pattern", "rand", "rand|seq")
		cache      = fs.String("cache", "warm", "cold|warm|devwarm")
		n          = fs.Int("n", 10000, "measured transactions")
		node       = fs.Int("node", 0, "NUMA node for the host buffer")
		iommuOn    = fs.Bool("iommu", false, "enable the IOMMU (4KB mappings)")
		iommuScope = fs.String("iommu-scope", "", "IOMMU translation-unit scope: global (default) or per-socket")
		sp         = fs.Bool("sp", false, "use superpage IOMMU mappings")
		direct     = fs.Bool("direct", false, "use the device's direct command interface")
		seed       = fs.Int64("seed", 1, "simulation seed")
		cdf        = fs.Bool("cdf", false, "print the latency CDF (latency benches)")
		jsonOut    = fs.Bool("json", false, "print the benchmark result as JSON")
		suite      = fs.Bool("suite", false, "run the full ~2000-test matrix (paper §5.4) and print a TSV report")
		parallel   = fs.Int("parallel", 0, "suite/sweep worker count (0 = GOMAXPROCS); the report is identical for any value")
		sweeps     = fs.Bool("sweeps", false, "list registered sweeps and exit")
		runName    = fs.String("run", "", "run one registered sweep; remaining args override axes (e.g. gen=4,5 lanes=16)")
		specPath   = fs.String("spec", "", "run a custom sweep from a JSON spec file; remaining args override axes")
		format     = fs.String("format", "table", "sweep output format: "+strings.Join(sweep.Formats(), "|"))
		full       = fs.Bool("full", false, "paper-scale sample counts for sweeps (slower)")
		cacheDir   = fs.String("cache-dir", "", "dedup sweep cells against an on-disk result cache in this directory")

		// Traffic-engine knobs (-bench workload).
		queues   = fs.Int("queues", 1, "workload: RX/TX queue pairs")
		flows    = fs.Int("flows", workload.DefaultFlows, "workload: simulated flow population spread over the queues")
		inflight = fs.Int("inflight", workload.DefaultWindow, "workload: per-queue in-flight packet-pair window")
		sizes    = fs.String("sizes", "1500", "workload: frame sizes (a size, imix, uniform:lo-hi or hist:size=weight,...)")
		arrival  = fs.String("arrival", "saturate", "workload: arrivals (saturate, rate:<pps> or poisson:<pps>[:burst=<n>])")
		nicSel   = fs.String("nic", "kernel", "workload: NIC/driver design (simple|kernel|dpdk)")
		intrmod  = fs.String("intrmod", "", "workload: interrupt moderation (packets per interrupt, or poll)")
		doorbell = fs.Int("doorbell", 0, "workload: doorbell batch override (0 = design default)")

		// Topology knobs (-bench workload / -bench p2p).
		endpoints = fs.Int("endpoints", 1, "topology: endpoint (NIC) count")
		swSel     = fs.String("switch", "", "topology: shared switch uplink (none, on, or gen<G>x<L>)")
		socketSel = fs.String("socket", "", "topology: endpoint placement (socket index or split)")
		localBuf  = fs.Bool("local-buffers", false, "topology: home each endpoint's DMA buffer on its own socket's NUMA node")
		noJitter  = fs.Bool("nojitter", false, "disable root-complex latency jitter")
		p2pMode   = fs.String("p2p", "direct", "p2p: transfer path (direct or bounce)")

		// Fault-injection knobs (internal/fault); all off by default.
		berRate    = fs.Float64("ber", 0, "fault injection: per-bit link error rate driving LCRC corruption and replay (0 = off)")
		ctoFlag    = fs.String("cto", "", "fault injection: DMA read completion timeout, e.g. 10us (empty = off)")
		retrainSel = fs.String("retrain", "", "fault injection: mean time between link retrain events, e.g. 1ms (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Profiling wraps every mode — single benches, the suite and the
	// sweep engine — so perf work needs no code edits, just flags.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "pcie-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "pcie-bench: memprofile:", err)
			}
		}()
	}

	if *list {
		for _, s := range sysconf.Systems() {
			fmt.Fprintf(stdout, "%-16s %-28s %-12s %s\n", s.Name, s.CPU, s.Arch, s.Adapter)
		}
		return nil
	}

	if *listSys {
		// Every Table-1 system negotiated the paper's Gen3 x8 link; the
		// column shows that default (overridable per run with
		// -run/-spec gen/lanes axes or sysconf.Options.Link).
		link := pcie.DefaultGen3x8()
		fmt.Fprintf(stdout, "%-16s %-28s %-16s %s\n", "SYSTEM", "CPU", "ADAPTER", "LINK (default)")
		for _, s := range sysconf.Systems() {
			fmt.Fprintf(stdout, "%-16s %-28s %-16s %s\n", s.Name, s.CPU, s.Adapter, link)
		}
		return nil
	}

	q := sweep.Quick
	if *full {
		q = sweep.Full
	}
	cli := &sweep.CLI{
		List: *sweeps, RunName: *runName, SpecPath: *specPath,
		Overrides: fs.Args(), Format: *format,
		Workers: *parallel, Quality: q, CacheDir: *cacheDir,
	}
	if cli.Active() {
		return cli.Execute(context.Background(), stdout, stderr)
	}

	if *suite {
		sys, err := sysconf.ByName(*system)
		if err != nil {
			return err
		}
		// Every suite cell builds its own instance from a seed derived
		// from -seed and the cell index, so the matrix fans out across
		// the worker pool with a report that is byte-identical for any
		// -parallel value. (Per-cell seeding means suite numbers are
		// not comparable with reports generated by the old shared-
		// instance sequential runner, only with other parallel runs.)
		factory := func(seed int64) (*bench.Target, error) {
			inst, err := sys.Build(sysconf.Options{Seed: seed, IOMMU: *iommuOn, IOMMUScope: *iommuScope, SuperPages: *sp})
			if err != nil {
				return nil, err
			}
			return inst.Target(), nil
		}
		cfg := bench.DefaultSuite()
		results, err := bench.RunSuite(context.Background(), factory, cfg, bench.SuiteOptions{
			Workers: *parallel,
			Seed:    *seed,
			Progress: func(done, total int) {
				if done%100 == 0 || done == total {
					fmt.Fprintf(stderr, "\r%d/%d", done, total)
				}
			},
		})
		fmt.Fprintln(stderr)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, bench.RenderSuite(results))
		return nil
	}

	sys, err := sysconf.ByName(*system)
	if err != nil {
		return err
	}
	faults, err := faultConfig(*berRate, *ctoFlag, *retrainSel)
	if err != nil {
		return err
	}
	opts := sysconf.Options{
		Seed:       *seed,
		IOMMU:      *iommuOn,
		IOMMUScope: *iommuScope,
		SuperPages: *sp,
		BufferNode: *node,
		NoJitter:   *noJitter,
		Faults:     faults,
	}
	shape := topo.Shape{Endpoints: *endpoints, Placement: *socketSel, LocalBuffers: *localBuf}
	if *swSel != "" {
		shape.Switch, err = topo.ParseSwitch(*swSel)
		if err != nil {
			return err
		}
	}
	if !shape.Degenerate() && *benchSel != "workload" && *benchSel != "p2p" {
		return fmt.Errorf("topology flags (-endpoints/-switch/-socket/-local-buffers) apply to -bench workload or -bench p2p")
	}

	if *benchSel == "p2p" {
		endpointsSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "endpoints" {
				endpointsSet = true
			}
		})
		if shape.Endpoints < 2 {
			if endpointsSet {
				return fmt.Errorf("-bench p2p needs -endpoints >= 2, got %d", shape.Endpoints)
			}
			shape.Endpoints = 2
		}
		// Default to a shared switch, except under split placement
		// (which requires direct attachment to both sockets).
		if shape.Switch == nil && *swSel == "" && *socketSel != "split" {
			l := pcie.DefaultGen3x8()
			shape.Switch = &l
		}
		fab, err := sys.Fabric(shape, opts)
		if err != nil {
			return err
		}
		for _, sw := range fab.Switches {
			sw.EnableWaitSampling()
		}
		res, err := topo.RunP2P(fab, *p2pMode, *transfer, *n)
		if err != nil {
			return err
		}
		if *jsonOut {
			out := benchResult{
				Bench: "p2p", System: sys.Name, Adapter: sys.Adapter.String(),
				Params: fmt.Sprintf("mode=%s transfer=%d endpoints=%d n=%d", res.Mode, res.Transfer, shape.Count(), *n),
				P2P:    res,
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		}
		fmt.Fprintf(stdout, "# p2p on %s (%s): mode=%s transfer=%d endpoints=%d n=%d\n",
			sys.Name, sys.Adapter, res.Mode, res.Transfer, shape.Count(), *n)
		fmt.Fprintf(stdout, "P2P %s  p50 %.0fns  p99 %.0fns  %.3f Gb/s\n",
			res.Mode, res.Latency.Median, res.Latency.P99, res.Gbps)
		if res.UplinkWait != nil {
			fmt.Fprintf(stdout, "  uplink arb wait: p50 %.0fns  p99 %.0fns  max %.0fns\n",
				res.UplinkWait.Median, res.UplinkWait.P99, res.UplinkWait.Max)
		}
		return nil
	}

	win, err := sweep.ParseSize(*window)
	if err != nil {
		return err
	}
	// Multi-endpoint workload runs build their own Fabric below; only
	// degenerate shapes need the single-endpoint instance.
	var inst *sysconf.Instance
	if shape.Degenerate() {
		inst, err = sys.Build(opts)
		if err != nil {
			return err
		}
	}

	p := bench.Params{
		WindowSize:   win,
		TransferSize: *transfer,
		Offset:       *offset,
		Transactions: *n,
		Direct:       *direct,
	}
	switch *pattern {
	case "seq":
		p.Pattern = bench.Sequential
	case "rand":
		p.Pattern = bench.Random
	default:
		return fmt.Errorf("unknown pattern %q", *pattern)
	}
	switch *cache {
	case "cold":
		p.Cache = bench.Cold
	case "warm":
		p.Cache = bench.HostWarm
	case "devwarm":
		p.Cache = bench.DeviceWarm
	default:
		return fmt.Errorf("unknown cache state %q", *cache)
	}

	var tgt *bench.Target
	if inst != nil {
		tgt = inst.Target()
	}
	out := benchResult{
		Bench: *benchSel, System: sys.Name,
		Adapter: sys.Adapter.String(), Params: p.String(),
	}
	if !*jsonOut && *benchSel != "workload" {
		fmt.Fprintf(stdout, "# %s on %s (%s): %s\n", *benchSel, sys.Name, sys.Adapter, p)
	}
	switch *benchSel {
	case "workload":
		dist, err := workload.ParseSizeDist(*sizes)
		if err != nil {
			return err
		}
		arr, err := workload.ParseArrival(*arrival)
		if err != nil {
			return err
		}
		design, err := workload.DesignByName(*nicSel)
		if err != nil {
			return err
		}
		mod := workload.Moderation{DoorbellBatch: *doorbell}
		switch *intrmod {
		case "":
		case "poll":
			mod.IntrEvery = -1
		default:
			v, err := strconv.Atoi(*intrmod)
			if err != nil || v < 1 {
				return fmt.Errorf("bad -intrmod %q (want a packet count or poll)", *intrmod)
			}
			mod.IntrEvery = v
		}
		cfg := workload.Config{
			Queues: *queues, Flows: *flows, Window: *inflight,
			Design: design, Sizes: dist, Arrival: arr,
			Moderation: mod, Seed: *seed,
		}.WithDefaults()
		out.Params = fmt.Sprintf("queues=%d flows=%d inflight=%d sizes=%s arrival=%s nic=%s n=%d",
			cfg.Queues, cfg.Flows, cfg.Window, dist, arr, *nicSel, *n)
		if !shape.Degenerate() {
			out.Params += fmt.Sprintf(" endpoints=%d", shape.Count())
			if shape.Switch != nil {
				out.Params += fmt.Sprintf(" switch=%s", *shape.Switch)
			}
			if !*jsonOut {
				fmt.Fprintf(stdout, "# workload on %s (%s): %s\n", sys.Name, sys.Adapter, out.Params)
			}
			fab, err := sys.Fabric(shape, opts)
			if err != nil {
				return err
			}
			cfg.BufferBytes = fab.Endpoints[0].Buffer.Size
			for _, sw := range fab.Switches {
				sw.EnableWaitSampling()
			}
			mres, err := topo.RunWorkload(fab, cfg, *n)
			if err != nil {
				return err
			}
			if *jsonOut {
				out.WorkloadMulti = mres
				break
			}
			fmt.Fprintf(stdout, "WORKLOAD %.3fM pps  %.3f Gb/s/dir  p50 %.0fns  p99 %.0fns  p99.9 %.0fns  elapsed %v\n",
				mres.PPS/1e6, mres.GbpsPerDirection, mres.Latency.Median, mres.Latency.P99, mres.Latency.P999, mres.Elapsed)
			for _, ep := range mres.Endpoints {
				fmt.Fprintf(stdout, "  ep%-2d %7d pairs  %8.3fM pps  %7.3f Gb/s  p50 %.0fns  p99 %.0fns\n",
					ep.Endpoint, ep.Pairs, ep.PPS/1e6, ep.GbpsPerDirection, ep.Latency.Median, ep.Latency.P99)
				if ep.Faults != nil {
					fmt.Fprintf(stdout, "       faults: %s\n", faultLine(ep.Faults))
				}
			}
			for _, sw := range fab.Switches {
				if ws, ok := sw.WaitSummary(true); ok {
					fmt.Fprintf(stdout, "  uplink arb wait: p50 %.0fns  p99 %.0fns  max %.0fns\n",
						ws.Median, ws.P99, ws.Max)
				}
			}
			break
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "# workload on %s (%s): %s\n", sys.Name, sys.Adapter, out.Params)
		}
		cfg.BufferBytes = inst.Buffer.Size
		inst.Buffer.WarmHost(0, cfg.Footprint())
		res, err := workload.Run(inst.Kernel, inst.RC, inst.Buffer.DMAAddr(0), cfg, *n)
		if err != nil {
			return err
		}
		if *jsonOut {
			out.Workload = res
			break
		}
		fmt.Fprintf(stdout, "WORKLOAD %.3fM pps  %.3f Gb/s/dir  p50 %.0fns  p99 %.0fns  p99.9 %.0fns  elapsed %v\n",
			res.PPS/1e6, res.GbpsPerDirection, res.Latency.Median, res.Latency.P99, res.Latency.P999, res.Elapsed)
		for _, q := range res.Queues {
			fmt.Fprintf(stdout, "  q%-3d %7d pairs  %8.3fM pps  %7.3f Gb/s  p50 %.0fns  p99 %.0fns\n",
				q.Queue, q.Pairs, q.PPS/1e6, q.Gbps, q.Latency.Median, q.Latency.P99)
		}
		if c := inst.Fabric.Endpoints[0].Faults; c != nil {
			fmt.Fprintf(stdout, "  faults: %s\n", faultLine(c))
		}
	case "lat_rd", "lat_wrrd":
		run := bench.LatRd
		if *benchSel == "lat_wrrd" {
			run = bench.LatWrRd
		}
		res, err := run(tgt, p)
		if err != nil {
			return err
		}
		if *jsonOut {
			out.Latency = &res.Summary
			break
		}
		fmt.Fprintf(stdout, "%s %s\n", res.Name, res.Summary)
		if *cdf {
			c, err := res.CDF()
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, c.TSV())
		}
	case "bw_rd", "bw_wr", "bw_rdwr":
		run := bench.BwRd
		switch *benchSel {
		case "bw_wr":
			run = bench.BwWr
		case "bw_rdwr":
			run = bench.BwRdWr
		}
		res, err := run(tgt, p)
		if err != nil {
			return err
		}
		if *jsonOut {
			out.Gbps = res.Gbps
			out.TxnPerSec = res.TxnPerSec
			break
		}
		fmt.Fprintf(stdout, "%s %.3f Gb/s  %.2fM txn/s  elapsed %v\n",
			res.Name, res.Gbps, res.TxnPerSec/1e6, res.Elapsed)
	default:
		return fmt.Errorf("unknown benchmark %q", *benchSel)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	// The micro benches drive the engine's completion-timeout model;
	// report the endpoint's counters whenever faults are armed.
	if *benchSel != "workload" && inst != nil && len(inst.Fabric.Endpoints) > 0 {
		if c := inst.Fabric.Endpoints[0].Faults; c != nil {
			fmt.Fprintf(stdout, "  faults: %s\n", faultLine(c))
		}
	}
	return nil
}

// faultConfig assembles the fault-injection options from the CLI
// flags; nil (fault-free) when every knob is off.
func faultConfig(ber float64, cto, retrain string) (*fault.Config, error) {
	fc := &fault.Config{BER: ber}
	var err error
	if cto != "" {
		if fc.CTO, err = sweep.ParseDuration(cto); err != nil {
			return nil, fmt.Errorf("-cto: %w", err)
		}
	}
	if retrain != "" {
		if fc.RetrainMTBF, err = sweep.ParseDuration(retrain); err != nil {
			return nil, fmt.Errorf("-retrain: %w", err)
		}
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	if !fc.Enabled() {
		return nil, nil
	}
	return fc, nil
}

// faultLine renders one endpoint's fault counters for the text
// reports.
func faultLine(c *fault.Counters) string {
	return fmt.Sprintf("replays %d  timeouts %d  retrains %d  (correctable %d  non-fatal %d  fatal %d)",
		c.Replays, c.Timeouts, c.Retrains, c.Correctable, c.NonFatal, c.Fatal)
}
