package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pciebench/internal/fault"
	"pciebench/internal/mem"
	"pciebench/internal/rc"
	"pciebench/internal/runner"
	"pciebench/internal/sim"
	"pciebench/internal/sweep"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// The fabric-sweep workload runs the registered multi-endpoint grids
// with n raised from the quick default (2000 pairs per endpoint) until
// simulation, not build or warm, dominates each cell.
const (
	fabricN = 16000
	// fabricSeedPool is how many seed= overrides have recorded digests;
	// the workload seed picks one of them.
	fabricSeedPool = 16
)

var fabricGrids = []string{"topo-contend", "iommu-scale", "ber-goodput"}

// fabricSeed maps a workload seed to the grids' seed= override.
func fabricSeed(seed int64) int64 { return 1 + int64(uint64(seed)%fabricSeedPool) }

// fabricSpecs resolves the three grids with the workload's overrides.
func fabricSpecs(override int64) ([]*sweep.Spec, error) {
	var specs []*sweep.Spec
	for _, name := range fabricGrids {
		s, err := sweep.ByName(name)
		if err != nil {
			return nil, err
		}
		if err := s.ApplyOverrides([]string{"n=" + strconv.Itoa(fabricN), "seed=" + strconv.FormatInt(override, 10)}); err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// emitTSV renders a result as the tsv emitter, the format pcie-bench
// -run and pcie-served's results endpoint default to.
func emitTSV(r *sweep.Result) (string, error) {
	emit, err := sweep.EmitterFor("tsv")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := emit(&b, r); err != nil {
		return "", err
	}
	return b.String(), nil
}

// runFabric is the fabric-sweep workload: the three grids through one
// sweep.Engine with Workers = SimWorkers = nproc, as
// pcie-bench -parallel $(nproc) -sim-parallel $(nproc) runs them.
func runFabric(e *env) (*outcome, error) {
	tab := loadDigests()
	override := fabricSeed(e.seed)
	want := tab.FabricSweep[strconv.FormatInt(override, 10)]
	if tab.FabricN != fabricN || len(want) != len(fabricGrids) {
		return nil, fmt.Errorf("digests.json has no fabric digests for n=%d seed=%d", fabricN, override)
	}
	fmt.Fprintf(e.log, "fabric seed override %d\n", override)
	out := &outcome{}
	// Set-up resolves the grids and assembles every cell's fabric once.
	specs, err := timeSetup(e, out, 5, func(bool) ([]*sweep.Spec, error) {
		specs, err := fabricSpecs(override)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			for _, c := range s.Cells() {
				fc, err := fabricCell(s, c)
				if err != nil {
					return nil, err
				}
				if _, err := fc.sys.Fabric(fc.shape, fc.opt); err != nil {
					return nil, err
				}
			}
		}
		return specs, nil
	})
	if err != nil {
		return nil, err
	}

	pairs := 0
	for _, s := range specs {
		for _, c := range s.Cells() {
			n, _ := strconv.Atoi(c.KV["endpoints"])
			pairs += n * fabricN
		}
	}
	engine := &sweep.Engine{Workers: e.nproc, SimWorkers: e.nproc, Quality: sweep.Quick}
	results := map[string]*sweep.Result{}
	var service []float64 // ms per cell, traced rounds
	var busy float64      // worker-seconds the cells kept busy, traced rounds
	var capacity float64  // worker-seconds available, traced rounds
	err = measureRounds(e, out, 0, func(k int, t *tracer) error {
		id := fmt.Sprintf("round-%d", k)
		root := t.begin("fabric.round", id, -1)
		defer t.end(root)
		for _, s := range specs {
			var clock *cellClock
			engine.Cache, engine.OnCell = nil, nil
			if t != nil {
				clock = &cellClock{done: map[string]time.Time{}}
				engine.Cache, engine.OnCell = clock, clock.delivered
			}
			start := time.Now()
			var res *sweep.Result
			err := t.do("sweep.run", s.Name, root, func() (err error) {
				res, _, err = engine.Run(context.Background(), s)
				return err
			})
			out.attempted += s.Count()
			var tsv string
			if err == nil {
				err = t.do("sweep.emit", s.Name, root, func() (err error) {
					tsv, err = emitTSV(res)
					return err
				})
			}
			if err != nil || digest(tsv) != want[s.Name] {
				out.failed += s.Count()
				fmt.Fprintf(e.log, "mismatch %s round %d: %v\n", s.Name, k, err)
				continue
			}
			results[s.Name] = res
			if clock != nil {
				cells := clock.service(e.nproc)
				for _, d := range cells {
					service = append(service, d*1e3)
					busy += d
				}
				capacity += float64(e.nproc) * clock.last.Sub(start).Seconds()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.set("sim_txn_per_s", float64(pairs)/out.metrics["wall_s"])
	if e.trace != nil {
		out.set("runner.cell_p50_ms", median(service))
		out.set("runner.cell_max_ms", quantile(service, 1))
		out.set("runner.busy_frac", busy/capacity)
		out.set("sweep.emit_ms", median(e.trace.durations("sweep.emit"))*1e3)
		if err := probeFabric(e, out, specs, results); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cellClock recovers when each cell of one traced Engine.Run started
// and finished, from outside the engine. Handed to the engine as its
// store, it sees one lookup per cell in enumeration order before the
// runner starts (and answers each with a miss) and one store per cell
// as the cell finishes. The runner hands cells out in enumeration order
// to whichever worker frees first, so with W workers the first W cells
// start with the pool and cell W+j starts at the j'th completion. The
// last OnCell delivery ends the run's makespan.
type cellClock struct {
	mu   sync.Mutex
	keys []string // lookup order == enumeration order
	pool time.Time
	done map[string]time.Time
	last time.Time
}

func (c *cellClock) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, key)
	c.pool = time.Now()
	return nil, false
}

func (c *cellClock) Put(key string, _ []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[key] = time.Now()
}

func (c *cellClock) Len() int { return 0 }

func (c *cellClock) delivered(sweep.CellResult) { c.last = time.Now() }

// service returns each cell's run time in seconds.
func (c *cellClock) service(workers int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ends := make([]time.Time, len(c.keys))
	for i, k := range c.keys {
		ends[i] = c.done[k]
	}
	sorted := append([]time.Time(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	out := make([]float64, len(ends))
	for i, end := range ends {
		start := c.pool
		if i >= workers {
			start = sorted[i-workers]
		}
		out[i] = end.Sub(start).Seconds()
	}
	return out
}

// fabricCellConfig is a fabric-sweep cell resolved the way the sweep
// engine resolves it, so the probes can call the layers one at a time.
type fabricCellConfig struct {
	sys   sysconf.System
	shape topo.Shape
	opt   sysconf.Options
	wl    workload.Config
	n     int
}

// fabricCell resolves the keys the three fabric grids use.
func fabricCell(s *sweep.Spec, c sweep.Cell) (fabricCellConfig, error) {
	kv := c.KV
	var fc fabricCellConfig
	var err error
	if fc.sys, err = sysconf.ByName(kv["system"]); err != nil {
		return fc, err
	}
	num := func(key string) int {
		n, perr := sweep.ParseSize(kv[key])
		if perr != nil && err == nil {
			err = fmt.Errorf("cell %d: %s: %w", c.Index, key, perr)
		}
		return n
	}
	fc.shape.Endpoints = num("endpoints")
	fc.n = num("n")
	if v, ok := kv["switch"]; ok {
		if fc.shape.Switch, err = topo.ParseSwitch(v); err != nil {
			return fc, err
		}
	}
	fc.shape.Placement = kv["socket"]
	fc.shape.LocalBuffers = kv["buffers"] == "local"
	fc.opt.IOMMU = kv["iommu"] == "true"
	fc.opt.NoJitter = kv["nojitter"] == "true"
	if v, ok := kv["iommuscope"]; ok {
		if fc.opt.IOMMUScope, err = topo.ParseIOMMUScope(v); err != nil {
			return fc, err
		}
	}
	if v, ok := kv["ber"]; ok {
		ber, err := sweep.ParseBER(v)
		if err != nil {
			return fc, err
		}
		if ber != 0 {
			fc.opt.Faults = &fault.Config{BER: ber}
		}
	}
	base := int64(num("seed"))
	if base == 0 {
		base = s.Seed
	}
	if s.SeedMode == sweep.SeedFixed {
		fc.opt.Seed = base
	} else {
		if base == 0 {
			base = 1
		}
		fc.opt.Seed = runner.Seed(base, c.Index)
	}
	sizes, serr := workload.ParseSizeDist(kv["sizes"])
	if serr != nil {
		return fc, serr
	}
	fc.wl = workload.Config{Queues: num("queues"), Sizes: sizes, BufferBytes: sysconf.DefaultBufferSize, Seed: fc.opt.Seed}
	return fc, err
}

// probeFabric sends every cell through sysconf.System.Fabric,
// mem.NewSystem, hostif.Buffer.WarmHost and topo.RunWorkload under
// spans, reads the counters the simulator exports, and checks that each
// cell reproduces the packet rate the engine reported. It then times
// the largest cells of each grid at 1, 2 and nproc simulation workers.
func probeFabric(e *env, out *outcome, specs []*sweep.Spec, results map[string]*sweep.Result) error {
	t := e.trace
	var allocMB, lines float64
	var c counters
	for _, s := range specs {
		for _, cell := range s.Cells() {
			fc, err := fabricCell(s, cell)
			if err != nil {
				return err
			}
			fc.opt.SimWorkers = e.nproc
			id := fmt.Sprintf("%s/%d", s.Name, cell.Index)
			root := t.begin("probe.cell", id, -1)
			var fab *topo.Fabric
			a0 := heapAllocMB()
			err = t.do("sysconf.build", id, root, func() (err error) {
				fab, err = fc.sys.Fabric(fc.shape, fc.opt)
				return err
			})
			allocMB += heapAllocMB() - a0
			if err != nil {
				return fmt.Errorf("probe %s: %w", id, err)
			}
			if err := t.do("mem.newsystem", id, root, func() error {
				_, err := mem.NewSystem(fab.Mem.Config())
				return err
			}); err != nil {
				return fmt.Errorf("probe %s: %w", id, err)
			}
			foot := fc.wl.Footprint()
			t.do("hostif.warm", id, root, func() error {
				for _, ep := range fab.Endpoints {
					ep.Buffer.WarmHost(0, foot)
				}
				return nil
			})
			lines += float64(len(fab.Endpoints) * foot / 64)
			var res *workload.MultiResult
			err = t.do("workload.simulate", id, root, func() (err error) {
				res, err = topo.RunWorkload(fab, fc.wl, fc.n)
				return err
			})
			t.end(root)
			out.attempted++
			if err != nil || results[s.Name] == nil || res.PPS != results[s.Name].Cells[cell.Index].Values[0] {
				out.failed++
				fmt.Fprintf(e.log, "probe %s does not reproduce the engine's cell: %v\n", id, err)
				continue
			}
			c.add(fab)
		}
	}
	sim := t.selfSeconds("workload.simulate")
	out.set("sysconf.build_s", t.selfSeconds("sysconf.build"))
	out.set("mem.newsystem_s", t.selfSeconds("mem.newsystem"))
	out.set("go.build_alloc_mb", allocMB)
	warm := t.selfSeconds("hostif.warm")
	out.set("hostif.warm_s", warm)
	out.set("hostif.warm_lines_per_s", lines/warm)
	out.set("workload.simulate_s", sim)
	out.set("sim.events", float64(c.events))
	out.set("sim.ns_per_event", sim*1e9/float64(c.events))
	out.set("rc.tlps", float64(c.tlps))
	out.set("rc.tlps_per_s", float64(c.tlps)/sim)
	out.set("mem.llc_hits", float64(c.llcHits))
	out.set("mem.llc_misses", float64(c.llcMisses))
	out.set("mem.evictions", float64(c.evictions))
	out.set("iommu.hits", float64(c.iommuHits))
	out.set("iommu.misses", float64(c.iommuMisses))
	out.set("fault.replays", float64(c.faults.Replays))
	out.set("fault.timeouts", float64(c.faults.Timeouts))
	out.set("fault.retrains", float64(c.faults.Retrains))
	return probeParallel(e, out, specs)
}

// counters sums the simulator's own counters over probed fabrics.
type counters struct {
	events, tlps                  uint64
	llcHits, llcMisses, evictions uint64
	iommuHits, iommuMisses        uint64
	faults                        fault.Counters
}

func (c *counters) add(f *topo.Fabric) {
	kernels := map[*sim.Kernel]bool{}
	for _, k := range f.Kernels {
		kernels[k] = true
	}
	for i := range f.Endpoints {
		kernels[f.EndpointKernel(i)] = true
	}
	for k := range kernels {
		c.events += k.Executed
	}
	links := map[*rc.LinkStats]bool{}
	for _, r := range f.Routers {
		for _, p := range r.Ports() {
			links[p.Stats()] = true
		}
	}
	for l := range links {
		c.tlps += l.UpTLPs + l.DownTLPs
	}
	for n := 0; n < f.Mem.Config().Nodes; n++ {
		node := f.Mem.Node(n)
		c.llcHits += node.Hits
		c.llcMisses += node.Misses
		c.evictions += node.Evictions
	}
	for _, u := range f.IOMMUUnits() {
		c.iommuHits += u.Hits
		c.iommuMisses += u.Misses
	}
	for _, ep := range f.Endpoints {
		if ep.Faults != nil {
			c.faults.Add(*ep.Faults)
		}
	}
}

// probeParallel simulates the largest cells of each grid (the first
// and last cell with the most endpoints) at 1, 2 and nproc simulation
// workers and reports the speed-up of the summed simulate time.
func probeParallel(e *env, out *outcome, specs []*sweep.Spec) error {
	t := e.trace
	workers := []int{1, 2}
	if e.nproc > 2 {
		workers = append(workers, e.nproc)
	}
	total := map[int]float64{}
	for _, s := range specs {
		var big []sweep.Cell
		most := 0
		for _, c := range s.Cells() {
			n, _ := strconv.Atoi(c.KV["endpoints"])
			if n > most {
				most, big = n, nil
			}
			if n == most {
				big = append(big, c)
			}
		}
		if len(big) > 2 {
			big = []sweep.Cell{big[0], big[len(big)-1]}
		}
		for _, cell := range big {
			fc, err := fabricCell(s, cell)
			if err != nil {
				return err
			}
			for _, w := range workers {
				fc.opt.SimWorkers = w
				fab, err := fc.sys.Fabric(fc.shape, fc.opt)
				if err != nil {
					return err
				}
				name := fmt.Sprintf("parallel.w%d", w)
				h := t.begin(name, fmt.Sprintf("%s/%d", s.Name, cell.Index), -1)
				t0 := time.Now()
				_, err = topo.RunWorkload(fab, fc.wl, fc.n)
				total[w] += time.Since(t0).Seconds()
				t.end(h)
				if err != nil {
					return err
				}
			}
		}
	}
	out.set("sim.parallel_speedup_w2", total[1]/total[2])
	wn := total[2]
	if e.nproc > 2 {
		wn = total[e.nproc]
	}
	out.set("sim.parallel_speedup_wN", total[1]/wn)
	return nil
}
