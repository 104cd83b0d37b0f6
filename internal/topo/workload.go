package topo

import (
	"pciebench/internal/fault"
	"pciebench/internal/workload"
)

// RunWorkload drives cfg's traffic on every endpoint of the fabric
// concurrently: each endpoint's ring region is host-warmed, its port
// becomes the workload path and its buffer base the queue region, then
// the workload engine executes them all on the fabric's kernel. This
// is the single assembly the sweep engine, the CLI and the examples
// share.
func RunWorkload(f *Fabric, cfg workload.Config, pairsEach int) (*workload.MultiResult, error) {
	paths := make([]workload.Path, len(f.Endpoints))
	bases := make([]uint64, len(f.Endpoints))
	for i, ep := range f.Endpoints {
		ep.Buffer.WarmHost(0, cfg.Footprint())
		paths[i] = ep.Port
		bases[i] = ep.Buffer.DMAAddr(0)
	}
	res, err := workload.RunMulti(f.Kernel, paths, bases, cfg, pairsEach)
	if err == nil {
		attachFaults(f, res)
	}
	return res, err
}

// attachFaults snapshots each endpoint's fault counters into the
// result (and their sum into the aggregate). Fault-free fabrics have
// no counter blocks, so the result is untouched — and its JSON stays
// byte-identical to the pre-fault encoding.
func attachFaults(f *Fabric, res *workload.MultiResult) {
	if !f.Spec.Faults.Enabled() {
		return
	}
	agg := &fault.Counters{}
	for i := range res.Endpoints {
		ep := f.Endpoints[res.Endpoints[i].Endpoint]
		if ep.Faults == nil {
			continue
		}
		c := *ep.Faults
		res.Endpoints[i].Faults = &c
		agg.Add(c)
	}
	res.Faults = agg
}
