// Parallel simulation of independent islands — design note.
//
// A ParallelKernel runs domains that share no simulation state: each
// domain's kernel owns its heap, clock, sequence counter and random
// source, and no event ever crosses from one domain to another. Each
// domain therefore runs to completion on its own, and the result is a
// pure function of the domain's own events — byte-identical at every
// worker count, and identical to running the same events on one
// shared kernel, whose (time, seq) order restricted to one domain's
// events is that domain's own order.
//
// Endpoints that do share state (a switch uplink, a socket's pipeline,
// a buffer node's LLC, a global IOMMU) belong to one island and run on
// one kernel, exactly as the serial build runs them; internal/topo
// computes the islands. Parallelism is across islands only.
//
// Randomness. Workload streams are per-endpoint (seeded by endpoint
// index), so they drain identically in any schedule. Root-complex
// jitter is per-socket state: island 0 keeps its kernel's stream —
// preserving every golden pinned before islands existed — while each
// further island draws from a stream derived from the spec seed and
// island id (topo.islandSeed). Serial builds install the same
// assignment, keeping jittery fabrics byte-identical serial-vs-parallel.

package sim

import "sync"

// ParallelKernel runs several independent Kernels to completion on a
// bounded number of goroutines. Domains exchange no events, so the
// goroutine a domain runs on never affects its results.
//
// A ParallelKernel is not safe for concurrent use by multiple callers.
type ParallelKernel struct {
	domains []*Kernel
}

// NewParallel builds a coordinator over the given kernels; kernels[i]
// becomes domain i. The kernels must not be shared between domains.
func NewParallel(kernels []*Kernel) *ParallelKernel {
	if len(kernels) == 0 {
		panic("sim: NewParallel needs at least one domain")
	}
	return &ParallelKernel{domains: kernels}
}

// Run executes every domain to completion on up to workers goroutines
// (<= 1 runs them one after another in domain order) and returns the
// latest domain clock. Domains are assigned to goroutines statically,
// round-robin.
func (p *ParallelKernel) Run(workers int) Time {
	if workers > len(p.domains) {
		workers = len(p.domains)
	}
	if workers <= 1 {
		for _, k := range p.domains {
			k.Run()
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(p.domains); i += workers {
					p.domains[i].Run()
				}
			}(w)
		}
		wg.Wait()
	}
	end := Time(0)
	for _, k := range p.domains {
		if k.now > end {
			end = k.now
		}
	}
	return end
}
