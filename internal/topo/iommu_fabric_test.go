package topo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pciebench/internal/fault"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// iommuFabric builds a split-socket NFP6000-BDW fabric with every DMA
// translated through the IOMMU under the given unit scope. Jitter stays
// on, so determinism must hold on the jittery path too.
func iommuFabric(t *testing.T, endpoints int, scope string, fc *fault.Config) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sys.Fabric(
		topo.Shape{Endpoints: endpoints, Placement: "split", LocalBuffers: true},
		sysconf.Options{
			Seed: 7, BufferSize: 1 << 20,
			IOMMU: true, IOMMUScope: scope, Faults: fc,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// iommuStats sums hit/miss/fault counters over a fabric's translation
// units: identical sums mean the IO-TLB and walker state evolved alike.
func iommuStats(f *topo.Fabric) [3]uint64 {
	var s [3]uint64
	for _, u := range f.IOMMUUnits() {
		s[0] += u.Hits
		s[1] += u.Misses
		s[2] += u.Faults
	}
	return s
}

// TestIOMMUFabricWorkerIdentity is the determinism property for
// translated fabrics under cell-level parallelism: under both unit
// scopes, jittery, fault-injected workload runs executed concurrently
// with copies of themselves are byte-identical to a lone run,
// translation counters included.
func TestIOMMUFabricWorkerIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		endpoints := 2 + rng.Intn(5) // 2..6
		cfg := workload.Config{
			Seed:        int64(1 + rng.Intn(1000)),
			Queues:      1 + rng.Intn(2),
			BufferBytes: 1 << 20,
		}
		pairs := 100 + rng.Intn(100)
		var fc *fault.Config
		if trial%2 == 1 {
			fc = &fault.Config{BER: 1e-5}
		}
		for _, scope := range []string{topo.IOMMUScopeGlobal, topo.IOMMUScopePerSocket} {
			t.Run(fmt.Sprintf("trial%d-%s", trial, scope), func(t *testing.T) {
				build := func() *topo.Fabric { return iommuFabric(t, endpoints, scope, fc) }
				fabs, _ := requireConcurrentIdentity(t, build, cfg, pairs, 3)
				ref := iommuStats(fabs[0])
				if ref[0]+ref[1] == 0 {
					t.Fatal("no translations counted")
				}
				for w, fab := range fabs[1:] {
					if got := iommuStats(fab); got != ref {
						t.Fatalf("concurrent run %d: translation counters %v, lone run %v", w+1, got, ref)
					}
				}
			})
		}
	}
}

// iommuGolden pins one translated run to a committed golden file.
// Regenerate with `go test ./internal/topo -run IOMMUGolden -update`.
func iommuGolden(t *testing.T, scope, file string) {
	t.Helper()
	res, err := topo.RunWorkload(iommuFabric(t, 4, scope, nil), workload.Config{Seed: 11, BufferBytes: 1 << 20}, 400)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, res, file)
}

// TestIOMMUGoldenSplit pins the per-socket-scope run: one translation
// unit per socket.
func TestIOMMUGoldenSplit(t *testing.T) {
	iommuGolden(t, topo.IOMMUScopePerSocket, "iommu_split.golden.json")
}

// TestIOMMUGoldenShared pins the global-scope run: one unit shared by
// every socket.
func TestIOMMUGoldenShared(t *testing.T) {
	iommuGolden(t, topo.IOMMUScopeGlobal, "iommu_shared.golden.json")
}
