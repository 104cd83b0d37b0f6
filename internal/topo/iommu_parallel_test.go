package topo_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pciebench/internal/fault"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// iommuFabric builds a split-socket NFP6000-BDW fabric with every DMA
// translated through the IOMMU under the given unit scope. Jitter stays
// on: translation rides the same replay protocol as the rest of the
// fabric traffic, so determinism must hold on the jittery path too.
func iommuFabric(t *testing.T, endpoints, workers int, scope string, fc *fault.Config) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sys.Fabric(
		topo.Shape{Endpoints: endpoints, Placement: "split", LocalBuffers: true},
		sysconf.Options{
			Seed: 7, BufferSize: 1 << 20, SimWorkers: workers,
			IOMMU: true, IOMMUScope: scope, Faults: fc,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// iommuStats sums hit/miss/fault counters over a fabric's translation
// units: identical sums mean the IO-TLB and walker state evolved in the
// serial schedule regardless of how the fabric was partitioned.
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
// translated fabrics: under both unit scopes — per-socket DRHD units
// riding their island's kernel, and one global unit coupling every
// endpoint into one island — jittery, fault-injected workload runs are
// byte-identical at every worker count, translation counters included.
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
				serial := iommuFabric(t, endpoints, 1, scope, fc)
				ref, err := topo.RunWorkload(serial, cfg, pairs)
				if err != nil {
					t.Fatal(err)
				}
				refStats := iommuStats(serial)
				want := splitIslands(endpoints)
				if scope == topo.IOMMUScopeGlobal {
					want = oneIsland(endpoints)
				}
				for _, w := range []int{2, 4, 7} {
					fab := iommuFabric(t, endpoints, w, scope, fc)
					requireIslands(t, fab, want)
					res, err := topo.RunWorkload(fab, cfg, pairs)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, res) {
						t.Fatalf("workers=%d (endpoints=%d faults=%v): parallel run diverged from serial",
							w, endpoints, fc != nil)
					}
					if got := iommuStats(fab); got != refStats {
						t.Fatalf("workers=%d: translation counters %v, serial %v", w, got, refStats)
					}
				}
			})
		}
	}
}

// iommuGolden pins one translated partitioned run to a committed golden
// file. Regenerate with `go test ./internal/topo -run IOMMUGolden -update`.
func iommuGolden(t *testing.T, scope, file string) {
	t.Helper()
	fab := iommuFabric(t, 4, 4, scope, nil)
	res, err := topo.RunWorkload(fab, workload.Config{Seed: 11, BufferBytes: 1 << 20}, 400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("translated workload drifted from %s (rerun with -update if intended)\ngot:\n%s", path, got)
	}
}

// TestIOMMUGoldenSplit pins the per-socket-scope partitioned run: two
// islands, each with its own translation unit on its own kernel.
func TestIOMMUGoldenSplit(t *testing.T) {
	iommuGolden(t, topo.IOMMUScopePerSocket, "iommu_split.golden.json")
}

// TestIOMMUGoldenShared pins the global-scope run: one shared unit on
// the kernel of the single island.
func TestIOMMUGoldenShared(t *testing.T) {
	iommuGolden(t, topo.IOMMUScopeGlobal, "iommu_shared.golden.json")
}
