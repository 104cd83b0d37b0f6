package topo_test

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pciebench/internal/sim"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// splitFabric builds the canonical partitionable topology: endpoints
// round-robined across the sockets of a two-node system, each with a
// socket-local buffer, no jitter.
func splitFabric(t *testing.T, endpoints, simWorkers int) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sys.Fabric(
		topo.Shape{Endpoints: endpoints, Placement: "split", LocalBuffers: true},
		sysconf.Options{Seed: 7, BufferSize: 1 << 20, NoJitter: true, SimWorkers: simWorkers},
	)
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// oneIsland lists endpoints 0..n-1 as a single island.
func oneIsland(n int) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// splitIslands lists the islands of an n-endpoint split-socket shape:
// even endpoints on socket 0, odd ones on socket 1.
func splitIslands(n int) [][]int {
	isl := [][]int{nil, nil}
	for i := 0; i < n; i++ {
		isl[i%2] = append(isl[i%2], i)
	}
	return isl
}

// requireIslands asserts a fabric's partition: exactly the islands
// want, each with a kernel and router of its own that every endpoint of
// the island runs on.
func requireIslands(t *testing.T, fab *topo.Fabric, want [][]int) {
	t.Helper()
	if !reflect.DeepEqual(fab.Islands, want) {
		t.Fatalf("islands %v, want %v", fab.Islands, want)
	}
	if len(fab.Kernels) != len(want) || len(fab.Routers) != len(want) {
		t.Fatalf("%d kernels and %d routers for %d islands", len(fab.Kernels), len(fab.Routers), len(want))
	}
	distinct := map[*sim.Kernel]bool{}
	for d, isl := range want {
		distinct[fab.Kernels[d]] = true
		for _, i := range isl {
			if fab.EndpointKernel(i) != fab.Kernels[d] {
				t.Fatalf("endpoint %d does not run on island %d's kernel", i, d)
			}
		}
	}
	if len(distinct) != len(want) {
		t.Fatalf("%d islands share %d kernels", len(want), len(distinct))
	}
	if fab.Parallel() != (len(want) > 1) {
		t.Fatalf("Parallel() = %v with %d islands", fab.Parallel(), len(want))
	}
}

// TestParallelFabricByteIdentical is the headline tentpole contract: a
// partitioned fabric reproduces the serial build's workload results
// byte for byte at every worker count.
func TestParallelFabricByteIdentical(t *testing.T) {
	cfg := workload.Config{Seed: 11, BufferBytes: 1 << 20}
	serial := splitFabric(t, 4, 1)
	if serial.Parallel() {
		t.Fatalf("simworkers=1 built %d islands, want a serial fabric", len(serial.Islands))
	}
	ref, err := topo.RunWorkload(serial, cfg, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		fab := splitFabric(t, 4, w)
		// Each island holds two endpoints coupled by a shared socket;
		// both run on their island's one kernel.
		requireIslands(t, fab, [][]int{{0, 2}, {1, 3}})
		res, err := topo.RunWorkload(fab, cfg, 400)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("simworkers=%d diverged from the serial build:\nref %+v\ngot %+v", w, ref, res)
		}
	}
}

// TestParallelFabricGolden pins a partitioned run to a committed
// golden, so drift in the parallel path is caught even if serial and
// parallel drift together. Regenerate with
// `go test ./internal/topo -run ParallelFabricGolden -update`.
func TestParallelFabricGolden(t *testing.T) {
	fab := splitFabric(t, 4, 4)
	res, err := topo.RunWorkload(fab, workload.Config{Seed: 11, BufferBytes: 1 << 20}, 400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "parallel.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("partitioned workload drifted from %s (rerun with -update if intended)\ngot:\n%s", path, got)
	}
}

// manyIslandSpec derives a many-socket spec from the BDW calibration:
// sockets NUMA nodes, endpoints round-robined across them with
// socket-local buffers, so the partitioner yields min(sockets,
// endpoints) islands.
func manyIslandSpec(t *testing.T, sockets, endpoints int, seed int64, simWorkers int) topo.Spec {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sys.TopoSpec(
		topo.Shape{Endpoints: 2, Placement: "split", LocalBuffers: true},
		sysconf.Options{Seed: seed, BufferSize: 1 << 20, NoJitter: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec.Mem.Nodes = sockets
	base := spec.Sockets[0]
	spec.Sockets = nil
	for i := 0; i < sockets; i++ {
		s := base
		s.Node = i
		spec.Sockets = append(spec.Sockets, s)
	}
	ep0 := spec.Endpoints[0]
	spec.Endpoints = nil
	for i := 0; i < endpoints; i++ {
		ep := ep0
		ep.Name = ""
		ep.Socket = i % sockets
		ep.BufferNode = i % sockets
		spec.Endpoints = append(spec.Endpoints, ep)
	}
	spec.SimWorkers = simWorkers
	return spec
}

func runSpecWorkload(t *testing.T, spec topo.Spec, cfg workload.Config, pairs int) (*topo.Fabric, *workload.MultiResult) {
	t.Helper()
	fab, err := topo.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.RunWorkload(fab, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return fab, res
}

// TestPropertyParallelFabricInvariance randomizes the topology (socket
// count, endpoint count, seeds, queue counts) and checks that every
// worker count reproduces the serial result exactly.
func TestPropertyParallelFabricInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		sockets := 2 + rng.Intn(7)         // 2..8
		endpoints := sockets + rng.Intn(5) // >= sockets, so every island is populated
		seed := int64(1 + rng.Intn(1000))
		cfg := workload.Config{
			Seed:        int64(1 + rng.Intn(1000)),
			Queues:      1 + rng.Intn(2),
			BufferBytes: 1 << 20,
		}
		pairs := 100 + rng.Intn(150)

		_, ref := runSpecWorkload(t, manyIslandSpec(t, sockets, endpoints, seed, 1), cfg, pairs)
		for _, w := range []int{2, 4, 7} {
			fab, res := runSpecWorkload(t, manyIslandSpec(t, sockets, endpoints, seed, w), cfg, pairs)
			if len(fab.Islands) != sockets {
				t.Fatalf("trial %d: %d islands from %d sockets", trial, len(fab.Islands), sockets)
			}
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("trial %d (sockets=%d endpoints=%d workers=%d): parallel run diverged", trial, sockets, endpoints, w)
			}
		}
	}
}

// TestParallelFabric64Endpoints scales the identity check to the
// largest supported shape: 64 endpoints over 8 sockets (8 islands of
// 8), serial vs 4 workers.
func TestParallelFabric64Endpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("64-endpoint fabric is slow; skipped with -short")
	}
	cfg := workload.Config{Seed: 3, BufferBytes: 1 << 20}
	_, ref := runSpecWorkload(t, manyIslandSpec(t, 8, 64, 5, 1), cfg, 60)
	fab, res := runSpecWorkload(t, manyIslandSpec(t, 8, 64, 5, 4), cfg, 60)
	if len(fab.Islands) != 8 || len(fab.Islands[0]) != 8 {
		t.Fatalf("expected 8 islands of 8, got %v", fab.Islands)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatal("64-endpoint parallel run diverged from serial")
	}
}

// TestParallelFabricRejectsCrossDomainTraffic pins the guard rails:
// peer-to-peer benchmarks refuse partitioned fabrics, and a raw DMA
// into another island's (mirrored) BAR window is rejected at the
// routing boundary rather than misrouted to host memory.
func TestParallelFabricRejectsCrossDomainTraffic(t *testing.T) {
	fab := splitFabric(t, 4, 4)
	if _, err := topo.RunP2P(fab, topo.P2PDirect, 256, 50); err == nil || !strings.Contains(err.Error(), "simworkers=1") {
		t.Fatalf("p2p on a partitioned fabric: err %v, want a serial-rebuild hint", err)
	}
	// Endpoints 0 and 1 sit on different islands; endpoint 1's BAR is
	// mirrored into island 0's router.
	addr, err := fab.BARAddr(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ep0 := fab.Endpoints[0]
	if _, err := ep0.Port.DMAWrite(fab.EndpointKernel(0).Now(), addr, 64); err == nil || !strings.Contains(err.Error(), "crosses simulation domains") {
		t.Fatalf("cross-domain peer write: err %v, want a domain-crossing rejection", err)
	}
	if _, err := ep0.Port.DMARead(fab.EndpointKernel(0).Now(), addr, 64); err == nil || !strings.Contains(err.Error(), "crosses simulation domains") {
		t.Fatalf("cross-domain peer read: err %v, want a domain-crossing rejection", err)
	}
	// Same-island peer traffic (0 -> 2) still works.
	addr02, err := fab.BARAddr(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep0.Port.DMAWrite(fab.EndpointKernel(0).Now(), addr02, 64); err != nil {
		t.Fatalf("same-island peer write failed: %v", err)
	}
}

// TestParallelFallbacks pins the partitioning policy edges: a shape
// that forms a single island — one endpoint, or endpoints coupled by a
// global-scope IOMMU, a shared buffer node or a shared switch — builds
// serially on one kernel, while jitter and per-socket IOMMU units do
// not stop a split shape from partitioning (jitter draws a per-island
// stream; per-socket units ride their socket's island).
func TestParallelFallbacks(t *testing.T) {
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	build := func(opt sysconf.Options, shape topo.Shape) *topo.Fabric {
		t.Helper()
		fab, err := sys.Fabric(shape, opt)
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}
	shape := topo.Shape{Endpoints: 4, Placement: "split", LocalBuffers: true}
	// A global-scope IOMMU sits on every DMA path: everyone couples into
	// one island on one kernel.
	requireIslands(t, build(sysconf.Options{SimWorkers: 4, NoJitter: true, IOMMU: true, BufferSize: 1 << 20}, shape), oneIsland(4))
	// Per-socket units add no coupling of their own: the split shape
	// partitions along sockets exactly as it does without an IOMMU.
	perSock := sysconf.Options{SimWorkers: 4, NoJitter: true, IOMMU: true,
		IOMMUScope: topo.IOMMUScopePerSocket, BufferSize: 1 << 20}
	fab := build(perSock, shape)
	requireIslands(t, fab, splitIslands(4))
	if got := len(fab.IOMMUUnits()); got != 2 {
		t.Errorf("per-socket IOMMU fabric has %d units, want one per socket (2)", got)
	}
	requireIslands(t, build(sysconf.Options{SimWorkers: 4, BufferSize: 1 << 20}, shape), splitIslands(4))
	requireIslands(t, build(sysconf.Options{SimWorkers: 4, NoJitter: true}, topo.Shape{}), oneIsland(1))
	// Shared buffer node couples everything into one island.
	noLocal := topo.Shape{Endpoints: 4, Placement: "split"}
	requireIslands(t, build(sysconf.Options{SimWorkers: 4, NoJitter: true, BufferSize: 1 << 20}, noLocal), oneIsland(4))
	// A switch funnels everyone through one uplink: one island.
	swShape := topo.Shape{Endpoints: 4, Switch: shapeLink(), LocalBuffers: true}
	requireIslands(t, build(sysconf.Options{SimWorkers: 4, NoJitter: true, BufferSize: 1 << 20}, swShape), oneIsland(4))
}
