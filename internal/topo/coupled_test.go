package topo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// coupledFabric builds a fabric whose endpoints all couple into one
// island — through a shared switch when sw is true, through the shared
// socket-0 root complex otherwise.
func coupledFabric(t *testing.T, endpoints int, sw bool, jitter bool) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	shape := topo.Shape{Endpoints: endpoints}
	if sw {
		shape.Switch = shapeLink()
	}
	fab, err := sys.Fabric(shape, sysconf.Options{
		Seed: 7, BufferSize: 1 << 20, NoJitter: !jitter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// TestCoupledFabricByteIdentical pins coupled topologies — an
// 8-endpoint fabric sharing a switch, and one sharing a socket — to
// committed goldens.
// Regenerate with `go test ./internal/topo -run CoupledFabricByteIdentical -update`.
func TestCoupledFabricByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		sw     bool
		golden string
	}{
		{"shared-switch", true, "coupled_switch.golden.json"},
		{"shared-socket", false, "coupled_socket.golden.json"},
	}
	cfg := workload.Config{Seed: 11, BufferBytes: 1 << 20}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := topo.RunWorkload(coupledFabric(t, 8, tc.sw, false), cfg, 200)
			if err != nil {
				t.Fatal(err)
			}
			requireGolden(t, res, tc.golden)
		})
	}
}

// TestJitteryFabricByteIdentical pins the root-complex jitter streams
// to committed goldens: a coupled switched fabric (one island, every
// socket on the kernel stream) and a split-socket fabric (the second
// island's socket on its own derived stream, see socketRNGs).
// Regenerate with `go test ./internal/topo -run JitteryFabricByteIdentical -update`.
func TestJitteryFabricByteIdentical(t *testing.T) {
	cfg := workload.Config{Seed: 5, BufferBytes: 1 << 20}

	t.Run("coupled-switch", func(t *testing.T) {
		res, err := topo.RunWorkload(coupledFabric(t, 4, true, true), cfg, 150)
		if err != nil {
			t.Fatal(err)
		}
		requireGolden(t, res, "jitter_switch.golden.json")
	})

	t.Run("split-sockets", func(t *testing.T) {
		sys, err := sysconf.ByName("NFP6000-BDW")
		if err != nil {
			t.Fatal(err)
		}
		fab, err := sys.Fabric(
			topo.Shape{Endpoints: 4, Placement: "split", LocalBuffers: true},
			sysconf.Options{Seed: 7, BufferSize: 1 << 20},
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := topo.RunWorkload(fab, cfg, 150)
		if err != nil {
			t.Fatal(err)
		}
		requireGolden(t, res, "jitter_split.golden.json")
	})
}

// TestPropertyCoupledInvariance randomizes coupled topologies (endpoint
// count, switched or socket-shared, jitter, queue count, seeds) and
// checks that fabrics run concurrently reproduce a lone run exactly.
func TestPropertyCoupledInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		endpoints := 2 + rng.Intn(5) // 2..6
		sw := rng.Intn(2) == 0
		jitter := rng.Intn(2) == 0
		cfg := workload.Config{
			Seed:        int64(1 + rng.Intn(1000)),
			Queues:      1 + rng.Intn(2),
			BufferBytes: 1 << 20,
		}
		pairs := 80 + rng.Intn(80)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			build := func() *topo.Fabric { return coupledFabric(t, endpoints, sw, jitter) }
			requireConcurrentIdentity(t, build, cfg, pairs, 3)
		})
	}
}
