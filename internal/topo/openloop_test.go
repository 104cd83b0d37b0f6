package topo_test

import (
	"reflect"
	"testing"

	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// openLoopFabric builds the four-endpoint NFP6000-BDW fabric the
// open-loop identity tests drive, at w simulation workers.
func openLoopFabric(t *testing.T, w int, jitter bool) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sys.Fabric(topo.Shape{Endpoints: 4}, sysconf.Options{
		Seed: 7, BufferSize: 1 << 20, NoJitter: !jitter, SimWorkers: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// requireOpenLoopIdentity runs cfg on the serial build and at each of
// workers, with and without root-complex jitter, and fails on any
// divergence from the serial result.
func requireOpenLoopIdentity(t *testing.T, name string, cfg workload.Config, workers []int) {
	t.Helper()
	for _, jitter := range []bool{false, true} {
		ref, err := topo.RunWorkload(openLoopFabric(t, 1, jitter), cfg, 120)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			fab := openLoopFabric(t, w, jitter)
			requireIslands(t, fab, oneIsland(4))
			res, err := topo.RunWorkload(fab, cfg, 120)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, res) {
				t.Errorf("%s jitter=%v simworkers=%d diverged from serial", name, jitter, w)
			}
		}
	}
}

// TestOpenLoopCoupledArrivalIdentity: coupled fabrics driven by the
// open-loop arrival forms ("poisson:", "rate:"), with and without
// root-complex jitter, stay byte-identical to the serial build at every
// simulation worker count, including counts (2, 7) that leave workers
// idle or do not divide the endpoint count.
func TestOpenLoopCoupledArrivalIdentity(t *testing.T) {
	for _, spec := range []string{"poisson:2M:burst=4", "rate:2M:burst=4"} {
		arr, err := workload.ParseArrival(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.Config{Seed: 11, BufferBytes: 1 << 20, Arrival: arr, Queues: 2}
		requireOpenLoopIdentity(t, "arrival "+spec, cfg, []int{2, 4, 7})
	}
}

// TestProbeOpenLoopCoupled: the same identity for a Poisson arrival
// built with workload.Poisson rather than parsed from its textual form.
func TestProbeOpenLoopCoupled(t *testing.T) {
	arr, err := workload.Poisson(2e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{Seed: 11, BufferBytes: 1 << 20, Arrival: arr, Queues: 2}
	requireOpenLoopIdentity(t, "workload.Poisson", cfg, []int{2, 4})
}
