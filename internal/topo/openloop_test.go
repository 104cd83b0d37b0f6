package topo_test

import (
	"testing"

	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// requireOpenLoopIdentity runs cfg on the four-endpoint NFP6000-BDW
// fabric, with and without root-complex jitter, alone and as workers
// concurrent copies, and fails on any divergence from the lone run.
func requireOpenLoopIdentity(t *testing.T, cfg workload.Config, workers int) {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	for _, jitter := range []bool{false, true} {
		build := func() *topo.Fabric {
			fab, err := sys.Fabric(topo.Shape{Endpoints: 4}, sysconf.Options{
				Seed: 7, BufferSize: 1 << 20, NoJitter: !jitter,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fab
		}
		requireConcurrentIdentity(t, build, cfg, 120, workers)
	}
}

// TestOpenLoopCoupledArrivalIdentity: coupled fabrics driven by the
// open-loop arrival forms ("poisson:", "rate:"), with and without
// root-complex jitter, stay byte-identical to a lone run when run
// concurrently with copies of themselves.
func TestOpenLoopCoupledArrivalIdentity(t *testing.T) {
	for _, spec := range []string{"poisson:2M:burst=4", "rate:2M:burst=4"} {
		arr, err := workload.ParseArrival(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.Config{Seed: 11, BufferBytes: 1 << 20, Arrival: arr, Queues: 2}
		requireOpenLoopIdentity(t, cfg, 3)
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
	requireOpenLoopIdentity(t, cfg, 2)
}
