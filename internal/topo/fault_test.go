package topo_test

import (
	"fmt"
	"testing"

	"pciebench/internal/fault"
	"pciebench/internal/sim"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// buildFaulty builds an n-endpoint NFP6000-BDW fabric with the given
// fault config.
func buildFaulty(t *testing.T, n int, seed int64, fc *fault.Config) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sys.Fabric(topo.Shape{Endpoints: n}, sysconf.Options{
		Seed: seed, BufferSize: 1 << 20, Faults: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// The determinism property under cell-level parallelism: fault-injected
// workload runs — BER replays, retrain events, mixed shapes and seeds,
// open and closed loop — run concurrently with copies of themselves are
// byte-identical (counters included) to a lone run, because every
// fault stream belongs to its fabric, keyed by (seed, endpoint, class).
func TestFaultWorkerIdentity(t *testing.T) {
	cases := []struct {
		endpoints int
		seed      int64
		fc        fault.Config
		arrival   string
	}{
		{2, 3, fault.Config{BER: 1e-5}, ""},
		{4, 17, fault.Config{BER: 1e-6}, ""},
		{4, 99, fault.Config{BER: 1e-5, RetrainMTBF: 50 * sim.Microsecond}, ""},
		{5, 7, fault.Config{BER: 1e-5}, "poisson:2M:burst=4"},
		{3, 23, fault.Config{RetrainMTBF: 20 * sim.Microsecond}, "rate:2M"},
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			cfg := workload.Config{Seed: tc.seed + 1, BufferBytes: 1 << 20, Queues: 2}
			if tc.arrival != "" {
				arr, err := workload.ParseArrival(tc.arrival)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Arrival = arr
			}
			build := func() *topo.Fabric { return buildFaulty(t, tc.endpoints, tc.seed, &tc.fc) }
			_, ref := requireConcurrentIdentity(t, build, cfg, 150, 3)
			if ref.Faults == nil {
				t.Fatal("fault counters missing from result")
			}
			if tc.fc.BER > 0 && ref.Faults.Replays == 0 && ref.Faults.Retrains == 0 {
				t.Logf("warning: no fault events fired (weak case)")
			}
		})
	}
}

// Per-endpoint fault counters must sum to the aggregate, field by
// field — the accounting invariant behind the sweep metrics.
func TestFaultCountersSumConsistent(t *testing.T) {
	fc := &fault.Config{BER: 1e-5, RetrainMTBF: 80 * sim.Microsecond}
	res, err := topo.RunWorkload(buildFaulty(t, 4, 17, fc),
		workload.Config{Seed: 5, BufferBytes: 1 << 20, Queues: 1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("aggregate counters missing")
	}
	var sum fault.Counters
	events := false
	for i, ep := range res.Endpoints {
		if ep.Faults == nil {
			t.Fatalf("endpoint %d counters missing", i)
		}
		sum.Add(*ep.Faults)
		events = events || !ep.Faults.Zero()
	}
	if !events {
		t.Error("no endpoint recorded any fault event at BER 1e-5")
	}
	if sum != *res.Faults {
		t.Errorf("per-endpoint sum %+v != aggregate %+v", sum, *res.Faults)
	}
}

// Zero-fault configs must not allocate fault state at all: the
// omitempty JSON contract and cache-key stability both depend on it.
func TestNoFaultsNoCounters(t *testing.T) {
	res, err := topo.RunWorkload(buildFaulty(t, 2, 3, nil),
		workload.Config{Seed: 5, BufferBytes: 1 << 20, Queues: 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Errorf("fault-free run attached aggregate counters: %+v", *res.Faults)
	}
	for i, ep := range res.Endpoints {
		if ep.Faults != nil {
			t.Errorf("fault-free run attached counters to endpoint %d", i)
		}
	}
}
