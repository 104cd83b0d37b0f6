package workload_test

import (
	"testing"

	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

// multiFabric builds an n-endpoint fabric behind one default switch.
func multiFabric(t *testing.T, n int) *topo.Fabric {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-HSW")
	if err != nil {
		t.Fatal(err)
	}
	link := topo.Shape{Endpoints: n}
	sw, err := topo.ParseSwitch("gen3x8")
	if err != nil {
		t.Fatal(err)
	}
	link.Switch = sw
	fab, err := sys.Fabric(link, sysconf.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// TestRunMultiAggregates checks the multi-endpoint bookkeeping: every
// endpoint completes its pairs, the aggregate counts add up, and the
// per-endpoint breakdown carries populated latency summaries.
func TestRunMultiAggregates(t *testing.T) {
	const endpoints, pairs = 3, 300
	fab := multiFabric(t, endpoints)
	cfg := workload.Config{Seed: 7, BufferBytes: fab.Endpoints[0].Buffer.Size}
	paths := make([]workload.Path, endpoints)
	bases := make([]uint64, endpoints)
	for i, ep := range fab.Endpoints {
		ep.Buffer.WarmHost(0, cfg.Footprint())
		paths[i] = ep.Port
		bases[i] = ep.Buffer.DMAAddr(0)
	}
	res, err := workload.RunMulti(fab.Kernel, paths, bases, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != endpoints*pairs {
		t.Errorf("aggregate pairs = %d, want %d", res.Pairs, endpoints*pairs)
	}
	if len(res.Endpoints) != endpoints {
		t.Fatalf("endpoint results = %d, want %d", len(res.Endpoints), endpoints)
	}
	var sumPPS float64
	for i, ep := range res.Endpoints {
		if ep.Endpoint != i {
			t.Errorf("endpoint %d carries index %d", i, ep.Endpoint)
		}
		if ep.Pairs != pairs {
			t.Errorf("endpoint %d completed %d pairs, want %d", i, ep.Pairs, pairs)
		}
		if ep.Latency.N == 0 || ep.Latency.P99 <= 0 {
			t.Errorf("endpoint %d has an empty latency summary", i)
		}
		sumPPS += ep.PPS
	}
	// Per-endpoint rates use each endpoint's own horizon, the
	// aggregate uses the last one's — so the sum can only exceed it.
	if res.PPS > sumPPS {
		t.Errorf("aggregate PPS %.0f above the endpoint sum %.0f", res.PPS, sumPPS)
	}
	if res.Latency.N != endpoints*pairs {
		t.Errorf("aggregate latency over %d samples, want %d", res.Latency.N, endpoints*pairs)
	}
}

// TestRunMultiDeterministic: byte-identical results on a rebuilt
// fabric, and decorrelated per-endpoint randomness (endpoints do not
// march in lockstep).
func TestRunMultiDeterministic(t *testing.T) {
	run := func() *workload.MultiResult {
		fab := multiFabric(t, 2)
		cfg := workload.Config{Seed: 7, Sizes: mustDist(t, "imix"), BufferBytes: fab.Endpoints[0].Buffer.Size}
		paths := []workload.Path{fab.Endpoints[0].Port, fab.Endpoints[1].Port}
		bases := []uint64{fab.Endpoints[0].Buffer.DMAAddr(0), fab.Endpoints[1].Buffer.DMAAddr(0)}
		for _, ep := range fab.Endpoints {
			ep.Buffer.WarmHost(0, cfg.Footprint())
		}
		res, err := workload.RunMulti(fab.Kernel, paths, bases, cfg, 200)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.PPS != b.PPS || a.Latency != b.Latency {
		t.Errorf("multi-endpoint run not deterministic: %+v vs %+v", a, b)
	}
	if a.Endpoints[0].Elapsed == a.Endpoints[1].Elapsed && a.Endpoints[0].Latency == a.Endpoints[1].Latency {
		t.Error("endpoints look seed-correlated: identical elapsed and latency summaries")
	}
}

// TestRunMultiValidation covers the argument errors.
func TestRunMultiValidation(t *testing.T) {
	fab := multiFabric(t, 2)
	paths := []workload.Path{fab.Endpoints[0].Port}
	k := fab.Kernel
	if _, err := workload.RunMulti(k, nil, nil, workload.Config{}, 10); err == nil {
		t.Error("no paths accepted")
	}
	if _, err := workload.RunMulti(k, paths, nil, workload.Config{}, 10); err == nil {
		t.Error("mismatched bases accepted")
	}
	if _, err := workload.RunMulti(k, paths, []uint64{0}, workload.Config{}, 0); err == nil {
		t.Error("zero pairs accepted")
	}
}

func mustDist(t *testing.T, s string) workload.SizeDist {
	t.Helper()
	d, err := workload.ParseSizeDist(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
