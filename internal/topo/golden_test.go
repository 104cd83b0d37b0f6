package topo_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
	"pciebench/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// requireGolden compares a workload result, indented JSON, with the
// committed golden testdata/file (rewritten first under -update).
func requireGolden(t *testing.T, res *workload.MultiResult, file string) {
	t.Helper()
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
		t.Fatalf("workload drifted from %s (rerun with -update if intended)\ngot:\n%s", path, got)
	}
}

// requireConcurrentIdentity runs cfg on a fabric from build alone, then
// on workers fresh fabrics at once, one goroutine each — the way the
// sweep engine's runner workers execute independent cells — and fails
// unless every concurrent run reproduces the lone run exactly. It
// returns the fabrics (the lone one first) and the lone run's result.
func requireConcurrentIdentity(t *testing.T, build func() *topo.Fabric, cfg workload.Config, pairs, workers int) ([]*topo.Fabric, *workload.MultiResult) {
	t.Helper()
	fabs := make([]*topo.Fabric, 1+workers)
	for i := range fabs {
		fabs[i] = build()
	}
	ref, err := topo.RunWorkload(fabs[0], cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*workload.MultiResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = topo.RunWorkload(fabs[1+w], cfg, pairs)
		}()
	}
	wg.Wait()
	for w, res := range results {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("concurrent run %d of %d diverged from the lone run", w+1, workers)
		}
	}
	return fabs, ref
}

// TestParallelFabricGolden pins a split-socket fabric's workload run —
// four endpoints round-robined across both sockets of a two-node
// system, each with a socket-local buffer, no jitter — to a committed
// golden. Regenerate with
// `go test ./internal/topo -run ParallelFabricGolden -update`.
func TestParallelFabricGolden(t *testing.T) {
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sys.Fabric(
		topo.Shape{Endpoints: 4, Placement: "split", LocalBuffers: true},
		sysconf.Options{Seed: 7, BufferSize: 1 << 20, NoJitter: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.RunWorkload(fab, workload.Config{Seed: 11, BufferBytes: 1 << 20}, 400)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, res, "parallel.golden.json")
}
