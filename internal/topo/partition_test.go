package topo_test

import (
	"reflect"
	"testing"

	"pciebench/internal/rc"
	"pciebench/internal/sim"
	"pciebench/internal/sysconf"
	"pciebench/internal/topo"
)

// bdwSpec expands a shape against the NFP6000-BDW calibration.
func bdwSpec(t *testing.T, shape topo.Shape, opt sysconf.Options) topo.Spec {
	t.Helper()
	sys, err := sysconf.ByName("NFP6000-BDW")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sys.TopoSpec(shape, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestIslandsOf pins the coupling policy behind the jitter-stream
// assignment: a shape whose endpoints share a global-scope IOMMU, a
// buffer node or a switch forms one island, while per-socket IOMMU
// units and jitter leave a split shape split along its sockets.
func TestIslandsOf(t *testing.T) {
	split := [][]int{{0, 2}, {1, 3}}
	one := [][]int{{0, 1, 2, 3}}
	shape := topo.Shape{Endpoints: 4, Placement: "split", LocalBuffers: true}
	cases := []struct {
		name  string
		shape topo.Shape
		opt   sysconf.Options
		want  [][]int
	}{
		{"split", shape, sysconf.Options{NoJitter: true}, split},
		{"split-jitter", shape, sysconf.Options{}, split},
		{"global-iommu", shape, sysconf.Options{NoJitter: true, IOMMU: true}, one},
		{"per-socket-iommu", shape, sysconf.Options{NoJitter: true, IOMMU: true, IOMMUScope: topo.IOMMUScopePerSocket}, split},
		{"one-endpoint", topo.Shape{}, sysconf.Options{NoJitter: true}, [][]int{{0}}},
		{"shared-node", topo.Shape{Endpoints: 4, Placement: "split"}, sysconf.Options{NoJitter: true}, one},
		{"switch", topo.Shape{Endpoints: 4, Switch: shapeLink(), LocalBuffers: true}, sysconf.Options{NoJitter: true}, one},
	}
	for _, tc := range cases {
		tc.opt.BufferSize = 1 << 20
		if got := topo.IslandsOf(bdwSpec(t, tc.shape, tc.opt)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: islands %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSocketRNGs pins the stream each socket draws jitter from: island
// 0's sockets and sockets no endpoint ingresses at use the kernel
// stream (nil), and every further island owns one derived stream. A
// non-shared interconnect model couples nothing.
func TestSocketRNGs(t *testing.T) {
	sp := bdwSpec(t, topo.Shape{Endpoints: 2, Placement: "split", LocalBuffers: true},
		sysconf.Options{Seed: 7, BufferSize: 1 << 20, NoJitter: true})
	// A third socket with jitter that no endpoint ingresses at.
	sp.Mem.Nodes = 3
	unused := sp.Sockets[0]
	unused.Node = 2
	sp.Sockets = append(sp.Sockets, unused)
	for i := range sp.Sockets {
		sp.Sockets[i].Jitter = rc.ConstantJitter(500 * sim.Nanosecond)
	}
	sp.Interconnect = &rc.InterconnectConfig{Shared: false}
	if got := topo.IslandsOf(sp); !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("islands %v, want [[0] [1]]", got)
	}
	rngs := topo.SocketRNGs(sp, 7)
	if rngs[0] != nil || rngs[2] != nil {
		t.Errorf("island 0's socket and the unused socket must use the kernel stream")
	}
	if rngs[1] == nil {
		t.Fatal("island 1's socket has no stream of its own")
	}
	// The derived stream is a pure function of (seed, island).
	if a, b := rngs[1].Int63(), topo.SocketRNGs(sp, 7)[1].Int63(); a != b {
		t.Errorf("island 1's stream is not reproducible: %d vs %d", a, b)
	}
	if a, b := topo.SocketRNGs(sp, 7)[1].Int63(), topo.SocketRNGs(sp, 8)[1].Int63(); a == b {
		t.Error("island 1's stream ignores the seed")
	}
	// Without jitter no socket needs a stream.
	for i := range sp.Sockets {
		sp.Sockets[i].Jitter = nil
	}
	for i, r := range topo.SocketRNGs(sp, 7) {
		if r != nil {
			t.Errorf("socket %d got a stream without jitter", i)
		}
	}
}
