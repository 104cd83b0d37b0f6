package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// Property: whatever order events are inserted in, execution visits
// them in nondecreasing time order, FIFO among equal timestamps, and
// the kernel clock never moves backwards.
func TestPropertyOrderingUnderRandomInsertion(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := New(1)

		type rec struct {
			at  Time
			seq int // insertion order
		}
		const n = 500
		var executed []rec
		for i := 0; i < n; i++ {
			// Coarse timestamps force plenty of ties.
			at := Time(rng.Intn(50)) * Nanosecond
			i := i
			k.At(at, func() {
				executed = append(executed, rec{at: k.Now(), seq: i})
			})
		}
		k.Run()

		if len(executed) != n {
			t.Fatalf("trial %d: executed %d/%d events", trial, len(executed), n)
		}
		var last rec
		for idx, r := range executed {
			if idx > 0 {
				if r.at < last.at {
					t.Fatalf("trial %d: time moved backwards: %v after %v", trial, r.at, last.at)
				}
				if r.at == last.at && r.seq < last.seq {
					t.Fatalf("trial %d: FIFO violated at %v: insertion %d ran after %d",
						trial, r.at, last.seq, r.seq)
				}
			}
			last = r
		}
		if k.Executed != n {
			t.Errorf("trial %d: Executed = %d, want %d", trial, k.Executed, n)
		}
	}
}

// Property: events that schedule further events at random future
// offsets keep time monotone and eventually drain the queue.
func TestPropertyMonotoneUnderRuntimeInsertion(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		k := New(1)
		var (
			prev     Time
			ran      int
			spawnBud = 2000
		)
		var spawn func()
		spawn = func() {
			now := k.Now()
			if now < prev {
				t.Fatalf("trial %d: clock went backwards: %v < %v", trial, now, prev)
			}
			prev = now
			ran++
			for c := rng.Intn(3); c > 0 && spawnBud > 0; c-- {
				spawnBud--
				k.After(Time(rng.Intn(1000)), spawn)
			}
		}
		for i := 0; i < 10; i++ {
			k.At(Time(rng.Intn(100)), spawn)
		}
		end := k.Run()
		if k.Pending() != 0 {
			t.Errorf("trial %d: %d events left after Run", trial, k.Pending())
		}
		if end != prev {
			t.Errorf("trial %d: Run returned %v, last event at %v", trial, end, prev)
		}
		if ran < 10 {
			t.Errorf("trial %d: only %d events ran", trial, ran)
		}
	}
}

// Property: two kernels fed the same randomized schedule execute
// identical event sequences — the determinism the byte-identical
// sweep outputs rest on.
func TestPropertyReplayIdentical(t *testing.T) {
	replay := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		var log []Time
		var spawn func()
		budget := 500
		spawn = func() {
			log = append(log, k.Now())
			if budget > 0 {
				budget--
				k.After(Time(rng.Intn(100))*Nanosecond, spawn)
			}
		}
		for i := 0; i < 5; i++ {
			k.At(Time(rng.Intn(20))*Nanosecond, spawn)
		}
		k.Run()
		return log
	}
	a, b := replay(7), replay(7)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// randNet is a randomized multi-domain model for the parallel kernel:
// random domain sizes, random initial event bursts at colliding times,
// and handlers that mix state and schedule a follow-up on a random node
// of their own domain after a random delay. Every observable (per-node
// event trace, state sums, final clocks) is returned for comparison.
type randNode struct {
	peers []*randNode // the nodes of this node's domain, itself included
	rng   *rand.Rand
	hops  int
	trace []Time
	sum   int64
}

func (n *randNode) Handle(k *Kernel, a, b int64) {
	n.trace = append(n.trace, k.Now())
	n.sum = n.sum*131 + a*7 + b
	if n.hops <= 0 {
		return
	}
	n.hops--
	// The follow-up draws from the node's own rng in event-execution
	// order — identical across schedules if and only if each domain's
	// event order is.
	dst := n.peers[n.rng.Intn(len(n.peers))]
	k.AfterEvent(Time(n.rng.Intn(30))*Nanosecond, dst, n.sum, int64(len(n.trace)))
}

// runRandNet builds and runs one randomized model; the construction is
// a pure function of (domains, seed). With shared set, every domain's
// events go onto one kernel — the serial build — instead of a kernel
// per domain run on workers goroutines.
func runRandNet(domains, workers int, seed int64, shared bool) ([][]Time, []int64, []Time) {
	rng := rand.New(rand.NewSource(seed))
	kernels := make([]*Kernel, domains)
	for i := range kernels {
		if shared && i > 0 {
			kernels[i] = kernels[0]
		} else {
			kernels[i] = New(seed*100 + int64(i))
		}
	}
	var nodes []*randNode
	for d := 0; d < domains; d++ {
		var peers []*randNode
		for j := 0; j < 1+rng.Intn(3); j++ {
			n := &randNode{
				rng:  rand.New(rand.NewSource(seed*1000 + int64(len(nodes)))),
				hops: 20 + rng.Intn(40),
			}
			peers = append(peers, n)
			nodes = append(nodes, n)
		}
		for _, n := range peers {
			n.peers = peers
			for e := 0; e < 1+rng.Intn(4); e++ {
				kernels[d].AtEvent(Time(rng.Intn(40))*Nanosecond, n, int64(e), int64(d))
			}
		}
	}
	if shared {
		kernels[0].Run()
	} else {
		NewParallel(kernels).Run(workers)
	}
	var traces [][]Time
	var sums []int64
	var clocks []Time
	for _, n := range nodes {
		traces = append(traces, n.trace)
		sums = append(sums, n.sum)
	}
	for _, k := range kernels {
		clocks = append(clocks, k.Now())
	}
	return traces, sums, clocks
}

// Property: randomized multi-domain models produce byte-identical
// traces under the parallel kernel at P = 1, 2, 4 and 7 workers, and
// the same per-node traces as one shared kernel running every domain.
func TestPropertyParallelWorkerCountInvariance(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := int64(4000 + trial)
		domains := 2 + trial%6
		refTraces, refSums, refClocks := runRandNet(domains, 1, seed, false)
		total := 0
		for _, tr := range refTraces {
			total += len(tr)
		}
		if total == 0 {
			t.Fatalf("trial %d: model executed nothing", trial)
		}
		for _, workers := range []int{2, 4, 7} {
			traces, sums, clocks := runRandNet(domains, workers, seed, false)
			if !reflect.DeepEqual(refTraces, traces) ||
				!reflect.DeepEqual(refSums, sums) ||
				!reflect.DeepEqual(refClocks, clocks) {
				t.Fatalf("trial %d: workers=%d diverged from the single-worker run", trial, workers)
			}
		}
		traces, sums, _ := runRandNet(domains, 1, seed, true)
		if !reflect.DeepEqual(refTraces, traces) || !reflect.DeepEqual(refSums, sums) {
			t.Fatalf("trial %d: per-domain kernels diverged from one shared kernel", trial)
		}
	}
}
