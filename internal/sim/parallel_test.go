package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// station is a test model: a node that, on each event, records its
// trace, mutates local state, and schedules its next visit on its own
// domain after a delay drawn from its own random source. Coarse delays
// make same-time events common, so FIFO tie-breaks matter.
type station struct {
	rng   *rand.Rand
	hops  int // remaining follow-ups
	trace []Time
	sum   int64
}

func (s *station) Handle(k *Kernel, a, b int64) {
	s.trace = append(s.trace, k.Now())
	s.sum = s.sum*31 + a + b
	if s.hops <= 0 {
		return
	}
	s.hops--
	// The payload mixes local state so any ordering difference cascades
	// into every later sum.
	k.AfterEvent(Time(s.rng.Intn(4))*Nanosecond, s, s.sum, a+1)
}

// stationResult captures everything observable about a station run.
type stationResult struct {
	End    Time
	Traces [][]Time
	Sums   []int64
	Exec   []uint64
}

// runStations builds n independent domains, two stations each, with a
// burst of initial events at colliding times, and runs them on the
// given worker count.
func runStations(n, hops, workers int, seed int64) stationResult {
	rng := rand.New(rand.NewSource(seed))
	kernels := make([]*Kernel, n)
	var sts []*station
	for i := range kernels {
		kernels[i] = New(seed + int64(i))
		for j := 0; j < 2; j++ {
			st := &station{rng: rand.New(rand.NewSource(seed*10 + int64(2*i+j))), hops: hops}
			sts = append(sts, st)
			for e := 0; e < 3; e++ {
				kernels[i].AtEvent(Time(rng.Intn(5))*Nanosecond, st, int64(e), int64(i))
			}
		}
	}
	pk := NewParallel(kernels)
	res := stationResult{End: pk.Run(workers)}
	for _, st := range sts {
		res.Traces = append(res.Traces, st.trace)
		res.Sums = append(res.Sums, st.sum)
	}
	for _, k := range kernels {
		res.Exec = append(res.Exec, k.Executed)
	}
	return res
}

// TestParallelNoLinksFreeRuns checks the island path: every domain
// runs to completion, at any worker count (including more workers than
// domains), and an empty domain list is refused.
func TestParallelNoLinksFreeRuns(t *testing.T) {
	build := func() (*ParallelKernel, []*int) {
		kernels := []*Kernel{New(1), New(2), New(3)}
		counts := []*int{new(int), new(int), new(int)}
		for i, k := range kernels {
			c := counts[i]
			for e := 0; e < 10; e++ {
				k.At(Time(e)*Microsecond, func() { *c++ })
			}
		}
		return NewParallel(kernels), counts
	}
	for _, workers := range []int{1, 2, 7} {
		pk, counts := build()
		end := pk.Run(workers)
		if end != 9*Microsecond {
			t.Fatalf("workers=%d: end %v, want 9us", workers, end)
		}
		for i, c := range counts {
			if *c != 10 {
				t.Fatalf("workers=%d: domain %d ran %d/10 events", workers, i, *c)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewParallel(nil) did not panic")
		}
	}()
	NewParallel(nil)
}

// TestParallelRaceStress drives many domains with dense event churn at
// high worker counts; under -race it checks that domains touch no
// shared state. Results must match the single-worker run.
func TestParallelRaceStress(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		seed := int64(9000 + trial)
		ref := runStations(11, 200, 1, seed)
		if len(ref.Traces[0]) == 0 {
			t.Fatal("reference run executed nothing")
		}
		got := runStations(11, 200, 8, seed)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("trial %d: 8-worker run diverged from serial", trial)
		}
	}
}

// TestParallelManyIslandsRace free-runs many unlinked domains, each
// with its own servers and heap churn, on many workers — the island
// fast path the fabric partitioner uses.
func TestParallelManyIslandsRace(t *testing.T) {
	const domains = 16
	kernels := make([]*Kernel, domains)
	finals := make([]Time, domains)
	for i := range kernels {
		k := New(int64(i + 1))
		kernels[i] = k
		srv := NewServer(k)
		var step func()
		n := 0
		step = func() {
			n++
			done := srv.Schedule(Time(50+n%7) * Nanosecond)
			if n < 500 {
				k.At(done, step)
			}
		}
		k.At(0, step)
	}
	pk := NewParallel(kernels)
	pk.Run(8)
	for i, k := range kernels {
		finals[i] = k.Now()
		if k.Pending() != 0 || k.Executed != 500 {
			t.Fatalf("domain %d: pending %d executed %d", i, k.Pending(), k.Executed)
		}
	}
	// Same model on one worker must land on the same clocks.
	kernels2 := make([]*Kernel, domains)
	for i := range kernels2 {
		k := New(int64(i + 1))
		kernels2[i] = k
		srv := NewServer(k)
		var step func()
		n := 0
		step = func() {
			n++
			done := srv.Schedule(Time(50+n%7) * Nanosecond)
			if n < 500 {
				k.At(done, step)
			}
		}
		k.At(0, step)
	}
	NewParallel(kernels2).Run(1)
	for i := range kernels2 {
		if kernels2[i].Now() != finals[i] {
			t.Fatalf("domain %d: parallel %v vs serial %v", i, finals[i], kernels2[i].Now())
		}
	}
}
