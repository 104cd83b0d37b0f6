package sim

import (
	"math/rand"
	"testing"
)

// selfScheduler reschedules itself n times through the typed-event API.
type selfScheduler struct{ n int }

func (s *selfScheduler) Handle(k *Kernel, a, b int64) {
	if s.n > 0 {
		s.n--
		k.AfterEvent(Nanosecond, s, a, b)
	}
}

// TestTypedEventLoopZeroAlloc asserts the kernel's steady-state event
// loop — schedule, heap sift, dispatch — performs zero heap
// allocations once the queue storage has grown.
func TestTypedEventLoopZeroAlloc(t *testing.T) {
	k := New(1)
	// Pre-grow the heap storage beyond anything the loop will hold.
	h := &selfScheduler{}
	for i := 0; i < 64; i++ {
		k.AtEvent(Time(i), h, 0, 0)
	}
	k.Run()

	const events = 1000
	allocs := testing.AllocsPerRun(10, func() {
		s := &selfScheduler{n: events}
		k.AfterEvent(0, s, 0, 0)
		k.Run()
	})
	// One allocation per run for the selfScheduler itself; the events
	// must contribute nothing.
	if allocs > 1 {
		t.Fatalf("event loop allocated %.1f times per %d events, want <= 1 (the handler)", allocs, events)
	}
}

// TestMultiServerEarliestSlot is the regression test for the
// ScheduleAt min-scan: with staggered busy slots, work must land on the
// earliest-free slot, including slots later in the array than slot 0.
func TestMultiServerEarliestSlot(t *testing.T) {
	k := New(1)
	s := NewMultiServer(k, 3)

	// Occupy the slots with decreasing horizons: slot 0 busiest, slot 2
	// freest. (Schedule fills the current earliest slot each call.)
	if got := s.ScheduleAt(0, 300); got != 300 {
		t.Fatalf("first reservation done at %v, want 300", got)
	}
	if got := s.ScheduleAt(0, 200); got != 200 {
		t.Fatalf("second reservation done at %v, want 200", got)
	}
	if got := s.ScheduleAt(0, 100); got != 100 {
		t.Fatalf("third reservation done at %v, want 100", got)
	}

	// All slots busy; the earliest-free is the one that frees at 100 —
	// a non-zero slot index. A scan that sticks to slot 0 would return
	// 300+50.
	if got := s.ScheduleAt(0, 50); got != 150 {
		t.Fatalf("fourth reservation done at %v, want 150 (queued behind the earliest-free slot)", got)
	}
	// And again: now the horizons are {300, 200, 150}; next lands at 150.
	if got := s.ScheduleAt(0, 25); got != 175 {
		t.Fatalf("fifth reservation done at %v, want 175", got)
	}

	// A request that starts later than every slot's horizon begins at
	// its own start time.
	if got := s.ScheduleAt(1000, 10); got != 1010 {
		t.Fatalf("late reservation done at %v, want 1010", got)
	}
}

// scanMultiServer is the reference MultiServer: an unordered slot
// array searched linearly for the first earliest-free slot.
type scanMultiServer struct {
	k     *Kernel
	slots []Time
}

func (s *scanMultiServer) ScheduleAt(t, d Time) Time {
	best := 0
	for i := 1; i < len(s.slots); i++ {
		if s.slots[i] < s.slots[best] {
			best = i
		}
	}
	start := t
	if s.k.now > start {
		start = s.k.now
	}
	if s.slots[best] > start {
		start = s.slots[best]
	}
	s.slots[best] = start + d
	return s.slots[best]
}

// TestMultiServerMatchesLinearScan is the differential test for the
// sorted-ring slot scheduler: for slot counts 1..30, request times that
// jump backwards as well as forwards, varying service times and an
// advancing kernel clock, every completion matches the linear-scan
// reference.
func TestMultiServerMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for m := 1; m <= 30; m++ {
		k := New(1)
		got := NewMultiServer(k, m)
		ref := &scanMultiServer{k: k, slots: make([]Time, m)}
		at := Time(0)
		for i := 0; i < 2000; i++ {
			switch rng.Intn(4) {
			case 0: // non-monotone: step back
				at -= Time(rng.Intn(500))
				if at < 0 {
					at = 0
				}
			case 1:
				k.now += Time(rng.Intn(200))
			default:
				at += Time(rng.Intn(100))
			}
			d := Time(rng.Intn(300))
			if rng.Intn(8) == 0 {
				d = 0
			}
			if g, w := got.ScheduleAt(at, d), ref.ScheduleAt(at, d); g != w {
				t.Fatalf("m=%d request %d (t=%v d=%v): ring %v, linear scan %v", m, i, at, d, g, w)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { got.ScheduleAt(at, 10) }); allocs != 0 {
			t.Fatalf("m=%d: ScheduleAt allocated %.1f times per call", m, allocs)
		}
	}
}

// BenchmarkMultiServerScheduleAt measures one reservation on a
// 24-slot server (the root-complex pipeline's slot count) under
// non-decreasing request times; it must not allocate.
func BenchmarkMultiServerScheduleAt(b *testing.B) {
	k := New(1)
	s := NewMultiServer(k, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScheduleAt(Time(i)*Nanosecond, 24*Nanosecond)
	}
}
