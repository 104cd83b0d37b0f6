package sim

import (
	"testing"
	"testing/quick"
)

// closure adapts a plain func to Handler so tests can schedule
// closures; production code schedules typed events.
type closure func()

func (f closure) Handle(*Kernel, int64, int64) { f() }

// at schedules fn at absolute time t.
func at(k *Kernel, t Time, fn func()) { k.AtEvent(t, closure(fn), 0, 0) }

// after schedules fn d picoseconds from now.
func after(k *Kernel, d Time, fn func()) { k.AfterEvent(d, closure(fn), 0, 0) }

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ps",
		1500:            "1.5ns",
		2 * Microsecond: "2.00us",
		3 * Millisecond: "3.00ms",
		2 * Second:      "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromNS(1.5) != 1500 {
		t.Errorf("FromNS(1.5) = %d", FromNS(1.5))
	}
	if (1500 * Picosecond).Nanoseconds() != 1.5 {
		t.Error("Nanoseconds conversion")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion")
	}
}

func TestKernelOrdering(t *testing.T) {
	k := New(1)
	var order []int
	at(k, 300, func() { order = append(order, 3) })
	at(k, 100, func() { order = append(order, 1) })
	at(k, 200, func() { order = append(order, 2) })
	end := k.Run()
	if end != 300 {
		t.Errorf("end time %v, want 300ps", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(k, 100, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelCascade(t *testing.T) {
	k := New(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			after(k, 10, step)
		}
	}
	after(k, 0, step)
	end := k.Run()
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if end != 990 {
		t.Errorf("end = %v, want 990ps", end)
	}
	if k.Executed != 100 {
		t.Errorf("Executed = %d", k.Executed)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	k := New(1)
	at(k, 100, func() { at(k, 50, func() {}) })
	k.Run()
}

func TestAfterClampsNegative(t *testing.T) {
	k := New(1)
	ran := false
	after(k, -5, func() { ran = true })
	k.Run()
	if !ran {
		t.Error("negative After did not run")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var ran []Time
	for _, ts := range []Time{100, 200, 300, 400} {
		ts := ts
		at(k, ts, func() { ran = append(ran, ts) })
	}
	k.RunUntil(250)
	if len(ran) != 2 {
		t.Errorf("ran %v, want 2 events", ran)
	}
	if k.Now() != 250 {
		t.Errorf("now = %v, want 250", k.Now())
	}
	if k.Pending() != 2 {
		t.Errorf("pending = %d, want 2", k.Pending())
	}
	k.Run()
	if len(ran) != 4 {
		t.Errorf("after Run: ran %v", ran)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var samples []int64
		var tick func()
		tick = func() {
			samples = append(samples, int64(k.Now()), k.Rand().Int63n(1000))
			if len(samples) < 100 {
				after(k, Time(k.Rand().Int63n(500)+1), tick)
			}
		}
		after(k, 1, tick)
		k.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestServerSerializes(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	// Three back-to-back requests at t=0 serialize.
	c1 := s.Schedule(100)
	c2 := s.Schedule(100)
	c3 := s.Schedule(100)
	if c1 != 100 || c2 != 200 || c3 != 300 {
		t.Errorf("completions %v %v %v, want 100 200 300", c1, c2, c3)
	}
	if s.NextFree() != 300 {
		t.Errorf("NextFree = %v", s.NextFree())
	}
}

func TestServerIdleGap(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	s.Schedule(100)
	// Advance time past the busy period; the next request starts at now.
	at(k, 500, func() {
		if c := s.Schedule(50); c != 550 {
			t.Errorf("completion %v, want 550", c)
		}
	})
	k.Run()
}

func TestServerScheduleAt(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	if c := s.ScheduleAt(1000, 100); c != 1100 {
		t.Errorf("ScheduleAt(1000,100) = %v", c)
	}
	// Earlier request still queues after (virtual clock moved forward).
	if c := s.ScheduleAt(0, 100); c != 1200 {
		t.Errorf("second ScheduleAt = %v, want 1200", c)
	}
}

func TestServerUtilization(t *testing.T) {
	k := New(1)
	s := NewServer(k)
	s.Schedule(500)
	at(k, 1000, func() {})
	k.Run()
	if u := s.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestMultiServerParallelism(t *testing.T) {
	k := New(1)
	m := NewMultiServer(k, 2)
	c1 := m.Schedule(100)
	c2 := m.Schedule(100)
	c3 := m.Schedule(100)
	if c1 != 100 || c2 != 100 {
		t.Errorf("first two should run in parallel: %v %v", c1, c2)
	}
	if c3 != 200 {
		t.Errorf("third should queue: %v", c3)
	}
	if m.Slots() != 2 {
		t.Errorf("Slots = %d", m.Slots())
	}
}

func TestMultiServerClampsSlots(t *testing.T) {
	k := New(1)
	if m := NewMultiServer(k, 0); m.Slots() != 1 {
		t.Error("0 slots not clamped to 1")
	}
}

// Property: a MultiServer with m slots completes n equal jobs in
// ceil(n/m) * d when all are submitted at t=0.
func TestMultiServerThroughput(t *testing.T) {
	f := func(nn, mm uint8) bool {
		n := int(nn%50) + 1
		m := int(mm%8) + 1
		k := New(1)
		srv := NewMultiServer(k, m)
		var last Time
		for i := 0; i < n; i++ {
			if c := srv.Schedule(100); c > last {
				last = c
			}
		}
		batches := (n + m - 1) / m
		return last == Time(batches*100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Server completions are monotonically non-decreasing in
// submission order regardless of service times.
func TestServerMonotoneCompletions(t *testing.T) {
	f := func(ds []uint16) bool {
		k := New(1)
		s := NewServer(k)
		var prev Time = -1
		for _, d := range ds {
			c := s.Schedule(Time(d % 1000))
			if c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
