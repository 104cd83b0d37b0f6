package sim

import (
	"math/rand"
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
			ts := Time(rng.Intn(50)) * Nanosecond
			i := i
			at(k, ts, func() {
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
				after(k, Time(rng.Intn(1000)), spawn)
			}
		}
		for i := 0; i < 10; i++ {
			at(k, Time(rng.Intn(100)), spawn)
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
				after(k, Time(rng.Intn(100))*Nanosecond, spawn)
			}
		}
		for i := 0; i < 5; i++ {
			at(k, Time(rng.Intn(20))*Nanosecond, spawn)
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
