package mem

import (
	"math/rand"
	"runtime"
	"testing"
)

// touchSpans is the reference for Cache.WarmHost: HostTouch(a, true)
// on every line of every span, in order.
func touchSpans(c *Cache, spans []Span) {
	line := uint64(c.cfg.LineSize)
	for _, sp := range spans {
		if sp.Size <= 0 {
			continue
		}
		for a := sp.Addr / line * line; a < sp.Addr+uint64(sp.Size); a += line {
			c.HostTouch(a, true)
		}
	}
}

// slot returns way j of set s, an all-zero way when the set's block was
// never allocated.
func slot(c *Cache, s uint64, j int) way {
	if ws := c.set(s); ws != nil {
		return ws[j]
	}
	return way{}
}

// sameCache fails t unless a and b agree on every slot and every
// counter.
func sameCache(t *testing.T, label string, a, b *Cache) {
	t.Helper()
	for s := uint64(0); s < a.nsets; s++ {
		for j := 0; j < a.cfg.Ways; j++ {
			if wa, wb := slot(a, s, j), slot(b, s, j); wa != wb {
				t.Fatalf("%s: set %d way %d = %+v, reference %+v", label, s, j, wa, wb)
			}
		}
	}
	type counters struct {
		clock, hits, misses, evictions, writebacks uint64
		occ, ddio                                  int
	}
	ca := counters{a.clock, a.Hits, a.Misses, a.Evictions, a.Writebacks, a.Occupancy(), a.DDIOOccupancy()}
	cb := counters{b.clock, b.Hits, b.Misses, b.Evictions, b.Writebacks, b.Occupancy(), b.DDIOOccupancy()}
	if ca != cb {
		t.Fatalf("%s: counters %+v, reference %+v", label, ca, cb)
	}
}

// randomSpans draws ascending byte spans with gaps, unaligned starts and
// sizes; with shareLine, consecutive spans may meet inside one line.
func randomSpans(r *rand.Rand, line, capacity uint64, shareLine bool) []Span {
	var spans []Span
	addr := uint64(r.Intn(int(4 * line)))
	for i, n := 0, 1+r.Intn(5); i < n; i++ {
		size := 1 + r.Intn(int(3*capacity))
		if r.Intn(3) == 0 {
			size = 1 + r.Intn(int(2*line))
		}
		spans = append(spans, Span{Addr: addr, Size: size})
		addr += uint64(size)
		if shareLine && r.Intn(2) == 0 {
			continue // the next span starts where this one ended
		}
		addr += uint64(r.Intn(int(2 * capacity)))
	}
	if r.Intn(8) == 0 {
		spans = append(spans, Span{Addr: addr, Size: 0}) // empty: touches nothing
	}
	return spans
}

// randomOps applies a random access stream to c.
func randomOps(r *rand.Rand, c *Cache, capacity uint64) {
	for i, n := 0, r.Intn(200); i < n; i++ {
		a := uint64(r.Int63n(int64(4 * capacity)))
		switch r.Intn(3) {
		case 0:
			c.DeviceRead(a)
		case 1:
			c.DeviceWrite(a, r.Intn(2) == 0)
		case 2:
			c.HostTouch(a, r.Intn(2) == 0)
		}
	}
}

// TestWarmHostMatchesPerLineTouch: whichever path WarmHost takes — the
// closed form on a fresh or thrashed cache, or the per-line fallback on
// a warm cache or spans that share a line — it leaves every slot and
// counter exactly as touching the lines one by one does.
func TestWarmHostMatchesPerLineTouch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	lineSizes := []int{64, 32, 48, 100}
	closedForm := 0
	for it := 0; it < 3000; it++ {
		line := lineSizes[r.Intn(len(lineSizes))]
		ways := 1 + r.Intn(8)
		sets := 1 + r.Intn(150)
		cfg := CacheConfig{SizeBytes: sets * ways * line, Ways: ways, LineSize: line, DDIOWays: 1 + r.Intn(ways)}
		capacity := uint64(cfg.SizeBytes)
		start := r.Intn(3) // 0 fresh, 1 thrashed, 2 warm
		shareLine := r.Intn(4) == 0
		spans := randomSpans(r, uint64(line), capacity, shareLine)

		// Build the same starting state twice from one seed.
		seed := r.Int63()
		mk := func() *Cache {
			c := NewCache(cfg)
			or := rand.New(rand.NewSource(seed))
			if start > 0 {
				randomOps(or, c, capacity)
			}
			if start == 1 {
				c.Thrash()
				for i := or.Intn(4); i > 0; i-- {
					c.DeviceRead(uint64(or.Int63n(int64(capacity)))) // reads keep it cold
				}
			}
			return c
		}
		got, want := mk(), mk()
		if got.cold && ascendingLines(got, spans) {
			closedForm++
		}
		got.WarmHost(spans)
		touchSpans(want, spans)
		sameCache(t, "warm", got, want)

		// The caches must keep agreeing under further traffic.
		or := rand.New(rand.NewSource(seed + 1))
		randomOps(or, got, capacity)
		or = rand.New(rand.NewSource(seed + 1))
		randomOps(or, want, capacity)
		sameCache(t, "after warm", got, want)
	}
	if closedForm < 1000 {
		t.Errorf("only %d of 3000 cases took the closed form", closedForm)
	}
}

// ascendingLines reports whether spans strictly ascend in c's line
// space, the closed form's precondition besides a cold cache.
func ascendingLines(c *Cache, spans []Span) bool {
	var prev uint64
	have := false
	for _, sp := range spans {
		if sp.Size <= 0 {
			continue
		}
		lo, hi := c.lineOf(sp.Addr), c.lineOf(sp.Addr+uint64(sp.Size)-1)+1
		if have && lo < prev {
			return false
		}
		prev, have = hi, true
	}
	return true
}

// A window far larger than the LLC keeps exactly the last ways lines of
// every set, and its counters say every line missed.
func TestWarmHostLargeWindow(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 15 << 20, Ways: 20, LineSize: 64, DDIOWays: 2})
	const window = 64 << 20
	c.WarmHost([]Span{{Addr: 0, Size: window / 2}, {Addr: 1 << 30, Size: window / 2}})
	lines := uint64(window / 64)
	if c.Misses != lines || c.Hits != 0 || c.clock != lines {
		t.Errorf("misses=%d hits=%d clock=%d, want %d misses", c.Misses, c.Hits, c.clock, lines)
	}
	capacity := uint64(15 << 20 / 64)
	if c.Evictions != lines-capacity || c.Writebacks != c.Evictions {
		t.Errorf("evictions=%d writebacks=%d, want %d", c.Evictions, c.Writebacks, lines-capacity)
	}
	if got := c.Occupancy(); got != int(capacity) {
		t.Errorf("occupancy = %d, want %d", got, capacity)
	}
	if !c.Contains(1<<30+window/2-64) || c.Contains(0) {
		t.Error("LLC does not hold the window's tail")
	}
}

// A cache allocates way metadata only for the blocks of sets that lines
// were placed in, so touching a few kilobytes of a large LLC costs
// kilobytes, and reading never allocates.
func TestCacheAllocatesOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCache(CacheConfig{SizeBytes: 25 << 20, Ways: 20, LineSize: 64, DDIOWays: 2})
	for a := uint64(0); a < 64<<20; a += 64 {
		c.DeviceRead(a)
	}
	c.WarmHost([]Span{{Addr: 0, Size: 8 << 10}})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("25 MB LLC, 8 KB warm: allocated %d bytes, want under 256 KB", got)
	}
	if got := c.Occupancy(); got != 128 {
		t.Errorf("occupancy = %d, want 128", got)
	}
}

// runOps applies one seeded access stream, with occasional Thrash and
// WarmHost calls, and records every observable outcome.
func runOps(c *Cache, seed int64, ops int) []uint64 {
	r := rand.New(rand.NewSource(seed))
	capacity := int64(c.cfg.SizeBytes)
	var out []uint64
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for i := 0; i < ops; i++ {
		a := uint64(r.Int63n(4 * capacity))
		var res AccessResult
		switch op := r.Intn(40); {
		case op == 0:
			c.Thrash()
		case op == 1:
			c.WarmHost([]Span{{Addr: a, Size: 1 + r.Intn(int(2*capacity))}})
		case op < 14:
			res = c.DeviceRead(a)
		case op < 27:
			res = c.DeviceWrite(a, r.Intn(2) == 0)
		default:
			res = c.HostTouch(a, r.Intn(2) == 0)
		}
		out = append(out, flag(res.Hit)|flag(res.Fetched)<<1|flag(res.EvictedDirty)<<2|flag(c.Contains(a))<<3,
			c.Hits, c.Misses, c.Evictions, c.Writebacks, uint64(c.Occupancy()), uint64(c.DDIOOccupancy()))
	}
	return out
}

// The epoch and LRU clock live in narrowed fields of way.meta. Their
// wrap-arounds — the epoch every 2^epochBits Thrashes, the clock near
// useLimit — must not change any outcome: a cache brought just short of
// both wraps behaves exactly like one that Thrashed once, including
// lines allocated before the epoch last had the value it wraps to.
func TestEpochAndClockWrapInvisible(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 32 * 4 * 64, Ways: 4, LineSize: 64, DDIOWays: 2}
	for seed := int64(1); seed <= 20; seed++ {
		ref := NewCache(cfg)
		runOps(ref, -seed, 500)
		ref.Thrash()
		want := runOps(ref, seed, 3000)

		c := NewCache(cfg)
		runOps(c, -seed, 500)
		for c.epoch != epochMask {
			c.Thrash() // the next Thrash wraps the epoch
		}
		c.clock = useLimit - 500
		got := runOps(c, seed, 3000)
		if c.clock >= useLimit-500 {
			t.Fatalf("seed %d: clock never wrapped", seed)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: outcome %d differs after a wrap: %d, want %d", seed, i, got[i], want[i])
			}
		}
	}
}
