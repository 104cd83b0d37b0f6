package mem

import (
	"math/rand"
	"testing"

	"pciebench/internal/sim"
)

// perLineAccess is the reference for Cache.deviceSpan: DeviceRead(a), or
// DeviceWrite(a, the write covers a's whole line), on every line a of
// [addr, addr+size) in ascending order, one line when size is 0. It
// returns each line's latency as System.AccessFrom charged it line by
// line (DRAM when the line was fetched, else LLC) and their worst.
func perLineAccess(c *Cache, cfg Config, write bool, addr uint64, size int) (fetched bool, worst sim.Time) {
	line := uint64(c.cfg.LineSize)
	first := addr / line * line
	end := addr + uint64(size)
	if size == 0 {
		end = first + 1
	}
	worst = cfg.LLCLatency
	for a := first; a < end; a += line {
		var r AccessResult
		if write {
			r = c.DeviceWrite(a, addr <= a && addr+uint64(size) >= a+line)
		} else {
			r = c.DeviceRead(a)
		}
		lat := cfg.LLCLatency
		if r.Fetched {
			fetched = true
			lat = cfg.DRAMLatency
		}
		worst = max(worst, lat)
	}
	return fetched, worst
}

// TestDeviceSpanMatchesPerLine: one span walk per transfer leaves every
// way, counter and result exactly as accessing its lines one by one —
// over line sizes and set counts that are not powers of two, a DDIO
// quota below the way count, spans that wrap the set index, interleaved
// host traffic, warms and thrashes, and both metadata wraps.
func TestDeviceSpanMatchesPerLine(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lineSizes := []int{64, 48, 100, 32}
	for it := 0; it < 250; it++ {
		line := lineSizes[r.Intn(len(lineSizes))]
		ways := 2 + r.Intn(7)
		sets := 1 + r.Intn(120)
		cfg := Config{
			Nodes:         2,
			Cache:         CacheConfig{SizeBytes: sets * ways * line, Ways: ways, LineSize: line, DDIOWays: 1 + r.Intn(ways-1)},
			LLCLatency:    40 * sim.Nanosecond,
			DRAMLatency:   110 * sim.Nanosecond,
			RemoteLatency: 100 * sim.Nanosecond,
		}
		got, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSystem(cfg)
		if it%4 == 0 {
			// Start both just short of the epoch and clock wraps.
			for _, s := range []*System{got, want} {
				for n := 0; n < cfg.Nodes; n++ {
					c := s.Node(n)
					for c.epoch != epochMask-1 {
						c.Thrash()
					}
					c.clock = useLimit - 300
				}
			}
		}
		capacity := uint64(cfg.Cache.SizeBytes)
		for op := 0; op < 300; op++ {
			addr := uint64(r.Int63n(int64(3 * capacity)))
			node := r.Intn(cfg.Nodes)
			switch k := r.Intn(30); {
			case k == 0:
				got.Thrash()
				want.Thrash()
			case k == 1:
				sp := []Span{{Addr: addr, Size: 1 + r.Intn(int(capacity))}}
				got.WarmHost(node, sp)
				want.WarmHost(node, sp)
			case k < 5:
				w := r.Intn(2) == 0
				got.Node(node).HostTouch(addr, w)
				want.Node(node).HostTouch(addr, w)
			case k == 5:
				size := 1 + r.Intn(4*line)
				got.WarmDevice(node, addr, size)
				for a := addr / uint64(line) * uint64(line); a < addr+uint64(size); a += uint64(line) {
					want.Node(node).DeviceWrite(a, true)
				}
			default:
				write := r.Intn(2) == 0
				size := r.Intn(3 * line)
				switch r.Intn(4) {
				case 0:
					size = line * (1 + r.Intn(3)) // whole lines, often aligned below
					addr = addr / uint64(line) * uint64(line)
				case 1:
					size = 1 + r.Intn(2*sets*line) // may wrap the set index
				}
				fetched, wantLat := perLineAccess(want.Node(node), cfg, write, addr, size)
				if r.Intn(2) == 0 {
					if f := got.Node(node).deviceSpan(write, addr, size); f != fetched {
						t.Fatalf("case %d op %d: deviceSpan(%v, %#x, %d) fetched = %v, per line %v",
							it, op, write, addr, size, f, fetched)
					}
					break
				}
				from := r.Intn(cfg.Nodes)
				if node != from {
					wantLat += cfg.RemoteLatency
				}
				if lat := got.AccessFrom(write, from, node, addr, size); lat != wantLat {
					t.Fatalf("case %d op %d: AccessFrom(%v, %d, %d, %#x, %d) = %v, per line %v",
						it, op, write, from, node, addr, size, lat, wantLat)
				}
			}
			for n := 0; n < cfg.Nodes; n++ {
				sameCache(t, "span", got.Node(n), want.Node(n))
			}
		}
	}
}

// A multi-line device access allocates nothing once the sets it
// touches hold way metadata.
func TestAccessFromZeroAlloc(t *testing.T) {
	s, err := NewSystem(sysConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Access(true, 0, 0, 1500) // place the blocks
	if n := testing.AllocsPerRun(1000, func() {
		s.Access(true, 0, 0, 1500)
		s.Access(false, 0, 100, 1500)
	}); n != 0 {
		t.Errorf("multi-line AccessFrom: %v allocs per call, want 0", n)
	}
}
