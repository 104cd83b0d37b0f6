// Package mem models the end-host memory system a PCIe root complex
// talks to: per-node last-level caches with a DDIO-style restricted
// allocation region for device writes, DRAM behind them, and a NUMA
// interconnect between sockets.
//
// The model captures exactly the mechanisms the paper's §6.3 and §6.4
// experiments exercise:
//
//   - DMA reads are serviced from the LLC when the line is resident
//     (~70 ns cheaper than DRAM) and do not allocate on a miss.
//   - DMA writes allocate into a bounded number of lines per set (Intel
//     documents ~10% of the LLC for DDIO); a partial-line write to a
//     non-resident line forces a read-modify-write fetch from DRAM,
//     which is the latency penalty the paper observes once the access
//     window outgrows the DDIO region.
//   - Accesses whose home is the remote socket pay the interconnect
//     latency.
package mem

// LineState is the state of one cache line.
type LineState uint8

// Cache line states.
const (
	Invalid LineState = iota
	Clean
	Dirty
)

// way is the metadata of one cache line in 16 bytes: its tag (the line
// number) and a packed word holding, from the low bit up,
//
//	bit 0       validBit: the line holds data
//	bit 1       dirtyBit: the line is Dirty rather than Clean
//	bit 2       ddioBit: allocated by a device write (counts against
//	            the DDIO quota)
//	bits 3-15   the low epochBits of the Thrash generation that
//	            allocated the line
//	bits 16-63  use: the cache's LRU clock at the last touch
//
// A line is resident only when its valid bit is set and its epoch is
// the cache's, so lookup is two word compares.
type way struct {
	tag  uint64
	meta uint64
}

const (
	validBit = 1 << iota
	dirtyBit
	ddioBit

	epochShift = 3
	epochBits  = 13
	epochMask  = 1<<epochBits - 1
	keyMask    = epochMask<<epochShift | validBit // meta bits lookup matches
	useShift   = epochShift + epochBits
	useLimit   = 1 << (64 - useShift) // clock values that fit in use
)

// use returns the LRU clock value of the line's last touch.
func (w *way) use() uint64 { return w.meta >> useShift }

// blockSets is the number of consecutive sets whose way metadata is
// allocated together. A block is allocated the first time a line is
// placed in one of its sets; until then its sets read as all-Invalid.
// A run that touches a few kilobytes of a multi-megabyte LLC thereby
// allocates a few blocks instead of the whole cache's metadata.
const blockSets = 64

// CacheConfig shapes a set-associative LLC.
type CacheConfig struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineSize  int // bytes per line
	DDIOWays  int // max lines per set allocatable by device writes
}

// Cache is a set-associative last-level cache with true-LRU replacement
// and a per-set DDIO allocation quota. It tracks only metadata (tags and
// states), not data.
type Cache struct {
	cfg CacheConfig
	// blocks[b] holds the ways of sets [b*blockSets, (b+1)*blockSets),
	// set-major; nil until a line is placed in one of those sets.
	blocks [][]way
	// clock orders touches for LRU. It stays below useLimit: renumber
	// rewrites the stored use values when it would reach it.
	clock uint64
	// epoch implements O(1) Thrash: a line is valid only when its epoch
	// matches the cache's, so bumping the cache epoch invalidates every
	// line without rewriting the way metadata. It counts modulo
	// 2^epochBits; key is the meta pattern of a resident line.
	epoch, key uint64
	// cold is set while no line has been allocated since NewCache or
	// the last Thrash, i.e. every way is Invalid. WarmHost relies on it
	// for its closed form.
	cold bool

	// Address-decomposition constants hoisted out of the access path:
	// when LineSize is a power of two (the practical case) lineShift
	// replaces the division, and nsets caches the set-count divisor.
	lineShift int // -1 when LineSize is not a power of two
	nsets     uint64

	// Statistics.
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// NewCache builds a cache; SizeBytes must be a multiple of Ways*LineSize.
// No way metadata is allocated until lines are placed.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineSize <= 0 {
		cfg.LineSize = 64
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 16
	}
	if cfg.DDIOWays <= 0 || cfg.DDIOWays > cfg.Ways {
		cfg.DDIOWays = cfg.Ways
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineSize)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{
		cfg:    cfg,
		blocks: make([][]way, (nsets+blockSets-1)/blockSets),
		nsets:  uint64(nsets),
		key:    validBit,
		cold:   true,
	}
	c.lineShift = -1
	if ls := uint64(cfg.LineSize); ls&(ls-1) == 0 {
		for s := 0; uint64(1)<<s <= ls; s++ {
			if uint64(1)<<s == ls {
				c.lineShift = s
				break
			}
		}
	}
	return c
}

// lineOf returns the line number of addr, which is also its tag.
func (c *Cache) lineOf(addr uint64) uint64 {
	if c.lineShift >= 0 {
		return addr >> c.lineShift
	}
	return addr / uint64(c.cfg.LineSize)
}

// set returns the ways of set s, or nil while its block is unallocated.
func (c *Cache) set(s uint64) []way {
	b := c.blocks[s/blockSets]
	if b == nil {
		return nil
	}
	w := uint64(c.cfg.Ways)
	i := s % blockSets * w
	return b[i : i+w : i+w]
}

// place returns the ways of set s, allocating its block if needed.
func (c *Cache) place(s uint64) []way {
	bi := s / blockSets
	if c.blocks[bi] == nil {
		n := min(blockSets, c.nsets-bi*blockSets)
		c.blocks[bi] = make([]way, n*uint64(c.cfg.Ways))
	}
	return c.set(s)
}

// tick advances the LRU clock for one access.
func (c *Cache) tick() {
	if c.clock == useLimit-1 {
		c.renumber()
	}
	c.clock++
}

// renumber rewrites every resident line's use to its LRU rank within
// its set (1 for the set's least recently used line) and restarts the
// clock above the largest rank. Replacement only ever compares the use
// values of resident lines in one set, so this changes no outcome; it
// keeps the clock inside the bits way.meta has for it.
func (c *Cache) renumber() {
	nways := c.cfg.Ways
	rank := make([]uint64, nways)
	for _, b := range c.blocks {
		for i := 0; i < len(b); i += nways {
			ways := b[i : i+nways]
			for j := range ways {
				rank[j] = 1
				for k := range ways {
					if c.stateOf(&ways[k]) != Invalid && ways[k].use() < ways[j].use() {
						rank[j]++
					}
				}
			}
			for j := range ways {
				if c.stateOf(&ways[j]) != Invalid {
					ways[j].meta = ways[j].meta&(1<<useShift-1) | rank[j]<<useShift
				}
			}
		}
	}
	c.clock = uint64(nways)
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.nsets) }

// stateOf returns the effective state of a way: lines allocated before
// the last Thrash are Invalid regardless of their stored state.
func (c *Cache) stateOf(w *way) LineState {
	switch {
	case w.meta&keyMask != c.key:
		return Invalid
	case w.meta&dirtyBit != 0:
		return Dirty
	}
	return Clean
}

// Contains reports whether the line holding addr is resident, without
// disturbing LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	tag := c.lineOf(addr)
	return c.lookup(c.set(tag%c.nsets), tag) >= 0
}

// lookup returns the index of the line in ways, or -1.
func (c *Cache) lookup(ways []way, tag uint64) int {
	for i := range ways {
		if ways[i].tag == tag && ways[i].meta&keyMask == c.key {
			return i
		}
	}
	return -1
}

// touch records an access to a resident line, marking it Dirty when
// dirty is set.
func (c *Cache) touch(w *way, dirty bool) {
	w.meta = c.clock<<useShift | w.meta&(1<<useShift-1)
	if dirty {
		w.meta |= dirtyBit
	}
}

// fill returns a resident line allocated now; flags adds dirtyBit and
// ddioBit.
func (c *Cache) fill(tag, flags uint64) way {
	return way{tag: tag, meta: c.clock<<useShift | c.key | flags}
}

// AccessResult describes one line-granular cache access.
type AccessResult struct {
	Hit          bool
	Fetched      bool // line was (or had to be) fetched from memory
	EvictedDirty bool // allocation displaced a dirty line (write-back)
}

// DeviceRead performs a DMA-read lookup of the line holding addr. Per
// DDIO semantics reads are serviced from the cache on a hit but do not
// allocate on a miss.
func (c *Cache) DeviceRead(addr uint64) AccessResult {
	c.tick()
	tag := c.lineOf(addr)
	ways := c.set(tag % c.nsets)
	if i := c.lookup(ways, tag); i >= 0 {
		c.touch(&ways[i], false)
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	return AccessResult{Fetched: true}
}

// DeviceWrite performs a DMA-write access to the line holding addr.
// fullLine indicates the write covers the entire cache line. On a miss
// the line is allocated within the DDIO quota; a partial-line miss
// additionally fetches the line from memory (read-modify-write), which
// is the DDIO latency penalty the paper measures.
func (c *Cache) DeviceWrite(addr uint64, fullLine bool) AccessResult {
	c.tick()
	tag := c.lineOf(addr)
	s := tag % c.nsets
	ways := c.set(s)
	if i := c.lookup(ways, tag); i >= 0 {
		c.touch(&ways[i], true)
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	return AccessResult{Fetched: !fullLine, EvictedDirty: c.allocDDIO(ways, s, tag)}
}

// allocDDIO places the device-written line tag in set s, whose ways
// (nil while unallocated) missed it, and reports whether that evicted
// a dirty line.
func (c *Cache) allocDDIO(ways []way, s, tag uint64) (evictedDirty bool) {
	if ways == nil {
		ways = c.place(s)
	}
	v := c.victimDDIO(ways)
	if st := c.stateOf(&ways[v]); st == Dirty {
		c.Writebacks++
		evictedDirty = true
		c.Evictions++
	} else if st != Invalid {
		c.Evictions++
	}
	ways[v] = c.fill(tag, dirtyBit|ddioBit)
	c.cold = false
	return evictedDirty
}

// deviceSpan performs a device read or write of the size bytes at addr
// (one line when size < 1): the same as DeviceRead(a), or
// DeviceWrite(a, the write covers a's whole line), for each line a in
// ascending order. It reports whether any line had to be fetched from
// memory. The set index is divided out once and then advanced with the
// line, so a multi-line transfer pays one division, not one per line.
func (c *Cache) deviceSpan(write bool, addr uint64, size int) (fetched bool) {
	lo := c.lineOf(addr)
	hi := lo + 1
	if size > 0 {
		hi = c.lineOf(addr+uint64(size)-1) + 1
	}
	// Only the end lines can be partial: the first when addr is not
	// line-aligned, the last when the transfer ends inside it.
	line := uint64(c.cfg.LineSize)
	end := addr + uint64(max(size, 0))
	for t, s := lo, lo%c.nsets; t < hi; t++ {
		c.tick()
		ways := c.set(s)
		if i := c.lookup(ways, t); i >= 0 {
			c.touch(&ways[i], write)
			c.Hits++
		} else {
			c.Misses++
			if !write {
				fetched = true
			} else {
				if (t == lo && addr != lo*line) || (t == hi-1 && end != hi*line) {
					fetched = true
				}
				c.allocDDIO(ways, s, t)
			}
		}
		if s++; s == c.nsets {
			s = 0
		}
	}
	return fetched
}

// HostTouch simulates the CPU reading (write=false) or writing
// (write=true) the line holding addr, allocating anywhere in the set.
func (c *Cache) HostTouch(addr uint64, write bool) AccessResult {
	return c.hostTouch(c.lineOf(addr), write)
}

func (c *Cache) hostTouch(tag uint64, write bool) AccessResult {
	c.tick()
	ways := c.set(tag % c.nsets)
	if i := c.lookup(ways, tag); i >= 0 {
		c.touch(&ways[i], write)
		c.Hits++
		return AccessResult{Hit: true}
	}
	c.Misses++
	res := AccessResult{Fetched: true}
	if ways == nil {
		ways = c.place(tag % c.nsets)
	}
	v := c.victimAny(ways)
	if vst := c.stateOf(&ways[v]); vst == Dirty {
		c.Writebacks++
		res.EvictedDirty = true
		c.Evictions++
	} else if vst != Invalid {
		c.Evictions++
	}
	var flags uint64
	if write {
		flags = dirtyBit
	}
	ways[v] = c.fill(tag, flags)
	c.cold = false
	return res
}

// victimAny picks an invalid way or the global LRU way.
func (c *Cache) victimAny(ways []way) int {
	best := -1
	for i := range ways {
		if c.stateOf(&ways[i]) == Invalid {
			return i
		}
		if best < 0 || ways[i].use() < ways[best].use() {
			best = i
		}
	}
	return best
}

// victimDDIO picks a victim for a device-write allocation. The DDIO
// quota is a hard cap: once the set holds DDIOWays device-allocated
// lines, a new device write must recycle the LRU one of those — even if
// invalid ways exist — because the hardware dedicates specific ways to
// IO allocation. Below the quota, an invalid way is preferred, then the
// set-global LRU way.
func (c *Cache) victimDDIO(ways []way) int {
	ddioCount := 0
	bestAll, bestDDIO, firstInvalid := -1, -1, -1
	for i := range ways {
		if c.stateOf(&ways[i]) == Invalid {
			if firstInvalid < 0 {
				firstInvalid = i
			}
			continue
		}
		if bestAll < 0 || ways[i].use() < ways[bestAll].use() {
			bestAll = i
		}
		if ways[i].meta&ddioBit != 0 {
			ddioCount++
			if bestDDIO < 0 || ways[i].use() < ways[bestDDIO].use() {
				bestDDIO = i
			}
		}
	}
	if ddioCount >= c.cfg.DDIOWays {
		return bestDDIO
	}
	if firstInvalid >= 0 {
		return firstInvalid
	}
	return bestAll
}

// Span is the byte range [Addr, Addr+Size) of physical memory.
type Span struct {
	Addr uint64
	Size int
}

// lineSpan is the half-open range of line numbers [lo, hi), with how it
// spreads over the sets: it starts in set first and gives every set per
// lines, plus one more to the rem sets from first on.
type lineSpan struct{ lo, hi, first, per, rem uint64 }

// WarmHost writes every line of spans from the CPU, span by span in
// ascending address order: the same as HostTouch(a, true) for each
// line a in turn. It is the paper's "host warm" control (§4).
//
// The benchmarks thrash the cache before warming, and their windows
// outgrow the LLC, where only the last lines of each set survive. So
// when the cache is cold and the spans strictly ascend in line space,
// WarmHost writes the final state directly (warmCold), at a cost that
// scales with the lines left resident rather than the lines touched.
// Any other input falls back to touching line by line.
func (c *Cache) WarmHost(spans []Span) {
	var buf [8]lineSpan
	ls := buf[:0]
	var n uint64 // lines in all spans
	ascending := true
	for _, sp := range spans {
		if sp.Size <= 0 {
			continue
		}
		lo, hi := c.lineOf(sp.Addr), c.lineOf(sp.Addr+uint64(sp.Size)-1)+1
		if len(ls) > 0 && lo < ls[len(ls)-1].hi {
			ascending = false
		}
		ls = append(ls, lineSpan{lo, hi, lo % c.nsets, (hi - lo) / c.nsets, (hi - lo) % c.nsets})
		n += hi - lo
	}
	if c.cold && ascending && n+uint64(c.cfg.Ways) < useLimit {
		c.warmCold(ls, n)
		return
	}
	for _, l := range ls {
		for t := l.lo; t < l.hi; t++ {
			c.hostTouch(t, true)
		}
	}
}

// warmCold is WarmHost's closed form for a cold cache and spans that
// strictly ascend in line space, n lines in all. Every line then misses, and in a set
// that receives m lines the k-th of them (from 0) takes slot k mod
// ways: the first ways lines fill the invalid ways in order, and each
// later one evicts the line ways before it, the set's LRU line, from
// that line's slot. So the last min(m, ways) lines survive, each with
// use = clock0 + (its index among all lines) + 1, and the other lines
// are evicted dirty. warmCold visits each touched set once, counts its
// lines per span arithmetically, and writes only the survivors.
func (c *Cache) warmCold(ls []lineSpan, n uint64) {
	if n == 0 {
		return
	}
	var cover uint64
	for _, l := range ls {
		cover += min(l.hi-l.lo, c.nsets)
	}
	if c.clock+n >= useLimit {
		c.renumber()
	}
	var evicted uint64
	if cover >= c.nsets {
		for s := uint64(0); s < c.nsets; s++ {
			evicted += c.warmSet(ls, n, s)
		}
	} else {
		// Every span is shorter than the set count, so it reaches
		// each of its sets once; warm a set from the first span that
		// reaches it.
		for i, l := range ls {
			for t := l.lo; t < l.hi; t++ {
				if s := t % c.nsets; !reaches(ls[:i], s, c.nsets) {
					evicted += c.warmSet(ls, n, s)
				}
			}
		}
	}
	c.clock += n
	c.Misses += n
	c.Evictions += evicted
	c.Writebacks += evicted
	c.cold = false
}

// warmSet writes the survivors of set s for warmCold, given the total
// line count n, and returns the number of lines the set evicted.
func (c *Cache) warmSet(ls []lineSpan, n, s uint64) uint64 {
	var m uint64
	for _, l := range ls {
		_, cnt := linesIn(l, s, c.nsets)
		m += cnt
	}
	if m == 0 {
		return 0
	}
	nways := uint64(c.cfg.Ways)
	keep := min(m, nways)
	ways := c.place(s)
	slot := (m - 1) % nways // slot of the set's last line
	left, base := keep, n   // survivors to write; global index past the span
	for j := len(ls) - 1; left > 0; j-- {
		l := ls[j]
		base -= l.hi - l.lo
		off, cnt := linesIn(l, s, c.nsets)
		// Walk l's lines in set s from its last one back.
		for o := off + cnt*c.nsets; cnt > 0 && left > 0; cnt, left = cnt-1, left-1 {
			o -= c.nsets
			ways[slot] = way{tag: l.lo + o, meta: (c.clock+base+o+1)<<useShift | c.key | dirtyBit}
			if slot == 0 {
				slot = nways
			}
			slot--
		}
	}
	return m - keep
}

// linesIn returns the offset within l of its first line in set s and
// how many of l's lines map to s.
func linesIn(l lineSpan, s, nsets uint64) (off, cnt uint64) {
	off = s - l.first
	if s < l.first {
		off += nsets
	}
	cnt = l.per
	if off < l.rem {
		cnt++
	}
	return off, cnt
}

// reaches reports whether any of ls has a line in set s.
func reaches(ls []lineSpan, s, nsets uint64) bool {
	for _, l := range ls {
		if _, cnt := linesIn(l, s, nsets); cnt > 0 {
			return true
		}
	}
	return false
}

// Thrash resets the cache to a cold state, as the paper's control
// programs do before every benchmark run. It is O(1): bumping the
// cache epoch invalidates every line lazily instead of rewriting the
// way metadata. Only when the stored epoch wraps, once every
// 2^epochBits calls, does it clear the allocated blocks, so that lines
// from 2^epochBits generations ago cannot look resident again.
func (c *Cache) Thrash() {
	c.epoch = (c.epoch + 1) & epochMask
	if c.epoch == 0 {
		for _, b := range c.blocks {
			clear(b)
		}
	}
	c.key = c.epoch<<epochShift | validBit
	c.cold = true
}

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
}

// Occupancy returns the number of resident (non-invalid) lines.
func (c *Cache) Occupancy() int { return c.count(0) }

// DDIOOccupancy returns the number of resident device-allocated lines.
func (c *Cache) DDIOOccupancy() int { return c.count(ddioBit) }

// count returns the number of resident lines that have every bit of
// flags set. Unallocated blocks hold none.
func (c *Cache) count(flags uint64) int {
	n := 0
	for _, b := range c.blocks {
		for i := range b {
			if b[i].meta&keyMask == c.key && b[i].meta&flags == flags {
				n++
			}
		}
	}
	return n
}
