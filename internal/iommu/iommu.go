// Package iommu models an Intel VT-d style IOMMU interposed between the
// PCIe root complex and the memory system.
//
// Every inbound TLP's DMA address is translated through an IO-TLB; a
// miss occupies one of a small pool of hardware page-table walkers for
// the duration of a multi-level walk. Both parameters are the levers
// behind the paper's §6.5 findings: the windowed benchmark infers 64
// IO-TLB entries (the throughput cliff at a 256 KB window with 4 KB
// pages) and a ~330 ns walk cost, and the sharp 64 B-read bandwidth drop
// beyond the cliff is reproduced by walker-pool serialization, not by a
// hard-coded curve.
//
// Superpage support (2 MB / 1 GB) mirrors the hardware: one IO-TLB entry
// then covers the whole superpage, which is why the paper recommends
// co-locating DMA buffers in superpages. The paper's experiments disable
// it (`sp_off`) to force 4 KB granularity; that choice is made by the
// driver layer (internal/hostif) when it maps the buffer.
//
// A host may expose several units — VT-d enumerates one DRHD per
// socket — so a fabric can carry one IOMMU per socket, each with its
// own IO-TLB, walker pool and counters (see internal/topo's IOMMU
// scope). Translate sits on every DMA's critical path, so both lookup
// structures are allocation-free in steady state: mappings are kept
// sorted by IOVA and found by binary search, and the IO-TLB is a fixed
// entry arena threaded onto an intrusive LRU list with a hash index,
// replacing the former linear scans; the most recently used entry is
// checked before both, since consecutive TLPs mostly share a page.
// Eviction order is bit-identical to the old min-use-clock sweep: the
// list tail is exactly the entry with the smallest use stamp.
package iommu

import (
	"errors"
	"fmt"

	"pciebench/internal/sim"
)

// Page sizes supported by the translation structures.
const (
	Page4K = 4 << 10
	Page2M = 2 << 20
	Page1G = 1 << 30
)

// Config shapes the IOMMU.
type Config struct {
	// TLBEntries is the IO-TLB capacity (fully associative, LRU). The
	// paper infers 64 for the Intel implementations it measures.
	TLBEntries int
	// WalkLatency is the full page-table walk cost on a TLB miss
	// (~330 ns inferred in §6.5).
	WalkLatency sim.Time
	// Walkers is the number of concurrent hardware page walkers; misses
	// beyond this serialize. This bounds translation throughput at
	// Walkers/WalkLatency.
	Walkers int
	// HitLatency is the (small) cost of a TLB hit lookup.
	HitLatency sim.Time
}

// DefaultConfig returns the calibration used for the paper's Intel
// systems.
func DefaultConfig() Config {
	return Config{
		TLBEntries:  64,
		WalkLatency: 330 * sim.Nanosecond,
		Walkers:     6,
		HitLatency:  0,
	}
}

// Translation errors.
var (
	ErrUnmapped   = errors.New("iommu: address not mapped (DMA fault)")
	ErrOverlap    = errors.New("iommu: mapping overlaps an existing one")
	ErrBadPage    = errors.New("iommu: page size must be 4K, 2M or 1G")
	ErrMisaligned = errors.New("iommu: mapping addresses must be page aligned")
)

type mapping struct {
	iova, pa uint64
	size     uint64
	pageSize uint64
}

// tlbKey identifies one IO-TLB entry: the covering page and its size.
type tlbKey struct {
	pageBase uint64 // IOVA base of the covering page
	pageSize uint64
}

// tlbEntry is one arena slot; prev/next thread the intrusive LRU list
// (head = most recently used, tail = eviction victim; -1 terminates).
type tlbEntry struct {
	key        tlbKey
	pa         uint64 // PA base of the covering page
	prev, next int32
}

// IOMMU is a single translation unit with its IO-TLB and walker pool.
type IOMMU struct {
	cfg     Config
	walkers *sim.MultiServer
	maps    []mapping // sorted by iova, non-overlapping

	// IO-TLB: fixed entry arena + hash index + intrusive LRU list.
	tlb        []tlbEntry // len = live entries, cap = TLBEntries
	index      map[tlbKey]int32
	head, tail int32

	// Statistics.
	Hits   uint64
	Misses uint64
	Faults uint64
}

// New builds an IOMMU bound to kernel k (the walker pool shares its
// virtual clock).
func New(k *sim.Kernel, cfg Config) *IOMMU {
	if cfg.TLBEntries < 1 {
		cfg.TLBEntries = 1
	}
	if cfg.Walkers < 1 {
		cfg.Walkers = 1
	}
	return &IOMMU{
		cfg:     cfg,
		walkers: sim.NewMultiServer(k, cfg.Walkers),
		tlb:     make([]tlbEntry, 0, cfg.TLBEntries),
		index:   make(map[tlbKey]int32, cfg.TLBEntries),
		head:    -1,
		tail:    -1,
	}
}

// Config returns the configuration.
func (u *IOMMU) Config() Config { return u.cfg }

// lowerBound returns the first index whose mapping starts above iova.
func (u *IOMMU) lowerBound(iova uint64) int {
	lo, hi := 0, len(u.maps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u.maps[mid].iova <= iova {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Map installs a translation of size bytes from IOVA to PA with the
// given page granularity. All addresses must be aligned to pageSize and
// size a multiple of it; the range must not overlap existing mappings.
func (u *IOMMU) Map(iova, pa uint64, size int, pageSize int) error {
	ps := uint64(pageSize)
	if pageSize != Page4K && pageSize != Page2M && pageSize != Page1G {
		return ErrBadPage
	}
	if iova%ps != 0 || pa%ps != 0 || uint64(size)%ps != 0 {
		return ErrMisaligned
	}
	// Sorted + non-overlapping: only the neighbors can collide.
	i := u.lowerBound(iova)
	if i > 0 && iova < u.maps[i-1].iova+u.maps[i-1].size {
		return ErrOverlap
	}
	if i < len(u.maps) && u.maps[i].iova < iova+uint64(size) {
		return ErrOverlap
	}
	u.maps = append(u.maps, mapping{})
	copy(u.maps[i+1:], u.maps[i:])
	u.maps[i] = mapping{iova: iova, pa: pa, size: uint64(size), pageSize: ps}
	return nil
}

// Unmap removes the mapping starting at iova and flushes the IO-TLB (as
// the kernel's unmap path does with an invalidation).
func (u *IOMMU) Unmap(iova uint64) error {
	i := u.lowerBound(iova) - 1
	if i >= 0 && u.maps[i].iova == iova {
		u.maps = append(u.maps[:i], u.maps[i+1:]...)
		u.InvalidateAll()
		return nil
	}
	return fmt.Errorf("%w: iova %#x", ErrUnmapped, iova)
}

// lookupMapping finds the mapping covering iova by binary search.
func (u *IOMMU) lookupMapping(iova uint64) (mapping, bool) {
	i := u.lowerBound(iova) - 1
	if i < 0 {
		return mapping{}, false
	}
	if m := u.maps[i]; iova < m.iova+m.size {
		return m, true
	}
	return mapping{}, false
}

// Result describes one translation.
type Result struct {
	PA    uint64
	Ready sim.Time // when the translated request may proceed
	Hit   bool
}

// Translate resolves iova at virtual time at. On an IO-TLB hit the
// request proceeds after HitLatency. On a miss a page walker is occupied
// for WalkLatency (queueing behind other misses when every walker is
// busy) and the translation is installed in the IO-TLB, evicting the
// LRU entry.
//
// The most recently used entry, the list head, is checked first: the
// TLPs of one DMA, and a queue's next DMAs, mostly fall in the page
// just translated. The IO-TLB holds entries only for pages of live
// mappings (Unmap flushes it), so a hit there needs neither the
// mapping search nor the index, and leaves the LRU order as it is.
func (u *IOMMU) Translate(at sim.Time, iova uint64) (Result, error) {
	if h := u.head; h >= 0 {
		if e := &u.tlb[h]; iova&^(e.key.pageSize-1) == e.key.pageBase {
			u.Hits++
			return Result{PA: e.pa + (iova - e.key.pageBase), Ready: at + u.cfg.HitLatency, Hit: true}, nil
		}
	}
	return u.translateIndexed(at, iova)
}

// translateIndexed is Translate without the head check: it finds the
// covering mapping, then the page's entry through the index.
func (u *IOMMU) translateIndexed(at sim.Time, iova uint64) (Result, error) {
	m, ok := u.lookupMapping(iova)
	if !ok {
		u.Faults++
		return Result{}, fmt.Errorf("%w: iova %#x", ErrUnmapped, iova)
	}
	pageBase := iova &^ (m.pageSize - 1) // page sizes are powers of two
	pa := m.pa + (iova - m.iova)
	key := tlbKey{pageBase, m.pageSize}
	if i, ok := u.index[key]; ok {
		u.touch(i)
		u.Hits++
		return Result{PA: pa, Ready: at + u.cfg.HitLatency, Hit: true}, nil
	}
	u.Misses++
	ready := u.walkers.ScheduleAt(at, u.cfg.WalkLatency)
	u.install(key, m.pa+(pageBase-m.iova))
	return Result{PA: pa, Ready: ready, Hit: false}, nil
}

// touch moves entry i to the list head (most recently used).
func (u *IOMMU) touch(i int32) {
	if u.head == i {
		return
	}
	e := &u.tlb[i]
	u.tlb[e.prev].next = e.next
	if e.next >= 0 {
		u.tlb[e.next].prev = e.prev
	} else {
		u.tail = e.prev
	}
	e.prev = -1
	e.next = u.head
	u.tlb[u.head].prev = i
	u.head = i
}

// install inserts a TLB entry at the list head, evicting the LRU tail
// when the arena is full.
func (u *IOMMU) install(key tlbKey, pa uint64) {
	var i int32
	if len(u.tlb) < u.cfg.TLBEntries {
		i = int32(len(u.tlb))
		u.tlb = append(u.tlb, tlbEntry{})
	} else {
		i = u.tail
		e := &u.tlb[i]
		delete(u.index, e.key)
		u.tail = e.prev
		if u.tail >= 0 {
			u.tlb[u.tail].next = -1
		} else {
			u.head = -1
		}
	}
	e := &u.tlb[i]
	e.key, e.pa = key, pa
	e.prev = -1
	e.next = u.head
	if u.head >= 0 {
		u.tlb[u.head].prev = i
	}
	u.head = i
	if u.tail < 0 {
		u.tail = i
	}
	u.index[key] = i
}

// InvalidateAll flushes the IO-TLB.
func (u *IOMMU) InvalidateAll() {
	u.tlb = u.tlb[:0]
	clear(u.index)
	u.head, u.tail = -1, -1
}

// TLBOccupancy returns the number of valid IO-TLB entries.
func (u *IOMMU) TLBOccupancy() int { return len(u.tlb) }

// ResetStats zeroes the counters.
func (u *IOMMU) ResetStats() { u.Hits, u.Misses, u.Faults = 0, 0, 0 }
