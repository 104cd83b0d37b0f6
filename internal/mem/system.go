package mem

import (
	"fmt"

	"pciebench/internal/sim"
)

// Config describes the host memory system of a (possibly multi-socket)
// server.
type Config struct {
	// Nodes is the number of NUMA nodes (1 or 2 in the paper's testbed).
	Nodes int
	// Cache configures each node's LLC.
	Cache CacheConfig
	// LLCLatency is the latency of a device access serviced by the LLC.
	LLCLatency sim.Time
	// DRAMLatency is the latency of a device access serviced by DRAM.
	// The paper's §6.3 measurements put DRAM ~70 ns above the LLC.
	DRAMLatency sim.Time
	// RemoteLatency is the extra interconnect (QPI/UPI) latency added
	// to accesses homed on the other socket (~100 ns, §6.4).
	RemoteLatency sim.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.Nodes > 8 {
		return fmt.Errorf("mem: nodes must be 1..8, got %d", c.Nodes)
	}
	if c.Cache.SizeBytes <= 0 {
		return fmt.Errorf("mem: cache size must be positive")
	}
	if c.DRAMLatency < c.LLCLatency {
		return fmt.Errorf("mem: DRAM latency %v below LLC latency %v", c.DRAMLatency, c.LLCLatency)
	}
	return nil
}

// System is the memory system: one LLC per node plus DRAM and the
// socket interconnect. The PCIe device is attached (via its root
// complex) to node 0; DDIO write allocations land in node 0's LLC when
// the buffer is local, or the remote node's LLC otherwise (the remote
// socket's home agent owns the line).
type System struct {
	cfg   Config
	nodes []*Cache
}

// NewSystem builds the memory system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, NewCache(cfg.Cache))
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Node returns the LLC of one node (for warming, inspection, tests).
func (s *System) Node(i int) *Cache { return s.nodes[i] }

// Access is the interface the root complex uses: a device-initiated
// read or write of size bytes at addr, homed on NUMA node home. The
// device is attached to node 0. The returned latency covers the memory
// subsystem only (cache/DRAM plus interconnect); link serialization and
// root-complex processing are accounted by the caller.
//
// Multi-line transfers touch every covered line for cache-state
// purposes; their latency is the worst line latency, since the root
// complex issues the line fetches in parallel and the paper's
// size-dependent costs are serialization, which the caller models.
func (s *System) Access(write bool, home int, addr uint64, size int) sim.Time {
	return s.AccessFrom(write, 0, home, addr, size)
}

// AccessFrom generalizes Access to a device attached to NUMA node from:
// the remote-interconnect penalty applies when the target's home node
// differs from the device's, not just when it differs from node 0. The
// multi-socket topology layer routes each port's traffic through its
// own socket with this; Access remains the node-0 special case.
func (s *System) AccessFrom(write bool, from, home int, addr uint64, size int) sim.Time {
	if home < 0 || home >= len(s.nodes) {
		home = 0
	}
	// DRAMLatency >= LLCLatency (Validate), so the worst line is DRAM
	// as soon as any line had to be fetched.
	lat := s.cfg.LLCLatency
	if s.nodes[home].deviceSpan(write, addr, size) {
		lat = s.cfg.DRAMLatency
	}
	if home != from {
		lat += s.cfg.RemoteLatency
	}
	return lat
}

// WarmHost writes the byte ranges spans, in order, from the CPU on the
// given node, bringing them into that node's LLC (dirty), as the
// paper's "host warm" control does. Passing a buffer's physically
// contiguous pieces in one call lets a cold LLC take its closed-form
// warm (see Cache.WarmHost).
func (s *System) WarmHost(node int, spans []Span) {
	if node < 0 || node >= len(s.nodes) {
		node = 0
	}
	s.nodes[node].WarmHost(spans)
}

// WarmDevice issues device writes over the range, loading it through the
// DDIO allocation path ("device warm").
func (s *System) WarmDevice(node int, addr uint64, size int) {
	if node < 0 || node >= len(s.nodes) {
		node = 0
	}
	if size > 0 {
		s.nodes[node].deviceSpan(true, addr, size)
	}
}

// Thrash resets every node's LLC to a cold state.
func (s *System) Thrash() {
	for _, n := range s.nodes {
		n.Thrash()
	}
}
