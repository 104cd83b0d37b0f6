// Package topo describes and assembles composable PCIe topologies: the
// sockets, switches and endpoints of a host, wired into a runnable
// fabric of simulator components.
//
// The paper measures one adapter on one link into one root-complex
// port. Its NUMA results (§6.4) and its host-interface bottleneck
// analysis only generalize if the simulator can express *topologies*:
// several endpoints contending for a shared upstream link, multi-socket
// hosts routing DMA across the inter-socket interconnect, and
// SmartNIC-style peer-to-peer transfers between devices. A Spec is the
// declarative description of such a machine; Build turns it into a
// Fabric — one simulation kernel, one memory system, a multi-port
// internal/rc router, and one DMA engine plus host buffer per
// endpoint.
//
// The degenerate one-socket, one-endpoint, no-switch Spec reproduces
// the paper's Table-1 systems exactly: internal/sysconf builds those
// systems through this package, and the byte-identity tests pin the
// equivalence.
package topo

import (
	"fmt"
	"strings"

	"pciebench/internal/device"
	"pciebench/internal/fault"
	"pciebench/internal/hostif"
	"pciebench/internal/iommu"
	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

// DirectAttach marks an endpoint as plugged straight into its socket's
// root port rather than below a switch.
const DirectAttach = -1

// SocketSpec calibrates one CPU socket: its root-complex pipeline and
// the NUMA node its memory controller owns.
type SocketSpec struct {
	Node        int
	PipeLatency sim.Time
	PipeSlots   int
	Jitter      rc.Jitter
}

// SwitchSpec describes a PCIe switch: the socket its shared uplink
// plugs into and the uplink's timing and flow-control parameters.
type SwitchSpec struct {
	Socket         int
	Uplink         pcie.LinkConfig
	WireDelay      sim.Time
	ForwardLatency sim.Time
	DrainLatency   sim.Time
	UpCredits      rc.CreditLimits
	DownCredits    rc.CreditLimits
}

// BARSpec sizes an endpoint's device-memory window for peer-to-peer
// DMA and calibrates its internal access costs.
type BARSpec struct {
	// Size is the window size in bytes; Build assigns the bus address.
	Size int
	// ReadLatency/WriteLatency/PSPerByte are the device-internal access
	// costs (see rc.BARConfig).
	ReadLatency  sim.Time
	WriteLatency sim.Time
	PSPerByte    int64
}

// EndpointSpec describes one device: its engine parameterization, its
// link, where it attaches, and its host DMA buffer.
type EndpointSpec struct {
	// Name labels the endpoint in results.
	Name string
	// Device parameterizes the DMA engine (e.g. nfp.Config()).
	Device device.Config
	// Link and WireDelay shape the endpoint's own link (to the root
	// port, or to its switch's downstream port).
	Link      pcie.LinkConfig
	WireDelay sim.Time
	// Switch is the index of the switch the endpoint sits below, or
	// DirectAttach (-1).
	Switch int
	// Socket is the socket of a directly attached endpoint (ignored
	// below a switch: the switch's socket wins).
	Socket int
	// BufferBytes sizes the endpoint's host DMA buffer; BufferNode
	// selects its NUMA node; AllocMode its allocation strategy; MapPage
	// its IOMMU page granularity (0 = the allocation's natural size).
	BufferBytes int
	BufferNode  int
	AllocMode   hostif.AllocMode
	MapPage     int
	// BAR optionally exposes a device-memory window for peer-to-peer
	// DMA from other endpoints.
	BAR *BARSpec
}

// IOMMU scope values (Spec.IOMMUScope).
const (
	// IOMMUScopeGlobal is the historical single-unit form: one
	// translation unit (IO-TLB + walker pool) on every DMA path,
	// whatever socket ingests the traffic. The empty scope means the
	// same thing.
	IOMMUScopeGlobal = "global"
	// IOMMUScopePerSocket models VT-d's multiple DRHD units: each
	// socket's root ports translate through a unit of their own, with
	// its own IO-TLB, walker pool and Hits/Misses/Faults counters.
	// Endpoints ingressing at different sockets then share no
	// translation state.
	IOMMUScopePerSocket = "per-socket"
)

// ParseIOMMUScope canonicalizes an IOMMU scope string ("" and "global"
// both mean the global single-unit scope).
func ParseIOMMUScope(v string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", IOMMUScopeGlobal:
		return IOMMUScopeGlobal, nil
	case IOMMUScopePerSocket:
		return IOMMUScopePerSocket, nil
	}
	return "", fmt.Errorf("topo: unknown IOMMU scope %q (want %s or %s)", v, IOMMUScopeGlobal, IOMMUScopePerSocket)
}

// Spec is a complete topology description.
type Spec struct {
	// Seed drives all simulation randomness (0 uses 1).
	Seed int64
	// Mem calibrates the (shared) memory system; its Nodes count must
	// cover every socket's Node.
	Mem mem.Config
	// IOMMU, when non-nil, interposes an IOMMU in every DMA path.
	IOMMU *iommu.Config
	// IOMMUScope selects how many translation units serve the fabric
	// when IOMMU is non-nil: IOMMUScopeGlobal ("" or "global", the
	// default) builds one unit shared by every socket;
	// IOMMUScopePerSocket builds one unit per socket.
	IOMMUScope string
	// Interconnect, when non-nil, models explicit inter-socket
	// bandwidth contention on top of the memory system's RemoteLatency.
	Interconnect *rc.InterconnectConfig
	Sockets      []SocketSpec
	Switches     []SwitchSpec
	Endpoints    []EndpointSpec
	// Faults, when enabled, arms deterministic fault injection on
	// every endpoint: BER-driven link corruption/replay, completion
	// timeouts, and retrain events (see internal/fault). Streams are
	// keyed by (spec seed, endpoint index, fault class), so one
	// endpoint's faults do not depend on any other's traffic. Nil or
	// all-zero installs nothing at all.
	Faults *fault.Config
}

// Validate reports structural errors: missing pieces and out-of-range
// references.
func (s Spec) Validate() error {
	if len(s.Sockets) == 0 {
		return fmt.Errorf("topo: spec needs at least one socket")
	}
	if len(s.Endpoints) == 0 {
		return fmt.Errorf("topo: spec needs at least one endpoint")
	}
	for i, sock := range s.Sockets {
		if sock.Node < 0 || sock.Node >= s.Mem.Nodes {
			return fmt.Errorf("topo: socket %d's node %d outside the %d-node memory system", i, sock.Node, s.Mem.Nodes)
		}
	}
	for i, sw := range s.Switches {
		if sw.Socket < 0 || sw.Socket >= len(s.Sockets) {
			return fmt.Errorf("topo: switch %d references socket %d of %d", i, sw.Socket, len(s.Sockets))
		}
	}
	for i, ep := range s.Endpoints {
		if ep.Switch != DirectAttach && (ep.Switch < 0 || ep.Switch >= len(s.Switches)) {
			return fmt.Errorf("topo: endpoint %d references switch %d of %d", i, ep.Switch, len(s.Switches))
		}
		if ep.Switch == DirectAttach && (ep.Socket < 0 || ep.Socket >= len(s.Sockets)) {
			return fmt.Errorf("topo: endpoint %d references socket %d of %d", i, ep.Socket, len(s.Sockets))
		}
		if ep.BufferNode < 0 || ep.BufferNode >= s.Mem.Nodes {
			return fmt.Errorf("topo: endpoint %d's buffer node %d outside the %d-node memory system", i, ep.BufferNode, s.Mem.Nodes)
		}
	}
	if _, err := ParseIOMMUScope(s.IOMMUScope); err != nil {
		return err
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("topo: %w", err)
	}
	return nil
}

// perSocketIOMMU reports whether the spec builds one translation unit
// per socket (only meaningful when an IOMMU is configured at all).
func (s Spec) perSocketIOMMU() bool {
	return s.IOMMU != nil && s.IOMMUScope == IOMMUScopePerSocket
}

// Endpoint is one assembled device: its fabric port, DMA engine and
// host buffer.
type Endpoint struct {
	Name   string
	Port   *rc.Port
	Engine *device.Engine
	Buffer *hostif.Buffer
	// Faults is the endpoint's AER-style counter block, shared by its
	// port and engine; nil when fault injection is disabled.
	Faults *fault.Counters
}

// Fabric is an assembled topology, ready to run benchmarks and
// workloads on every endpoint concurrently: every endpoint shares the
// one event kernel and the one root complex.
type Fabric struct {
	Spec   Spec
	Kernel *sim.Kernel
	Mem    *mem.System
	// IOMMU is the fabric-wide translation unit (global scope); nil
	// when the IOMMU is disabled or scoped per socket.
	IOMMU *iommu.IOMMU
	// IOMMUs holds the per-socket translation units, indexed by socket
	// (IOMMUScopePerSocket only; nil otherwise).
	IOMMUs    []*iommu.IOMMU
	Host      *hostif.Host
	RC        *rc.RootComplex
	Switches  []*rc.Switch
	Endpoints []*Endpoint

	// Deprecated: Kernels is always {Kernel}; use Kernel.
	Kernels []*sim.Kernel
	// Deprecated: Routers is always {RC}; use RC.
	Routers []*rc.RootComplex
}

// EndpointKernel returns the fabric's kernel.
//
// Deprecated: every endpoint runs on Kernel; use it directly.
func (f *Fabric) EndpointKernel(int) *sim.Kernel { return f.Kernel }

// IOMMUUnits returns every translation unit of the fabric: the single
// global-scope unit, or the per-socket units in socket order. Empty
// when the IOMMU is disabled.
func (f *Fabric) IOMMUUnits() []*iommu.IOMMU {
	if f.IOMMUs != nil {
		return f.IOMMUs
	}
	if f.IOMMU != nil {
		return []*iommu.IOMMU{f.IOMMU}
	}
	return nil
}

// iommuFor returns the unit translating DMA ingested at the given
// socket: its per-socket unit under per-socket scope, the global unit
// otherwise (nil when the IOMMU is disabled).
func (f *Fabric) iommuFor(sock int) *iommu.IOMMU {
	if f.IOMMUs != nil {
		return f.IOMMUs[sock]
	}
	return f.IOMMU
}

// barBase is where Build places auto-assigned BAR windows: far above
// both the hostif physical-address layout and its IOVA range, so
// device windows can never shadow host buffers.
const barBase = uint64(1) << 45

// barStride spaces consecutive BAR windows (8 GB, comfortably above
// any plausible device memory size).
const barStride = uint64(8) << 30

// addEndpoint assembles endpoint i of the spec and appends it to the
// fabric: port, optional BAR window (its bus address derives from the
// endpoint index), DMA engine and host buffer.
func addEndpoint(f *Fabric, i int, es EndpointSpec, sock *rc.Socket, sw *rc.Switch) error {
	port, err := f.RC.AddPort(rc.PortConfig{Link: es.Link, WireDelay: es.WireDelay}, sock, sw)
	if err != nil {
		return fmt.Errorf("topo: endpoint %d: %w", i, err)
	}
	if es.BAR != nil {
		if err := port.SetBAR(rc.BARConfig{
			Base: barBase + uint64(i)*barStride, Size: es.BAR.Size,
			ReadLatency: es.BAR.ReadLatency, WriteLatency: es.BAR.WriteLatency,
			PSPerByte: es.BAR.PSPerByte,
		}); err != nil {
			return fmt.Errorf("topo: endpoint %d: %w", i, err)
		}
	}
	eng, err := device.New(f.Kernel, port, es.Device)
	if err != nil {
		return fmt.Errorf("topo: endpoint %d: %w", i, err)
	}
	// The buffer maps into the unit of the socket whose root ports will
	// ingest this endpoint's DMA; all units share one IOVA allocator,
	// so the address layout is identical under either scope.
	buf, err := f.Host.AllocIn(f.iommuFor(f.Spec.socketOf(i)), es.BufferBytes, es.BufferNode, es.AllocMode, es.MapPage)
	if err != nil {
		return fmt.Errorf("topo: endpoint %d: %w", i, err)
	}
	name := es.Name
	if name == "" {
		name = fmt.Sprintf("ep%d", i)
	}
	ep := &Endpoint{Name: name, Port: port, Engine: eng, Buffer: buf}
	if f.Spec.Faults.Enabled() {
		seed := f.Spec.Seed
		if seed == 0 {
			seed = 1
		}
		fc := f.Spec.Faults.WithDefaults()
		ep.Faults = &fault.Counters{}
		port.InstallFaults(fc,
			fault.NewStream(seed, i, fault.ClassLink),
			fault.NewStream(seed, i, fault.ClassRetrain),
			ep.Faults)
		eng.SetFaults(fc, ep.Faults)
	}
	f.Endpoints = append(f.Endpoints, ep)
	return nil
}

// Build assembles the fabric on one event kernel and one root complex.
// Construction mirrors the original single-device assembly exactly for
// degenerate specs (one socket, one directly attached endpoint): same
// component order, no randomness consumed, so results are
// byte-identical to the pre-topology code. Sockets draw root-complex
// jitter from the streams socketRNGs assigns.
func Build(spec Spec) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	k := sim.New(seed)
	ms, err := mem.NewSystem(spec.Mem)
	if err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	var mmu *iommu.IOMMU
	var units []*iommu.IOMMU
	if spec.IOMMU != nil {
		if spec.perSocketIOMMU() {
			units = make([]*iommu.IOMMU, len(spec.Sockets))
			for i := range units {
				units[i] = iommu.New(k, *spec.IOMMU)
			}
		} else {
			mmu = iommu.New(k, *spec.IOMMU)
		}
	}
	host := hostif.New(ms, mmu)
	for _, u := range units {
		host.AttachIOMMU(u)
	}
	router := rc.NewRouter(k, ms, mmu, host)
	if spec.Interconnect != nil {
		router.SetInterconnect(*spec.Interconnect)
	}

	sockRNG := socketRNGs(spec, seed)
	sockets := make([]*rc.Socket, len(spec.Sockets))
	for i, sc := range spec.Sockets {
		sockets[i], err = router.AddSocket(rc.SocketConfig{
			Node: sc.Node, PipeLatency: sc.PipeLatency, PipeSlots: sc.PipeSlots,
			Jitter: sc.Jitter, RNG: sockRNG[i], IOMMU: unitAt(units, i),
		})
		if err != nil {
			return nil, fmt.Errorf("topo: socket %d: %w", i, err)
		}
	}
	switches := make([]*rc.Switch, len(spec.Switches))
	for i, sw := range spec.Switches {
		switches[i], err = router.AddSwitch(rc.SwitchConfig{
			Uplink: sw.Uplink, WireDelay: sw.WireDelay,
			ForwardLatency: sw.ForwardLatency, DrainLatency: sw.DrainLatency,
			UpCredits: sw.UpCredits, DownCredits: sw.DownCredits,
		}, sockets[sw.Socket])
		if err != nil {
			return nil, fmt.Errorf("topo: switch %d: %w", i, err)
		}
	}

	f := &Fabric{
		Spec: spec, Kernel: k, Mem: ms, IOMMU: mmu, IOMMUs: units, Host: host,
		RC: router, Switches: switches,
		Kernels: []*sim.Kernel{k}, Routers: []*rc.RootComplex{router},
	}
	for i, es := range spec.Endpoints {
		var sw *rc.Switch
		var sock *rc.Socket
		if es.Switch == DirectAttach {
			sock = sockets[es.Socket]
		} else {
			sw = switches[es.Switch]
		}
		if err := addEndpoint(f, i, es, sock, sw); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// unitAt returns the per-socket unit for socket i, or nil when the
// fabric has no per-socket units.
func unitAt(units []*iommu.IOMMU, i int) *iommu.IOMMU {
	if units == nil {
		return nil
	}
	return units[i]
}

// BARAddr returns the bus address of byte off inside endpoint ep's BAR
// window — the address a peer device DMAs to for a device-to-device
// transfer.
func (f *Fabric) BARAddr(ep, off int) (uint64, error) {
	bar := f.Endpoints[ep].Port.BAR()
	if bar == nil {
		return 0, fmt.Errorf("topo: endpoint %d has no BAR window", ep)
	}
	if off < 0 || off >= bar.Size {
		return 0, fmt.Errorf("topo: offset %d outside endpoint %d's %dB BAR", off, ep, bar.Size)
	}
	return bar.Base + uint64(off), nil
}
