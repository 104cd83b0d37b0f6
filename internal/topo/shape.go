package topo

import (
	"fmt"
	"strconv"
	"strings"

	"pciebench/internal/dll"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
)

// Shape is the coarse topology selector the sweep engine and CLI
// expose: how many endpoints a system hosts, whether they share a
// switch uplink, and which socket(s) they attach to. sysconf expands a
// Shape against a Table-1 system's calibration into a full Spec.
type Shape struct {
	// Endpoints is the device count (0 and 1 both mean one).
	Endpoints int
	// Switch, when non-nil, funnels every endpoint through one switch
	// whose shared uplink has this link configuration.
	Switch *pcie.LinkConfig
	// Placement selects the socket(s) of directly attached endpoints:
	// "" or a socket index attaches all to that socket; "split"
	// round-robins endpoints across the system's sockets (requires a
	// multi-node system and no switch).
	Placement string
	// LocalBuffers homes each endpoint's DMA buffer on its own
	// socket's NUMA node instead of one shared node (overriding any
	// explicit buffer-node option). Besides modeling the NUMA-aware
	// driver layout, this decouples the endpoints' memory state, so a
	// split-socket fabric forms one island per socket (see islandsOf).
	LocalBuffers bool
}

// Degenerate reports whether the shape is the paper's single-device
// form, which must build byte-identically to the pre-topology code.
func (sh Shape) Degenerate() bool {
	return sh.Endpoints <= 1 && sh.Switch == nil && (sh.Placement == "" || sh.Placement == "0") &&
		!sh.LocalBuffers
}

// Count returns the endpoint count with the default applied.
func (sh Shape) Count() int {
	if sh.Endpoints <= 1 {
		return 1
	}
	return sh.Endpoints
}

// Validate checks the shape against a system with nodes NUMA nodes.
func (sh Shape) Validate(nodes int) error {
	if sh.Endpoints < 0 {
		return fmt.Errorf("topo: endpoint count %d", sh.Endpoints)
	}
	if sh.Endpoints > 64 {
		return fmt.Errorf("topo: endpoint count %d exceeds 64", sh.Endpoints)
	}
	switch sh.Placement {
	case "", "split":
		if sh.Placement == "split" {
			if nodes < 2 {
				return fmt.Errorf("topo: split placement needs a multi-socket system")
			}
			if sh.Switch != nil {
				return fmt.Errorf("topo: split placement requires direct attachment, not a switch")
			}
		}
	default:
		n, err := strconv.Atoi(sh.Placement)
		if err != nil || n < 0 {
			return fmt.Errorf("topo: placement %q (want a socket index or \"split\")", sh.Placement)
		}
		if n >= nodes {
			return fmt.Errorf("topo: socket %d outside the %d-socket system", n, nodes)
		}
	}
	return nil
}

// SocketOf returns the socket index endpoint i attaches to (or, below
// a switch, the socket the switch uplink uses).
func (sh Shape) SocketOf(i, nodes int) int {
	switch sh.Placement {
	case "":
		return 0
	case "split":
		return i % nodes
	default:
		n, _ := strconv.Atoi(sh.Placement)
		return n
	}
}

// ParseSwitch parses a sweep/CLI switch selector: "none"/"off" mean no
// switch; "on"/"default" the paper's Gen3 x8 uplink; "gen<G>x<L>"
// (e.g. "gen3x8", "gen4x16") a specific uplink generation and width.
func ParseSwitch(v string) (*pcie.LinkConfig, error) {
	s := strings.ToLower(strings.TrimSpace(v))
	switch s {
	case "none", "off", "false", "no":
		return nil, nil
	case "on", "default", "true", "yes":
		l := pcie.DefaultGen3x8()
		return &l, nil
	}
	rest, ok := strings.CutPrefix(s, "gen")
	if !ok {
		return nil, fmt.Errorf("topo: switch %q (want none, on, or gen<G>x<L>)", v)
	}
	genStr, laneStr, ok := strings.Cut(rest, "x")
	if !ok {
		return nil, fmt.Errorf("topo: switch %q (want none, on, or gen<G>x<L>)", v)
	}
	gen, err1 := strconv.Atoi(genStr)
	lanes, err2 := strconv.Atoi(laneStr)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("topo: switch %q (want none, on, or gen<G>x<L>)", v)
	}
	l := pcie.DefaultGen3x8()
	l.Gen = pcie.Generation(gen)
	l.Lanes = lanes
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("topo: switch %q: %w", v, err)
	}
	return &l, nil
}

// Default switch timing: commodity PCIe switches forward TLPs
// cut-through in ~150 ns port to port, with short uplink traces and
// receiver buffers that drain within tens of nanoseconds.
const (
	DefaultSwitchForwardLatency = 150 * sim.Nanosecond
	DefaultSwitchWireDelay      = 25 * sim.Nanosecond
	DefaultSwitchDrainLatency   = 50 * sim.Nanosecond
)

// DefaultSwitch returns a SwitchSpec with the default forwarding
// timing and flow-control windows for the given shared uplink.
func DefaultSwitch(uplink pcie.LinkConfig, socket int) SwitchSpec {
	return SwitchSpec{
		Socket:         socket,
		Uplink:         uplink,
		WireDelay:      DefaultSwitchWireDelay,
		ForwardLatency: DefaultSwitchForwardLatency,
		DrainLatency:   DefaultSwitchDrainLatency,
		UpCredits:      DefaultUpCredits(),
		DownCredits:    DefaultDownCredits(),
	}
}

// DefaultUpCredits is a root-port-class receiver advertisement toward
// the switch: 64 posted headers with 16 KB of posted data, 64
// non-posted headers, infinite completions (the transmitter is the
// switch; completions flow the other way).
func DefaultUpCredits() rc.CreditLimits {
	return rc.CreditLimits{
		P:  dll.Credits{Hdr: 64, Data: 1024},
		NP: dll.Credits{Hdr: 64, Data: dll.Infinite},
	}
}

// DefaultDownCredits is the endpoint-facing direction: endpoints must
// advertise infinite completion credits per the PCIe spec; host MMIO
// requests get modest posted/non-posted windows.
func DefaultDownCredits() rc.CreditLimits {
	return rc.CreditLimits{
		P:  dll.Credits{Hdr: 32, Data: 512},
		NP: dll.Credits{Hdr: 32, Data: dll.Infinite},
	}
}
