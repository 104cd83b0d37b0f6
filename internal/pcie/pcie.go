// Package pcie defines PCI Express link configuration and the byte-level
// accounting constants used throughout pciebench.
//
// The package is the single source of truth for physical-layer rates,
// encoding overheads and protocol header sizes. Both the analytical model
// (internal/model) and the discrete-event simulator (internal/rc,
// internal/device) derive their wire-size arithmetic from here, so the two
// tiers can never disagree about how many bytes a transaction costs.
//
// Sizes follow the accounting used in §3 of the paper: a Memory Write TLP
// on a 64-bit system costs 24 B of header+framing overhead (2 B physical
// framing, 6 B data-link layer, 4 B TLP common header, 12 B request
// header), a Completion-with-Data costs 20 B, and a Memory Read request
// costs 24 B on the opposite direction of the link.
package pcie

import (
	"errors"
	"fmt"
)

// Generation enumerates PCI Express specification generations. Each
// generation fixes the per-lane signalling rate and line encoding.
type Generation int

// Supported link generations.
const (
	Gen1 Generation = 1 + iota
	Gen2
	Gen3
	Gen4
	Gen5
)

// String returns the conventional "GenN" spelling.
func (g Generation) String() string {
	if g < Gen1 || g > Gen5 {
		return fmt.Sprintf("Gen?(%d)", int(g))
	}
	return fmt.Sprintf("Gen%d", int(g))
}

// GTps returns the per-lane raw signalling rate in gigatransfers per
// second (equivalently, Gb/s before encoding overhead).
func (g Generation) GTps() float64 {
	switch g {
	case Gen1:
		return 2.5
	case Gen2:
		return 5.0
	case Gen3:
		return 8.0
	case Gen4:
		return 16.0
	case Gen5:
		return 32.0
	}
	return 0
}

// EncodingNum and EncodingDen describe the line coding as a payload/line
// ratio: Gen1/2 use 8b/10b, Gen3+ use 128b/130b.
func (g Generation) encoding() (num, den int) {
	switch g {
	case Gen1, Gen2:
		return 8, 10
	default:
		return 128, 130
	}
}

// LaneBitsPerSecond returns the usable (post-encoding) bit rate of a
// single lane.
func (g Generation) LaneBitsPerSecond() float64 {
	num, den := g.encoding()
	return g.GTps() * 1e9 * float64(num) / float64(den)
}

// Protocol header size accounting (bytes). See package comment.
const (
	// FramingBytes is the physical-layer framing per TLP (STP/END
	// tokens; the paper's model uses 2 B for all generations).
	FramingBytes = 2
	// DLLBytes is the data-link layer overhead per TLP: 2 B sequence
	// number plus 4 B LCRC.
	DLLBytes = 6
	// TLPCommonHeader is the first DW of every TLP header (fmt/type,
	// TC, attributes, length).
	TLPCommonHeader = 4
	// MemReqHeader64 is the remainder of a 4DW memory request header
	// (requester ID, tag, byte enables, 64-bit address).
	MemReqHeader64 = 12
	// MemReqHeader32 is the remainder of a 3DW memory request header.
	MemReqHeader32 = 8
	// CplHeader is the remainder of a completion header (completer ID,
	// status, byte count, requester ID, tag, lower address).
	CplHeader = 8
	// ECRCBytes is the optional end-to-end CRC digest.
	ECRCBytes = 4

	// CacheLineSize is the host cache line size assumed throughout.
	CacheLineSize = 64
)

// MWrHeaderBytes returns the total per-TLP overhead of a Memory Write:
// framing + DLL + TLP header for the given addressing width, plus the
// optional ECRC.
func MWrHeaderBytes(addr64, ecrc bool) int {
	n := FramingBytes + DLLBytes + TLPCommonHeader + MemReqHeader32
	if addr64 {
		n = FramingBytes + DLLBytes + TLPCommonHeader + MemReqHeader64
	}
	if ecrc {
		n += ECRCBytes
	}
	return n
}

// MRdHeaderBytes returns the total per-TLP overhead of a Memory Read
// request. Identical to a write header: the request carries no payload.
func MRdHeaderBytes(addr64, ecrc bool) int {
	return MWrHeaderBytes(addr64, ecrc)
}

// CplDHeaderBytes returns the total per-TLP overhead of a Completion with
// Data.
func CplDHeaderBytes(ecrc bool) int {
	n := FramingBytes + DLLBytes + TLPCommonHeader + CplHeader
	if ecrc {
		n += ECRCBytes
	}
	return n
}

// LinkConfig describes a negotiated PCIe link and the parameters that
// govern TLP sizing. The zero value is not valid; use Validate or
// DefaultGen3x8.
type LinkConfig struct {
	// Gen is the negotiated generation (signalling rate + encoding).
	Gen Generation
	// Lanes is the negotiated width (x1..x32).
	Lanes int
	// MPS is the Maximum Payload Size in bytes (128..4096, power of 2).
	MPS int
	// MRRS is the Maximum Read Request Size in bytes (128..4096).
	MRRS int
	// RCB is the Read Completion Boundary (64 or 128 bytes).
	RCB int
	// Addr64 selects 4DW (64-bit) memory request headers.
	Addr64 bool
	// ECRC enables the optional end-to-end CRC digest on every TLP.
	ECRC bool
	// DLLOverhead is the fraction of the physical-layer bandwidth
	// consumed by data-link layer traffic (flow control updates,
	// Ack/Nak DLLPs and the skip ordered sets). The paper derives
	// ~8-10% from the specification's recommended timers; 0.08 gives
	// the paper's 57.88 Gb/s TLP-layer figure for Gen3 x8.
	DLLOverhead float64
}

// DefaultGen3x8 returns the configuration used by the paper for all
// measurements: Gen 3, 8 lanes, MPS 256, MRRS 512, RCB 64, 64-bit
// addressing, no ECRC.
func DefaultGen3x8() LinkConfig {
	return LinkConfig{
		Gen:         Gen3,
		Lanes:       8,
		MPS:         256,
		MRRS:        512,
		RCB:         64,
		Addr64:      true,
		ECRC:        false,
		DLLOverhead: 0.08,
	}
}

// Errors returned by Validate.
var (
	ErrBadGeneration = errors.New("pcie: generation must be Gen1..Gen5")
	ErrBadLanes      = errors.New("pcie: lanes must be 1,2,4,8,16 or 32")
	ErrBadMPS        = errors.New("pcie: MPS must be a power of two in 128..4096")
	ErrBadMRRS       = errors.New("pcie: MRRS must be a power of two in 128..4096")
	ErrBadRCB        = errors.New("pcie: RCB must be 64 or 128")
	ErrBadOverhead   = errors.New("pcie: DLLOverhead must be in [0,0.5)")
)

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Validate reports whether the configuration is a legal PCIe link setup.
func (c LinkConfig) Validate() error {
	if c.Gen < Gen1 || c.Gen > Gen5 {
		return ErrBadGeneration
	}
	switch c.Lanes {
	case 1, 2, 4, 8, 16, 32:
	default:
		return ErrBadLanes
	}
	if !isPow2(c.MPS) || c.MPS < 128 || c.MPS > 4096 {
		return ErrBadMPS
	}
	if !isPow2(c.MRRS) || c.MRRS < 128 || c.MRRS > 4096 {
		return ErrBadMRRS
	}
	if c.RCB != 64 && c.RCB != 128 {
		return ErrBadRCB
	}
	if c.DLLOverhead < 0 || c.DLLOverhead >= 0.5 {
		return ErrBadOverhead
	}
	return nil
}

// String renders the configuration like "Gen3 x8 MPS=256 MRRS=512".
func (c LinkConfig) String() string {
	return fmt.Sprintf("%s x%d MPS=%d MRRS=%d RCB=%d", c.Gen, c.Lanes, c.MPS, c.MRRS, c.RCB)
}

// RawBandwidth returns the physical-layer bandwidth of the link in bits
// per second after line encoding: lanes x per-lane rate. For Gen3 x8 this
// is the paper's 62.96 Gb/s.
func (c LinkConfig) RawBandwidth() float64 {
	return float64(c.Lanes) * c.Gen.LaneBitsPerSecond()
}

// TLPBandwidth returns the bandwidth available to the transaction layer
// after subtracting the estimated data-link layer overhead. For the
// default Gen3 x8 configuration this is the paper's ~57.88 Gb/s.
func (c LinkConfig) TLPBandwidth() float64 {
	return c.RawBandwidth() * (1 - c.DLLOverhead)
}

// MWrTLPs returns how many Memory Write TLPs a DMA write of sz bytes
// generates (one per MPS chunk).
func (c LinkConfig) MWrTLPs(sz int) int {
	if sz <= 0 {
		return 0
	}
	return (sz + c.MPS - 1) / c.MPS
}

// MRdTLPs returns how many Memory Read request TLPs a DMA read of sz
// bytes generates (one per MRRS chunk).
func (c LinkConfig) MRdTLPs(sz int) int {
	if sz <= 0 {
		return 0
	}
	return (sz + c.MRRS - 1) / c.MRRS
}

// CplDTLPs returns how many Completion-with-Data TLPs carry the sz bytes
// of read data back. Completions cannot span requests, so each
// MRRS-sized request is answered in its own MPS chunks; RCB alignment
// can add more (see tlp.SplitCompletion for exact accounting).
func (c LinkConfig) CplDTLPs(sz int) int {
	if sz <= 0 {
		return 0
	}
	full, rem := sz/c.MRRS, sz%c.MRRS
	return full*((c.MRRS+c.MPS-1)/c.MPS) + (rem+c.MPS-1)/c.MPS
}

// WriteBytes returns the bytes placed on the device→host direction by a
// DMA write of sz bytes: per-TLP overhead plus payload (Equation 1).
func (c LinkConfig) WriteBytes(sz int) int {
	return c.MWrTLPs(sz)*MWrHeaderBytes(c.Addr64, c.ECRC) + sz
}

// ReadRequestBytes returns the bytes placed on the device→host direction
// by the MRd TLPs of a DMA read of sz bytes (Equation 2).
func (c LinkConfig) ReadRequestBytes(sz int) int {
	return c.MRdTLPs(sz) * MRdHeaderBytes(c.Addr64, c.ECRC)
}

// ReadCompletionBytes returns the bytes placed on the host→device
// direction by the completions of a DMA read of sz bytes (Equation 3).
func (c LinkConfig) ReadCompletionBytes(sz int) int {
	return c.CplDTLPs(sz)*CplDHeaderBytes(c.ECRC) + sz
}

// BytesTime converts a byte count on this link into the serialization
// time in picoseconds at the TLP-layer bandwidth.
func (c LinkConfig) BytesTime(n int) int64 {
	if n <= 0 {
		return 0
	}
	bits := float64(n) * 8
	sec := bits / c.TLPBandwidth()
	return int64(sec * 1e12)
}
