package topo

import (
	"errors"
	"fmt"

	"pciebench/internal/device"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
	"pciebench/internal/stats"
)

// P2P transfer modes.
const (
	// P2PDirect DMAs straight from endpoint 0 into endpoint 1's BAR
	// window — the SmartNIC-style device-to-device path ("In-Network
	// Memory Access" builds entirely on it).
	P2PDirect = "direct"
	// P2PBounce stages the transfer through host DRAM: endpoint 0
	// writes a host buffer, endpoint 1 reads it back out — what hosts
	// without peer routing (or with ACS forcing root-complex bounces)
	// must do. Every payload byte crosses the host interface twice.
	P2PBounce = "bounce"
)

// P2PResult is the outcome of a device-to-device transfer benchmark.
type P2PResult struct {
	Mode     string
	Transfer int
	Samples  int
	// Latency summarizes per-transfer delivery latency in ns: from
	// submission at the source device to the data landing in the
	// destination device (direct) or staged out of host DRAM (bounce).
	Latency stats.Summary
	// Gbps is the delivered payload bandwidth of the saturating phase.
	Gbps float64
	// UplinkWait, when the fabric has a sampling-enabled switch,
	// summarizes the shared-uplink arbitration wait per TLP in ns.
	UplinkWait *stats.Summary
}

// p2pStride spaces consecutive in-flight transfers so they do not
// collide on one cache line / device word.
func p2pStride(transfer int) int {
	s := (transfer + pcie.CacheLineSize - 1) / pcie.CacheLineSize * pcie.CacheLineSize
	if s == 0 {
		s = pcie.CacheLineSize
	}
	return s
}

// launchEvent opens the saturating phase: at its start it launches
// as many independent transfer chains as its first argument says.
type launchEvent struct{ launch func() }

func (e launchEvent) Handle(_ *sim.Kernel, chains, _ int64) {
	for i := int64(0); i < chains; i++ {
		e.launch()
	}
}

// RunP2P benchmarks a device-to-device transfer of the given size
// between the fabric's first two endpoints: a dependent-transfer phase
// for latency percentiles, then a saturating phase for bandwidth. Mode
// selects the direct peer path or the bounce through host DRAM.
func RunP2P(f *Fabric, mode string, transfer, n int) (*P2PResult, error) {
	if len(f.Endpoints) < 2 {
		return nil, fmt.Errorf("topo: p2p needs 2 endpoints, fabric has %d", len(f.Endpoints))
	}
	if transfer <= 0 {
		return nil, fmt.Errorf("topo: p2p transfer size %d", transfer)
	}
	if n <= 0 {
		return nil, fmt.Errorf("topo: p2p sample count %d", n)
	}
	if mode != P2PDirect && mode != P2PBounce {
		return nil, fmt.Errorf("topo: p2p mode %q (want %s or %s)", mode, P2PDirect, P2PBounce)
	}
	src, dst := f.Endpoints[0], f.Endpoints[1]
	stride := p2pStride(transfer)
	// Window of addresses the transfers rotate over: bounded by the
	// destination BAR (direct) or a 1MB host staging region (bounce).
	slots := 64
	var addr func(i int) uint64
	if mode == P2PDirect {
		bar := dst.Port.BAR()
		if bar == nil {
			return nil, fmt.Errorf("topo: endpoint %s has no BAR window for p2p", dst.Name)
		}
		if max := bar.Size / stride; slots > max {
			slots = max
		}
		if slots < 1 {
			return nil, fmt.Errorf("topo: %dB transfer does not fit endpoint %s's %dB BAR", transfer, dst.Name, bar.Size)
		}
		base := bar.Base
		addr = func(i int) uint64 { return base + uint64(i%slots)*uint64(stride) }
	} else {
		region := 1 << 20
		if region > src.Buffer.Size {
			region = src.Buffer.Size
		}
		if max := region / stride; slots > max {
			slots = max
		}
		if slots < 1 {
			return nil, fmt.Errorf("topo: %dB transfer does not fit the host staging region", transfer)
		}
		src.Buffer.WarmHost(0, slots*stride)
		addr = func(i int) uint64 { return src.Buffer.DMAAddr((i % slots) * stride) }
	}

	warm := n / 20
	if warm > 100 {
		warm = 100
	}
	if warm < 8 {
		warm = 8
	}
	res := &P2PResult{Mode: mode, Transfer: transfer, Samples: n}

	// Phase 1 — dependent transfers for the latency distribution. Each
	// transfer starts a fixed gap after the previous one's delivery,
	// like the paper's latency firmware.
	const gap = 50 * sim.Nanosecond
	k := f.Kernel
	samples := make([]float64, 0, n)
	for i := 0; i < warm+n; i++ {
		a := addr(i)
		w, ok := src.Engine.SubmitNow(device.Op{Write: true, DMA: a, Size: transfer})
		if !ok {
			return nil, errors.New("topo: source engine busy in p2p latency phase")
		}
		if w.Err != nil {
			return nil, w.Err
		}
		delivered := w.MemVisible
		start := w.Submitted
		if mode == P2PBounce {
			r, ok := dst.Engine.SubmitNow(device.Op{DMA: a, Size: transfer, OrderAfter: w.MemVisible})
			if !ok {
				return nil, errors.New("topo: destination engine busy in p2p latency phase")
			}
			if r.Err != nil {
				return nil, r.Err
			}
			delivered = r.Done
		}
		if i >= warm {
			samples = append(samples, (delivered - start).Nanoseconds())
		}
		k.RunUntil(delivered + gap)
	}
	var err error
	res.Latency, err = stats.Summarize(samples)
	if err != nil {
		return nil, err
	}

	// Phase 2 — saturation for bandwidth: a window of independent
	// transfer chains, each resubmitting on completion.
	window := src.Engine.Config().MaxInFlight
	if mode == P2PBounce {
		if w := dst.Engine.Config().MaxInFlight; w < window {
			window = w
		}
	}
	if window > slots {
		window = slots
	}
	total := warm + n
	var (
		issued, completed    int
		measureFrom, measure sim.Time
		rerr                 error
	)
	var launch func()
	finish := func(c device.Completion) {
		if c.Err != nil && rerr == nil {
			rerr = c.Err
		}
		completed++
		if completed == warm {
			measureFrom = k.Now()
		}
		if completed == total {
			measure = k.Now()
		}
		launch()
	}
	launch = func() {
		if issued >= total || rerr != nil {
			return
		}
		a := addr(issued)
		issued++
		if mode == P2PDirect {
			src.Engine.Submit(device.Op{Write: true, DMA: a, Size: transfer, OnDone: finish})
			return
		}
		src.Engine.Submit(device.Op{Write: true, DMA: a, Size: transfer, OnDone: func(c device.Completion) {
			if c.Err != nil {
				if rerr == nil {
					rerr = c.Err
				}
				return
			}
			dst.Engine.Submit(device.Op{DMA: a, Size: transfer, OrderAfter: c.MemVisible, OnDone: finish})
		}})
	}
	k.AfterEvent(0, launchEvent{launch}, int64(min(window, total)), 0)
	k.Run()
	if rerr != nil {
		return nil, rerr
	}
	if measure <= measureFrom {
		return nil, errors.New("topo: degenerate p2p measurement span")
	}
	res.Gbps = float64(n) * float64(transfer) * 8 / (measure - measureFrom).Seconds() / 1e9

	for _, sw := range f.Switches {
		if s, ok := sw.WaitSummary(true); ok {
			res.UplinkWait = &s
			break
		}
	}
	return res, nil
}
