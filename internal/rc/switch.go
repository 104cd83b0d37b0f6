package rc

import (
	"fmt"

	"pciebench/internal/dll"
	"pciebench/internal/pcie"
	"pciebench/internal/sim"
	"pciebench/internal/stats"
)

// SwitchConfig shapes a PCIe switch: N downstream ports funneled into
// one shared upstream link toward a socket's root port.
type SwitchConfig struct {
	// Uplink is the shared upstream link's configuration.
	Uplink pcie.LinkConfig
	// WireDelay is the uplink's propagation plus SerDes delay per
	// direction.
	WireDelay sim.Time
	// ForwardLatency is the per-TLP cut-through forwarding latency
	// (header decode plus crossbar transit; ~100-150ns on commodity
	// switches).
	ForwardLatency sim.Time
	// DrainLatency is how long after a TLP's arrival at the far side
	// its receiver buffer frees, returning flow-control credits.
	DrainLatency sim.Time
	// UpCredits bounds the up direction (toward the root port) per
	// dll pool; DownCredits bounds the down direction. A zero pool is
	// infinite.
	UpCredits   CreditLimits
	DownCredits CreditLimits
}

// CreditLimits carries the advertised dll credit pools of one link
// direction. A zero-valued pool means infinite (no flow-control stall),
// which is also what the PCIe spec mandates for endpoint completion
// buffers.
type CreditLimits struct {
	P   dll.Credits
	NP  dll.Credits
	Cpl dll.Credits
}

// pool returns the limit for one dll pool.
func (c CreditLimits) pool(ct dll.CreditType) dll.Credits {
	switch ct {
	case dll.Posted:
		return c.P
	case dll.NonPosted:
		return c.NP
	}
	return c.Cpl
}

// Validate checks that every finite pool can hold at least one
// maximum-sized TLP, so a single transfer can never stall forever.
func (c CreditLimits) Validate(mps int) error {
	for _, ct := range []dll.CreditType{dll.Posted, dll.NonPosted, dll.Completion} {
		lim := c.pool(ct)
		if lim == (dll.Credits{}) {
			continue
		}
		if lim.Hdr != dll.Infinite && lim.Hdr < 1 {
			return fmt.Errorf("rc: %v pool needs at least one header credit", ct)
		}
		if lim.Data != dll.Infinite && lim.Data < dll.DataCreditsFor(mps) {
			return fmt.Errorf("rc: %v pool's %d data credits cannot hold one %dB TLP", ct, lim.Data, mps)
		}
	}
	return nil
}

// Link directions through a switch.
const (
	dirUp = iota // toward the root port
	dirDown
	numDirs
)

// HopStats accumulates one downstream port's view of the shared uplink
// in one direction.
type HopStats struct {
	// TLPs and Bytes count traffic forwarded for the port.
	TLPs  uint64
	Bytes uint64
	// Wait accumulates arbitration plus flow-control delay: how long
	// TLPs sat eligible before the shared link served them. MaxWait is
	// the worst single TLP.
	Wait    sim.Time
	MaxWait sim.Time

	samples []float64 // per-TLP waits in ns, when sampling is enabled
}

// record adds one TLP's accounting.
func (h *HopStats) record(wire int, wait sim.Time, sampling bool) {
	h.TLPs++
	h.Bytes += uint64(wire)
	h.Wait += wait
	if wait > h.MaxWait {
		h.MaxWait = wait
	}
	if sampling {
		h.samples = append(h.samples, wait.Nanoseconds())
	}
}

// SwitchPortStats is one downstream port's uplink accounting.
type SwitchPortStats struct {
	Up   HopStats
	Down HopStats
	// P2PTLPs and P2PBytes count peer-to-peer traffic the switch
	// forwarded directly between its downstream ports, never touching
	// the uplink.
	P2PTLPs  uint64
	P2PBytes uint64
}

// fcRelease is one outstanding credit consumption awaiting its drain.
type fcRelease struct {
	at      sim.Time
	payload int
}

// fcWindow is one (direction, pool) flow-control window over the shared
// uplink, built from the internal/dll transmitter and receiver ledgers:
// forwarding a TLP consumes credits (dll.TxCredits.Consume) and records
// receiver occupancy (dll.RxCredits.Received); when the far side drains
// the TLP, the freed credits return via the cumulative UpdateFC
// advertisement exactly as on a real link. A TLP that finds the window
// exhausted stalls until enough earlier TLPs have drained — the
// deterministic virtual-clock form of flow-control backpressure.
type fcWindow struct {
	tx       *dll.TxCredits // nil = infinite pool, no accounting
	rx       *dll.RxCredits
	pool     dll.CreditType
	capacity dll.Credits
	pending  []fcRelease
	phead    int
}

// newFCWindow builds the window; a zero limit disables accounting.
func newFCWindow(pool dll.CreditType, limit dll.Credits) fcWindow {
	f := fcWindow{pool: pool, capacity: limit}
	if limit == (dll.Credits{}) {
		return f
	}
	inf := dll.Credits{Hdr: dll.Infinite, Data: dll.Infinite}
	lims := [3]dll.Credits{inf, inf, inf}
	lims[pool] = limit
	f.tx = dll.NewTxCredits(lims[0], lims[1], lims[2])
	f.rx = dll.NewRxCredits(lims[0], lims[1], lims[2])
	return f
}

// drainOne releases the oldest outstanding TLP's credits.
func (f *fcWindow) drainOne() {
	rel := f.pending[f.phead]
	f.phead++
	// Errors are impossible by construction: every pending entry was
	// Received exactly once.
	_ = f.rx.Drained(f.pool, rel.payload)
	f.tx.Update(f.pool, f.rx.UpdateFC(f.pool))
}

// ready gates one TLP of payload bytes wanting to transmit at time t:
// it returns the (possibly later) time at which credits allow it, with
// the credits consumed.
func (f *fcWindow) ready(t sim.Time, payload int) sim.Time {
	if f.tx == nil {
		return t
	}
	for f.phead < len(f.pending) && f.pending[f.phead].at <= t {
		f.drainOne()
	}
	for !f.tx.CanSend(f.pool, payload) && f.phead < len(f.pending) {
		if rel := f.pending[f.phead].at; rel > t {
			t = rel
		}
		f.drainOne()
	}
	// Validate guarantees a lone TLP always fits, so CanSend holds now.
	_ = f.tx.Consume(f.pool, payload)
	f.rx.Received(f.pool, payload)
	return t
}

// note records the TLP's future drain. Drain times on one serialized
// direction are almost always monotone; the insertion keeps the FIFO
// sorted for the rare unreserved-return exceptions. Under sustained
// traffic the queue never empties, so the drained head is reclaimed
// once it is at least half the slice: the queue stays bounded by the
// TLPs the pool holds outstanding instead of growing by one per TLP.
func (f *fcWindow) note(at sim.Time, payload int) {
	if f.tx == nil {
		return
	}
	if f.phead > 0 && 2*f.phead >= len(f.pending) {
		f.pending = f.pending[:copy(f.pending, f.pending[f.phead:])]
		f.phead = 0
	}
	f.pending = append(f.pending, fcRelease{at: at, payload: payload})
	for i := len(f.pending) - 1; i > f.phead && f.pending[i].at < f.pending[i-1].at; i-- {
		f.pending[i], f.pending[i-1] = f.pending[i-1], f.pending[i]
	}
}

// idle reports whether every consumed credit has been released once the
// clock passes every pending drain: receiver occupancy back to zero and
// the transmitter window reopened to the full advertised capacity.
// Anything else means credits leaked (or were double-released, which
// dll.RxCredits.Drained would have rejected).
func (f *fcWindow) idle() bool {
	if f.tx == nil {
		return true
	}
	for f.phead < len(f.pending) {
		f.drainOne()
	}
	if (f.rx.Pending(f.pool) != dll.Credits{}) {
		return false
	}
	return f.tx.Available(f.pool) == f.capacity
}

// Switch is a PCIe switch: downstream ports share one upstream link
// with per-TLP arbitration and dll flow-control credit windows.
//
// Arbitration is first-come-first-served per TLP in simulation-event
// order. Endpoints issue TLPs from closed control loops (bounded
// in-flight DMAs, refilled on completion events), so under sustained
// saturation the grant sequence degenerates to a deterministic
// round-robin rotation across the backlogged ports — the fairness the
// property tests pin. Forwarding is cut-through: a TLP's uplink
// serialization overlaps its downstream serialization, so an idle
// switch whose uplink matches the endpoint link adds only
// ForwardLatency (and a zero-latency same-speed switch is timing
// transparent, which the byte-identity tests assert).
type Switch struct {
	r     *RootComplex
	sock  *Socket
	index int
	cfg   SwitchConfig

	up   *sim.Server // shared uplink, toward the root port
	down *sim.Server // shared uplink, toward the endpoints

	fc [numDirs][3]fcWindow

	btLUT []sim.Time

	sampling bool
	pstats   []SwitchPortStats
}

// AddSwitch attaches a switch's uplink to the given socket.
func (r *RootComplex) AddSwitch(cfg SwitchConfig, sock *Socket) (*Switch, error) {
	if err := cfg.Uplink.Validate(); err != nil {
		return nil, err
	}
	if cfg.WireDelay < 0 || cfg.ForwardLatency < 0 || cfg.DrainLatency < 0 {
		return nil, fmt.Errorf("rc: switch delays must be >= 0")
	}
	if err := cfg.UpCredits.Validate(cfg.Uplink.MPS); err != nil {
		return nil, err
	}
	if err := cfg.DownCredits.Validate(cfg.Uplink.MPS); err != nil {
		return nil, err
	}
	if sock == nil {
		return nil, fmt.Errorf("rc: switch needs a socket")
	}
	sw := &Switch{
		r:     r,
		sock:  sock,
		index: len(r.switches),
		cfg:   cfg,
		up:    sim.NewServer(r.k),
		down:  sim.NewServer(r.k),
		btLUT: make([]sim.Time, cfg.Uplink.MPS+64+64),
	}
	for _, ct := range []dll.CreditType{dll.Posted, dll.NonPosted, dll.Completion} {
		sw.fc[dirUp][ct] = newFCWindow(ct, cfg.UpCredits.pool(ct))
		sw.fc[dirDown][ct] = newFCWindow(ct, cfg.DownCredits.pool(ct))
	}
	r.switches = append(r.switches, sw)
	return sw, nil
}

// addDownstream allocates one downstream port slot.
func (sw *Switch) addDownstream() int {
	sw.pstats = append(sw.pstats, SwitchPortStats{})
	return len(sw.pstats) - 1
}

// Config returns the switch configuration.
func (sw *Switch) Config() SwitchConfig { return sw.cfg }

// Socket returns the socket the uplink attaches to.
func (sw *Switch) Socket() *Socket { return sw.sock }

// Downstreams returns the number of attached downstream ports.
func (sw *Switch) Downstreams() int { return len(sw.pstats) }

// PortStats returns downstream port slot i's uplink accounting.
func (sw *Switch) PortStats(i int) *SwitchPortStats { return &sw.pstats[i] }

// EnableWaitSampling records every TLP's arbitration wait so callers
// can summarize per-hop latency percentiles. Off by default: sampling
// allocates.
func (sw *Switch) EnableWaitSampling() { sw.sampling = true }

// WaitSummary summarizes the recorded arbitration waits (in ns) of one
// direction across all downstream ports; ok is false when sampling was
// off or no TLPs crossed.
func (sw *Switch) WaitSummary(up bool) (stats.Summary, bool) {
	var all []float64
	for i := range sw.pstats {
		h := &sw.pstats[i].Up
		if !up {
			h = &sw.pstats[i].Down
		}
		all = append(all, h.samples...)
	}
	if len(all) == 0 {
		return stats.Summary{}, false
	}
	s, err := stats.Summarize(all)
	return s, err == nil
}

// UpUtilization returns the shared uplink's device->host utilization.
func (sw *Switch) UpUtilization() float64 { return sw.up.Utilization() }

// DownUtilization returns the shared uplink's host->device utilization.
func (sw *Switch) DownUtilization() float64 { return sw.down.Utilization() }

// FCIdle reports whether every flow-control pool has all credits
// returned after all pending drains elapse — the no-leak invariant the
// property tests check after arbitrary TLP sequences.
func (sw *Switch) FCIdle() bool {
	for d := 0; d < numDirs; d++ {
		for ct := 0; ct < 3; ct++ {
			if !sw.fc[d][ct].idle() {
				return false
			}
		}
	}
	return true
}

// bytesTime returns the serialization time of n wire bytes on the
// uplink, memoized like Port.bytesTime.
func (sw *Switch) bytesTime(n int) sim.Time {
	if n < len(sw.btLUT) {
		if v := sw.btLUT[n]; v != 0 {
			return v
		}
		v := sim.Time(sw.cfg.Uplink.BytesTime(n))
		sw.btLUT[n] = v
		return v
	}
	return sim.Time(sw.cfg.Uplink.BytesTime(n))
}

// forwardUp carries one TLP from downstream slot pi across the shared
// uplink toward the root port. ready is when the TLP's header is
// eligible at the switch egress (downstream arrival plus
// ForwardLatency); prevSer is its serialization time on the ingress
// link, which cut-through forwarding overlaps with the uplink's own
// serialization. Returns when the TLP finishes serializing on the
// uplink; its arrival at the root port is that plus the uplink
// WireDelay.
func (sw *Switch) forwardUp(pi int, ready, prevSer sim.Time, wire, payload int, pool dll.CreditType) sim.Time {
	d := sw.bytesTime(wire)
	overlap := d
	if prevSer < overlap {
		overlap = prevSer
	}
	eligible := ready - overlap
	s := sw.fc[dirUp][pool].ready(eligible, payload)
	done := sw.up.ScheduleAt(s, d)
	wait := done - d - eligible
	if wait < 0 {
		wait = 0
	}
	sw.pstats[pi].Up.record(wire, wait, sw.sampling)
	sw.fc[dirUp][pool].note(done+sw.cfg.WireDelay+sw.cfg.DrainLatency, payload)
	return done
}

// forwardDown carries one TLP from the root port across the shared
// uplink toward downstream slot pi, starting no earlier than at.
// Returns when the TLP finishes serializing on the uplink; the caller
// continues it onto the endpoint link (cut-through) and schedules the
// credit drain at delivery.
func (sw *Switch) forwardDown(pi int, at sim.Time, wire, payload int, pool dll.CreditType) sim.Time {
	d := sw.bytesTime(wire)
	s := sw.fc[dirDown][pool].ready(at, payload)
	done := sw.down.ScheduleAt(s, d)
	wait := done - d - at
	if wait < 0 {
		wait = 0
	}
	sw.pstats[pi].Down.record(wire, wait, sw.sampling)
	return done
}

// noteDrain schedules a credit release on one direction's pool.
func (sw *Switch) noteDrain(dir int, pool dll.CreditType, at sim.Time, payload int) {
	sw.fc[dir][pool].note(at, payload)
}
