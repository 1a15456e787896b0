package bus

import (
	"fmt"
	"strings"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// CrossbarConfig describes an AXI-like burst-based crossbar: every master
// owns an independent request/response channel pair, slaves are address
// interleaved banks of the memory-side target, and any master↔slave route
// that does not conflict with another active route proceeds in parallel.
type CrossbarConfig struct {
	WidthBits int       // per-route data width
	Clock     sim.Clock // fabric clock domain
	// Slaves is the number of address-interleaved slave ports (parallel
	// routes to the memory side). Defaults to 4.
	Slaves int
	// BurstBeats caps the data beats a route carries per burst before the
	// slave re-arbitrates (AXI burst length). Long transfers are split into
	// bursts so other masters can interleave on a shared slave. Defaults
	// to 16.
	BurstBeats int
}

func (c CrossbarConfig) widthBytes() uint32 { return uint32(c.WidthBits / 8) }

// xreq is a crossbar transaction. Unlike the bus's request it carries a
// burst cursor (sent) because a transfer releases its route between bursts.
type xreq struct {
	addr   uint64
	bytes  uint32 // total payload
	sent   uint32 // bytes already moved across the fabric
	write  bool
	issued sim.Tick
	master int
	slave  int
	target Target
	done   func()
	// dataPhase marks a read response draining data beats back to the
	// master.
	dataPhase    bool
	progress     func(uint32)
	progressGran uint32
	attempts     int
}

type xbarMaster struct {
	reqs  queue[*xreq] // fresh requests, in order; a multi-burst head stays put
	resps queue[*xreq] // read responses draining back; head stays put mid-transfer
	busy  bool         // master channel currently granted to a route
}

type xbarSlave struct {
	busy   bool
	rrNext int // round-robin start master for this slave's arbitration
}

// Crossbar is an AXI-like burst-based interconnect: per-master channel
// pairs, address-interleaved slave ports, and parallel non-conflicting
// routes. A route (master channel + slave port) is held for one burst —
// an address cycle plus up to BurstBeats data cycles — then re-arbitrates,
// so long DMA transfers interleave with latency-sensitive cache fills
// instead of monopolizing the memory side.
type Crossbar struct {
	cfg    CrossbarConfig
	eng    *sim.Engine
	target Target

	masters []xbarMaster
	slaves  []xbarSlave
	stats   Stats
	probe   *obs.Probe
	inj     *fault.Injector

	granted  int // routes currently held
	backoffs int // transactions sitting out a post-NACK backoff
}

// NewCrossbar creates a crossbar attached to eng, delivering transactions
// to target.
func NewCrossbar(eng *sim.Engine, cfg CrossbarConfig, target Target) *Crossbar {
	if cfg.WidthBits%8 != 0 || cfg.WidthBits <= 0 {
		panic(fmt.Sprintf("crossbar: invalid width %d bits", cfg.WidthBits))
	}
	if cfg.Clock.Period == 0 {
		panic("crossbar: zero clock period")
	}
	if cfg.Slaves == 0 {
		cfg.Slaves = 4
	}
	if cfg.Slaves < 1 {
		panic(fmt.Sprintf("crossbar: invalid slave count %d", cfg.Slaves))
	}
	if cfg.BurstBeats == 0 {
		cfg.BurstBeats = 16
	}
	if cfg.BurstBeats < 1 {
		panic(fmt.Sprintf("crossbar: invalid burst length %d", cfg.BurstBeats))
	}
	return &Crossbar{
		cfg: cfg, eng: eng, target: target,
		slaves: make([]xbarSlave, cfg.Slaves),
	}
}

// slaveOf interleaves the address space across slave ports at 4KiB
// granularity (matching DRAM bank interleave scale, so streams spread).
func (x *Crossbar) slaveOf(addr uint64) int {
	return int((addr >> 12) % uint64(len(x.slaves)))
}

// RegisterMaster allocates a master channel pair and returns its id.
func (x *Crossbar) RegisterMaster() int {
	x.masters = append(x.masters, xbarMaster{})
	return len(x.masters) - 1
}

// Stats returns a copy of the accumulated counters. BusyTicks sums
// occupancy across all slave ports, so it can exceed elapsed time when
// routes overlap; Utilization normalizes by the port count.
func (x *Crossbar) Stats() Stats { return x.stats }

// AttachProbe wires an observability probe; the crossbar fires one span per
// burst window with the master id and burst payload attached.
func (x *Crossbar) AttachProbe(p *obs.Probe) { x.probe = p }

// SetFaults attaches a fault injector (nil disables injection). Injection
// applies at a fresh transaction's first address phase, mirroring the bus.
func (x *Crossbar) SetFaults(inj *fault.Injector) { x.inj = inj }

// RegisterStats registers the crossbar counters under prefix.
func (x *Crossbar) RegisterStats(reg *obs.Registry, prefix string) {
	registerFabricStats(reg, prefix, func() Stats { return x.stats })
}

// InFlight counts transactions the crossbar still holds.
func (x *Crossbar) InFlight() int {
	n := x.granted + x.backoffs
	for i := range x.masters {
		n += x.masters[i].reqs.len() + x.masters[i].resps.len()
	}
	return n
}

// DumpInFlight renders the queue state for a watchdog diagnostic.
func (x *Crossbar) DumpInFlight() string {
	var s strings.Builder
	fmt.Fprintf(&s, "granted=%d backoffs=%d", x.granted, x.backoffs)
	for m := range x.masters {
		ms := &x.masters[m]
		if ms.reqs.len() == 0 && ms.resps.len() == 0 {
			continue
		}
		fmt.Fprintf(&s, "\nmaster%d busy=%v reqs=%d resps=%d:", m, ms.busy, ms.reqs.len(), ms.resps.len())
		for _, r := range ms.reqs.buf[ms.reqs.head:] {
			kind := "read"
			if r.write {
				kind = "write"
			}
			fmt.Fprintf(&s, " %s@%#x(%d/%dB,slave%d,issued %v)",
				kind, r.addr, r.sent, r.bytes, r.slave, r.issued)
		}
	}
	return s.String()
}

// Utilization reports mean per-port busy fraction over elapsed time.
func (x *Crossbar) Utilization(elapsed sim.Tick) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(x.stats.BusyTicks) / (float64(elapsed) * float64(len(x.slaves)))
}

// Access enqueues a transaction to the default memory-side target.
func (x *Crossbar) Access(master int, addr uint64, bytes uint32, write bool, done func()) {
	x.AccessVia(master, addr, bytes, write, x.target, done)
}

// AccessVia is Access with an explicit responder.
func (x *Crossbar) AccessVia(master int, addr uint64, bytes uint32, write bool, target Target, done func()) {
	x.enqueue(master, addr, bytes, write, target, nil, 0, done)
}

// ReadStream is a read whose data delivery is observable every gran bytes.
func (x *Crossbar) ReadStream(master int, addr uint64, bytes uint32, gran uint32, progress func(uint32), done func()) {
	x.ReadStreamVia(master, addr, bytes, gran, x.target, progress, done)
}

// ReadStreamVia is ReadStream with an explicit responder.
func (x *Crossbar) ReadStreamVia(master int, addr uint64, bytes uint32, gran uint32, target Target, progress func(uint32), done func()) {
	if gran == 0 {
		panic("crossbar: zero stream granularity")
	}
	x.enqueue(master, addr, bytes, false, target, progress, gran, done)
}

func (x *Crossbar) enqueue(master int, addr uint64, bytes uint32, write bool, target Target, progress func(uint32), gran uint32, done func()) {
	if master < 0 || master >= len(x.masters) {
		panic(fmt.Sprintf("crossbar: unknown master %d", master))
	}
	if bytes == 0 {
		done()
		return
	}
	r := &xreq{
		addr: addr, bytes: bytes, write: write, issued: x.eng.Now(),
		master: master, slave: x.slaveOf(addr), target: target, done: done,
		progress: progress, progressGran: gran,
	}
	x.masters[master].reqs.push(r)
	x.arbitrate()
}

// arbitrate fills every idle slave port with the next eligible transfer.
// Responses drain first (AXI response channels are independent and drain
// ahead of fresh addresses); fresh requests are served round-robin across
// masters per slave. Only queue heads are eligible: each master channel is
// in-order, so a head mid-transfer blocks that channel's later requests
// (head-of-line, as on a real in-order master port).
func (x *Crossbar) arbitrate() {
	for s := range x.slaves {
		sl := &x.slaves[s]
		if sl.busy {
			continue
		}
		if r := x.pickFor(s); r != nil {
			x.grant(r)
		}
	}
}

// pickFor selects the next transfer for slave s, or nil. Round-robin over
// masters starting at the slave's rrNext; responses win over requests.
func (x *Crossbar) pickFor(s int) *xreq {
	n := len(x.masters)
	sl := &x.slaves[s]
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			m := (sl.rrNext + i) % n
			ms := &x.masters[m]
			if ms.busy {
				continue
			}
			var q *queue[*xreq]
			if pass == 0 {
				q = &ms.resps
			} else {
				q = &ms.reqs
			}
			if q.len() == 0 || q.peek().slave != s {
				continue
			}
			sl.rrNext = (m + 1) % n
			return q.peek()
		}
	}
	return nil
}

// grant routes one burst of r through its master channel and slave port.
func (x *Crossbar) grant(r *xreq) {
	ms := &x.masters[r.master]
	sl := &x.slaves[r.slave]
	ms.busy, sl.busy = true, true
	x.granted++

	// Fault injection at the first address phase of a fresh transaction.
	if !r.dataPhase && r.sent == 0 && x.inj.BusNack(x.eng.Now(), r.addr, r.attempts+1) {
		r.attempts++
		x.popOf(r).pop()
		if r.attempts > x.inj.BusRetryLimit() {
			x.inj.CountBusDrop(x.eng.Now(), r.addr, r.attempts)
			x.releaseRoute(r, x.cfg.Clock.Cycles(1), "xbar-drop", 0, nil)
			return
		}
		backoff := x.inj.BusBackoff(r.attempts)
		x.backoffs++
		x.releaseRoute(r, x.cfg.Clock.Cycles(1), "xbar-nack", 0, func() {
			x.eng.After(backoff, func() {
				x.backoffs--
				x.inj.CountBusRetry()
				x.masters[r.master].reqs.push(r)
				x.arbitrate()
			})
		})
		return
	}

	wb := x.cfg.widthBytes()
	burstBytes := uint32(x.cfg.BurstBeats) * wb
	remaining := r.bytes - r.sent
	chunk := remaining
	if chunk > burstBytes {
		chunk = burstBytes
	}
	beats := uint64((chunk + wb - 1) / wb)

	switch {
	case r.dataPhase:
		// Read response burst: data beats only on the response channel.
		window := x.cfg.Clock.Cycles(beats)
		if r.progress != nil {
			spreadProgress(x.eng, r.progress, r.progressGran, r.sent, r.sent+chunk, r.bytes, window)
		}
		last := r.sent+chunk == r.bytes
		x.releaseRoute(r, window, "xbar-read-data", chunk, func() {
			if last {
				x.masters[r.master].resps.pop()
				r.done()
			}
			// Otherwise the head stays; the next burst re-arbitrates.
		})

	case r.write:
		// Write burst: address cycle + data beats travel together.
		if r.sent == 0 {
			x.countIssue(r)
		}
		window := x.cfg.Clock.Cycles(1 + beats)
		last := r.sent+chunk == r.bytes
		x.releaseRoute(r, window, "xbar-write", chunk, func() {
			if last {
				x.masters[r.master].reqs.pop()
				// Posted write: the target accepts the full payload after
				// the final burst; done fires on acceptance.
				r.target.Access(r.addr, r.bytes, true, r.done)
			}
		})

	default:
		// Read request: a one-cycle address phase opens the transaction;
		// the route frees while the target services it, and the response
		// drains in bursts on the response channel.
		x.countIssue(r)
		x.masters[r.master].reqs.pop()
		x.releaseRoute(r, x.cfg.Clock.Cycles(1), "xbar-read-addr", 0, func() {
			r.target.Access(r.addr, r.bytes, false, func() {
				resp := r
				resp.dataPhase = true
				x.masters[resp.master].resps.push(resp)
				x.arbitrate()
			})
		})
	}
}

func (x *Crossbar) countIssue(r *xreq) {
	x.stats.Transactions++
	x.stats.BytesMoved += uint64(r.bytes)
	x.stats.WaitTicks += x.eng.Now() - r.issued
}

// popOf returns the queue currently heading r (used by the fault path to
// remove a NACKed head before requeueing it at the back).
func (x *Crossbar) popOf(r *xreq) *queue[*xreq] {
	ms := &x.masters[r.master]
	if ms.resps.len() > 0 && ms.resps.peek() == r {
		return &ms.resps
	}
	return &ms.reqs
}

// releaseRoute accounts one route occupancy window, then frees the master
// channel and slave port, advances the burst cursor by sent bytes, runs the
// continuation, and re-arbitrates.
func (x *Crossbar) releaseRoute(r *xreq, window sim.Tick, phase string, sent uint32, then func()) {
	x.stats.BusyTicks += window
	if x.probe.Enabled() {
		start := uint64(x.eng.Now())
		x.probe.Fire(obs.Event{Name: phase, Start: start,
			End: start + uint64(window), Lane: int32(r.master),
			Bytes: uint64(sent)})
	}
	x.eng.After(window, func() {
		x.masters[r.master].busy = false
		x.slaves[r.slave].busy = false
		x.granted--
		r.sent += sent
		if then != nil {
			then()
		}
		x.arbitrate()
	})
}

var _ Fabric = (*Crossbar)(nil)
