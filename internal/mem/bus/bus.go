// Package bus models the SoC system interconnect: a split-transaction bus
// with a configurable data width (the paper sweeps 32- and 64-bit widths to
// modulate accelerator-visible bandwidth), round-robin arbitration between
// masters, and per-transaction occupancy accounting.
//
// A transaction occupies the bus for one arbitration/address cycle plus
// ceil(bytes/width) data cycles. Downstream memory latency (DRAM, or a
// remote cache supplying data) does not hold the bus: the target is handed
// the request when the address phase completes and the caller's completion
// callback fires when the target responds. This is what lets independent
// transfers pipeline at full bus bandwidth, which the DMA and cache-fill
// experiments depend on.
package bus

import (
	"fmt"
	"strings"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// Target is the memory-side endpoint of the bus (typically the DRAM
// controller). Access is called when a transaction wins arbitration; done
// must be invoked when the data is ready (reads) or accepted (writes).
type Target interface {
	Access(addr uint64, bytes uint32, write bool, done func())
}

// Config describes a bus instance.
type Config struct {
	WidthBits int       // 32 or 64 in the paper's sweeps
	Clock     sim.Clock // bus clock domain
}

// WidthBytes returns the per-cycle data width in bytes.
func (c Config) WidthBytes() uint32 { return uint32(c.WidthBits / 8) }

// Stats aggregates bus activity.
type Stats struct {
	Transactions uint64
	BytesMoved   uint64
	BusyTicks    sim.Tick // total ticks the data path was occupied
	WaitTicks    sim.Tick // total arbitration queuing delay across transactions
}

type request struct {
	addr   uint64
	bytes  uint32
	write  bool
	issued sim.Tick
	master int
	target Target
	done   func()
	// dataPhase marks a read response ready to move over the bus.
	dataPhase bool
	// progress, when set, fires during the read data phase every
	// progressGran bytes with the cumulative byte count delivered so far.
	progress     func(bytesDone uint32)
	progressGran uint32
	// attempts counts address-phase NACKs this transaction has absorbed
	// (fault injection); past the retry limit the transaction is dropped.
	attempts int
}

// Continuation kinds for the release event: what to do with the released
// transaction once its bus occupancy elapses. Storing a kind plus the
// request in Bus fields (only one transaction holds the bus at a time)
// replaces a per-grant continuation closure.
const (
	relNone     = iota // nothing beyond re-arbitration (dropped transaction)
	relDone            // invoke the requester's completion callback
	relWrite           // hand the write to the target (posted)
	relReadAddr        // hand the read to the target; response re-arbitrates
	relFunc            // run afterRelease (rare fault-injection paths)
)

// pendingRead carries a read transaction through its target access: the
// pre-bound fn is what the target calls when data is ready, queueing the
// response's data phase. Nodes are pooled on the bus; targets may complete
// out of order, so each outstanding read needs its own node.
type pendingRead struct {
	b   *Bus
	req request
	fn  func()
}

func (p *pendingRead) complete() {
	b := p.b
	resp := p.req
	p.req = request{}
	b.readPool = append(b.readPool, p)
	resp.dataPhase = true
	b.responses.push(resp)
	b.arbitrate()
}

// Bus is a round-robin arbitrated split-transaction interconnect.
type Bus struct {
	cfg    Config
	eng    *sim.Engine
	target Target

	queues    []queue[request] // per-master FIFO
	responses queue[request]   // read responses awaiting their data phase
	rrNext    int              // next master to consider
	granted   bool             // a transaction currently holds the bus
	stats     Stats
	probe     *obs.Probe
	inj       *fault.Injector
	// backoffs counts transactions sitting out a post-NACK backoff delay;
	// they are in flight but in no queue, so the watchdog must see them.
	backoffs int

	// releaseEv fires when the granted transaction's occupancy elapses.
	// Only one transaction holds the bus at a time, so a single pre-bound
	// event plus (relKind, relReq) replace a per-grant closure.
	releaseEv    *sim.Event
	relKind      int
	relReq       request
	afterRelease func() // relFunc continuation (fault paths only)

	readPool []*pendingRead // recycled outstanding-read nodes
}

// New creates a bus attached to eng, delivering transactions to target.
func New(eng *sim.Engine, cfg Config, target Target) *Bus {
	if cfg.WidthBits%8 != 0 || cfg.WidthBits <= 0 {
		panic(fmt.Sprintf("bus: invalid width %d bits", cfg.WidthBits))
	}
	if cfg.Clock.Period == 0 {
		panic("bus: zero clock period")
	}
	b := &Bus{cfg: cfg, eng: eng, target: target}
	b.releaseEv = sim.NewEvent(b.release)
	return b
}

// release ends the granted transaction's bus occupancy, runs its
// continuation, and re-arbitrates.
func (b *Bus) release() {
	b.granted = false
	kind := b.relKind
	req := b.relReq
	b.relKind = relNone
	b.relReq = request{}
	switch kind {
	case relDone:
		req.done()
	case relWrite:
		req.target.Access(req.addr, req.bytes, true, req.done)
	case relReadAddr:
		req.target.Access(req.addr, req.bytes, false, b.pendingFor(req))
	case relFunc:
		then := b.afterRelease
		b.afterRelease = nil
		then()
	}
	b.arbitrate()
}

// pendingFor checks out a pooled read node for req and returns its
// pre-bound response callback.
func (b *Bus) pendingFor(req request) func() {
	var p *pendingRead
	if n := len(b.readPool); n > 0 {
		p = b.readPool[n-1]
		b.readPool[n-1] = nil
		b.readPool = b.readPool[:n-1]
	} else {
		p = &pendingRead{b: b}
		p.fn = p.complete
	}
	p.req = req
	return p.fn
}

// RegisterMaster allocates an arbitration slot and returns its id.
func (b *Bus) RegisterMaster() int {
	b.queues = append(b.queues, queue[request]{})
	return len(b.queues) - 1
}

// Stats returns a copy of the accumulated counters.
func (b *Bus) Stats() Stats { return b.stats }

// AttachProbe wires an observability probe; the bus fires one span per
// busy window (address phase, write, read data phase), with the master id
// and payload size attached.
func (b *Bus) AttachProbe(p *obs.Probe) { b.probe = p }

// SetFaults attaches a fault injector (nil disables injection). With an
// injector, each non-response grant may be NACKed at its address phase and
// re-queued after exponential backoff, up to the injector's retry limit;
// past the limit the transaction is dropped (its done callback never fires),
// which the no-progress watchdog then reports.
func (b *Bus) SetFaults(inj *fault.Injector) { b.inj = inj }

// InFlight counts transactions the bus is still holding: queued, awaiting a
// data phase, in a backoff delay, or currently granted. It feeds the
// no-progress watchdog.
func (b *Bus) InFlight() int {
	n := b.responses.len() + b.backoffs
	for i := range b.queues {
		n += b.queues[i].len()
	}
	if b.granted {
		n++
	}
	return n
}

// DumpInFlight renders the queue state for a watchdog diagnostic.
func (b *Bus) DumpInFlight() string {
	var s strings.Builder
	fmt.Fprintf(&s, "granted=%v responses=%d backoffs=%d", b.granted, b.responses.len(), b.backoffs)
	for m := range b.queues {
		q := &b.queues[m]
		if q.len() == 0 {
			continue
		}
		fmt.Fprintf(&s, "\nmaster%d queue:", m)
		for _, r := range q.buf[q.head:] {
			kind := "read"
			if r.write {
				kind = "write"
			}
			fmt.Fprintf(&s, " %s@%#x(%dB,issued %v)", kind, r.addr, r.bytes, r.issued)
		}
	}
	return s.String()
}

// RegisterStats registers the bus counters under prefix.
func (b *Bus) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".transactions", "bus transactions granted",
		func() uint64 { return b.stats.Transactions })
	reg.CounterFunc(prefix+".bytes_moved", "bytes moved over the data path",
		func() uint64 { return b.stats.BytesMoved })
	reg.CounterFunc(prefix+".busy_ticks", "ticks the data path was occupied",
		func() uint64 { return uint64(b.stats.BusyTicks) })
	reg.CounterFunc(prefix+".wait_ticks", "summed arbitration queuing delay",
		func() uint64 { return uint64(b.stats.WaitTicks) })
	reg.Formula(prefix+".avg_wait_ns", "mean arbitration delay per transaction",
		func() float64 {
			if b.stats.Transactions == 0 {
				return 0
			}
			return sim.Tick(b.stats.WaitTicks).Nanos() / float64(b.stats.Transactions)
		})
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// OccupancyTicks reports how long a transaction of n bytes holds the bus.
func (b *Bus) OccupancyTicks(n uint32) sim.Tick {
	cycles := 1 + uint64((n+b.cfg.WidthBytes()-1)/b.cfg.WidthBytes())
	return b.cfg.Clock.Cycles(cycles)
}

// Access enqueues a transaction from the given master to the default
// memory-side target. done fires when the transaction fully completes (data
// returned for reads, accepted for writes). Zero-byte accesses complete
// immediately without bus traffic.
func (b *Bus) Access(master int, addr uint64, bytes uint32, write bool, done func()) {
	b.AccessVia(master, addr, bytes, write, b.target, done)
}

// AccessVia is Access with an explicit responder. Snooping caches use it to
// route a fill to a peer cache (cache-to-cache transfer) instead of DRAM
// while still paying bus arbitration and occupancy.
func (b *Bus) AccessVia(master int, addr uint64, bytes uint32, write bool, target Target, done func()) {
	if master < 0 || master >= len(b.queues) {
		panic(fmt.Sprintf("bus: unknown master %d", master))
	}
	if bytes == 0 {
		done()
		return
	}
	b.queues[master].push(request{
		addr: addr, bytes: bytes, write: write, issued: b.eng.Now(),
		master: master, target: target, done: done,
	})
	if !b.granted {
		b.arbitrate()
	}
}

// ReadStream is a read whose data-phase delivery is observable: progress
// fires with the cumulative bytes delivered, every gran bytes, as the beats
// cross the bus. The DMA engine uses it to set full/empty bits at CPU
// cache-line granularity while a bulk transfer is still in flight
// (DMA-triggered computation, Sec IV-B2).
func (b *Bus) ReadStream(master int, addr uint64, bytes uint32, gran uint32, progress func(uint32), done func()) {
	b.ReadStreamVia(master, addr, bytes, gran, b.target, progress, done)
}

// ReadStreamVia is ReadStream with an explicit responder (a coherent DMA
// engine sources dirty data from the CPU cache rather than DRAM).
func (b *Bus) ReadStreamVia(master int, addr uint64, bytes uint32, gran uint32, target Target, progress func(uint32), done func()) {
	if master < 0 || master >= len(b.queues) {
		panic(fmt.Sprintf("bus: unknown master %d", master))
	}
	if gran == 0 {
		panic("bus: zero stream granularity")
	}
	if bytes == 0 {
		done()
		return
	}
	b.queues[master].push(request{
		addr: addr, bytes: bytes, issued: b.eng.Now(),
		master: master, target: target, done: done,
		progress: progress, progressGran: gran,
	})
	if !b.granted {
		b.arbitrate()
	}
}

// arbitrate grants the bus to the next waiter. Read responses have priority
// over new requests (as on AXI-class interconnects, the response channel
// drains first); fresh requests are served round-robin across masters.
func (b *Bus) arbitrate() {
	if b.granted {
		return
	}
	if b.responses.len() > 0 {
		b.grant(b.responses.pop())
		return
	}
	n := len(b.queues)
	for i := 0; i < n; i++ {
		m := (b.rrNext + i) % n
		if b.queues[m].len() == 0 {
			continue
		}
		req := b.queues[m].pop()
		b.rrNext = (m + 1) % n
		b.grant(req)
		return
	}
}

func (b *Bus) grant(req request) {
	b.granted = true

	// Fault injection: the address phase of a fresh transaction may be
	// NACKed. Read responses are not (the address phase already succeeded).
	if !req.dataPhase && b.inj.BusNack(b.eng.Now(), req.addr, req.attempts+1) {
		req.attempts++
		if req.attempts > b.inj.BusRetryLimit() {
			// Retries exhausted: the transaction is dropped. Its done
			// callback never fires; the requester's watchdog entry makes
			// the loss diagnosable instead of a silent hang.
			b.inj.CountBusDrop(b.eng.Now(), req.addr, req.attempts)
			b.releasePhase(req, b.cfg.Clock.Cycles(1), "bus-drop", relNone, nil)
			return
		}
		// The failed address phase still occupied a cycle; the master sits
		// out an exponential backoff and re-arbitrates from the back of
		// its queue.
		retry := req
		backoff := b.inj.BusBackoff(req.attempts)
		b.backoffs++
		b.releasePhase(req, b.cfg.Clock.Cycles(1), "bus-nack", relFunc, func() {
			b.eng.After(backoff, func() {
				b.backoffs--
				b.inj.CountBusRetry()
				b.queues[retry.master].push(retry)
				if !b.granted {
					b.arbitrate()
				}
			})
		})
		return
	}

	b.dispatch(req)
}

// releasePhase accounts one bus occupancy window and schedules the release
// with its continuation kind.
func (b *Bus) releasePhase(req request, after sim.Tick, phase string, kind int, then func()) {
	b.stats.BusyTicks += after
	if b.probe.Enabled() {
		start := uint64(b.eng.Now())
		b.probe.Fire(obs.Event{Name: phase, Start: start,
			End: start + uint64(after), Lane: int32(req.master),
			Bytes: uint64(req.bytes)})
	}
	b.relKind = kind
	b.relReq = req
	b.afterRelease = then
	b.eng.AfterEvent(after, b.releaseEv)
}

// dispatch moves a granted transaction through its bus phases.
func (b *Bus) dispatch(req request) {
	dataTicks := b.cfg.Clock.Cycles(uint64((req.bytes + b.cfg.WidthBytes() - 1) / b.cfg.WidthBytes()))
	switch {
	case req.dataPhase:
		// Read response: data beats only.
		if req.progress != nil {
			spreadProgress(b.eng, req.progress, req.progressGran, 0, req.bytes, req.bytes, dataTicks)
		}
		b.releasePhase(req, dataTicks, "read-data", relDone, nil)

	case req.write:
		// Write: address + data move together; the target accepts the
		// data afterwards (posted write). done fires when accepted.
		b.stats.Transactions++
		b.stats.BytesMoved += uint64(req.bytes)
		b.stats.WaitTicks += b.eng.Now() - req.issued
		b.releasePhase(req, b.cfg.Clock.Cycles(1)+dataTicks, "write", relWrite, nil)

	default:
		// Read: address phase holds the bus one cycle, then the bus is
		// free while the target services the request; the response
		// re-arbitrates for its data phase.
		b.stats.Transactions++
		b.stats.BytesMoved += uint64(req.bytes)
		b.stats.WaitTicks += b.eng.Now() - req.issued
		b.releasePhase(req, b.cfg.Clock.Cycles(1), "read-addr", relReadAddr, nil)
	}
}

// Utilization reports the fraction of elapsed time the bus was busy.
func (b *Bus) Utilization(elapsed sim.Tick) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(b.stats.BusyTicks) / float64(elapsed)
}
