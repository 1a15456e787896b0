package bus

import (
	"fmt"
	"strings"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// MeshConfig describes a simple 2D mesh NoC: Dim×Dim routers connected by
// width-limited links, dimension-ordered (XY) routing, and a per-hop
// router+link traversal latency. The memory-side target sits at node (0,0);
// masters are placed round-robin over the remaining nodes.
type MeshConfig struct {
	WidthBits int       // link width (flit payload per cycle)
	Clock     sim.Clock // NoC clock domain
	Dim       int       // routers per side; defaults to 2
	HopCycles int       // router pipeline + link traversal per hop; defaults to 1
}

func (c MeshConfig) widthBytes() uint32 { return uint32(c.WidthBits / 8) }

// mpkt is a packet in flight: a read request (1 header flit), a write
// (header + data flits), or a read response (header + data flits).
type mpkt struct {
	addr         uint64
	bytes        uint32 // transaction payload
	flits        uint64 // packet length on the wire, header included
	write        bool
	issued       sim.Tick
	master       int
	node         int // current router
	dest         int
	target       Target
	done         func()
	resp         bool // a read response heading back to its master
	progress     func(uint32)
	progressGran uint32
	attempts     int
}

// Mesh is a store-and-forward 2D mesh NoC with XY routing. Each directed
// link serializes the packets crossing it (link-width back-pressure): a
// packet occupies a link for HopCycles plus one cycle per flit, and a
// packet arriving at a busy link waits for the link's free time. Traffic
// between disjoint links flows concurrently, so spatially separated
// masters contend only where their XY paths overlap.
type Mesh struct {
	cfg    MeshConfig
	eng    *sim.Engine
	target Target

	nmasters int
	nodeOf   []int      // master id → injection node
	linkFree []sim.Tick // [node*4+dir] earliest time the link is idle
	stats    Stats
	probe    *obs.Probe
	inj      *fault.Injector
	inflight int
	backoffs int
}

// Link directions out of a router.
const (
	meshEast = iota
	meshWest
	meshNorth
	meshSouth
)

// NewMesh creates a mesh attached to eng, delivering transactions to the
// memory-side target at node (0,0).
func NewMesh(eng *sim.Engine, cfg MeshConfig, target Target) *Mesh {
	if cfg.WidthBits%8 != 0 || cfg.WidthBits <= 0 {
		panic(fmt.Sprintf("mesh: invalid width %d bits", cfg.WidthBits))
	}
	if cfg.Clock.Period == 0 {
		panic("mesh: zero clock period")
	}
	if cfg.Dim == 0 {
		cfg.Dim = 2
	}
	if cfg.Dim < 2 {
		panic(fmt.Sprintf("mesh: invalid dimension %d", cfg.Dim))
	}
	if cfg.HopCycles == 0 {
		cfg.HopCycles = 1
	}
	return &Mesh{
		cfg: cfg, eng: eng, target: target,
		linkFree: make([]sim.Tick, cfg.Dim*cfg.Dim*4),
	}
}

// RegisterMaster places the next master on the mesh and returns its id.
// Masters spread round-robin over nodes 1..Dim²-1 (node 0 is the memory
// port), so registration order fixes the floorplan deterministically.
func (m *Mesh) RegisterMaster() int {
	id := m.nmasters
	m.nmasters++
	slots := m.cfg.Dim*m.cfg.Dim - 1
	m.nodeOf = append(m.nodeOf, 1+id%slots)
	return id
}

// Stats returns a copy of the accumulated counters. BusyTicks sums link
// occupancy across the whole mesh; Utilization normalizes by link count.
func (m *Mesh) Stats() Stats { return m.stats }

// AttachProbe wires an observability probe; the mesh fires one span per
// link traversal with the occupied link index as the lane.
func (m *Mesh) AttachProbe(p *obs.Probe) { m.probe = p }

// SetFaults attaches a fault injector (nil disables injection). Injection
// applies at packet admission, mirroring the bus's address-phase NACK.
func (m *Mesh) SetFaults(inj *fault.Injector) { m.inj = inj }

// RegisterStats registers the mesh counters under prefix.
func (m *Mesh) RegisterStats(reg *obs.Registry, prefix string) {
	registerFabricStats(reg, prefix, func() Stats { return m.stats })
}

// InFlight counts packets still traversing the mesh or awaiting a target.
func (m *Mesh) InFlight() int { return m.inflight + m.backoffs }

// DumpInFlight renders link occupancy for a watchdog diagnostic.
func (m *Mesh) DumpInFlight() string {
	var s strings.Builder
	fmt.Fprintf(&s, "inflight=%d backoffs=%d now=%v", m.inflight, m.backoffs, m.eng.Now())
	dirs := [4]string{"E", "W", "N", "S"}
	for l, free := range m.linkFree {
		if free <= m.eng.Now() {
			continue
		}
		node, dir := l/4, l%4
		fmt.Fprintf(&s, "\nlink n%d.%s busy until %v",
			node, dirs[dir], free)
	}
	return s.String()
}

// Utilization reports mean per-link busy fraction over elapsed time.
func (m *Mesh) Utilization(elapsed sim.Tick) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(m.stats.BusyTicks) / (float64(elapsed) * float64(len(m.linkFree)))
}

// Access enqueues a transaction to the memory-side target at node 0.
func (m *Mesh) Access(master int, addr uint64, bytes uint32, write bool, done func()) {
	m.AccessVia(master, addr, bytes, write, m.target, done)
}

// AccessVia is Access with an explicit responder. The responder still sits
// at the memory port node: what varies is who answers, not where.
func (m *Mesh) AccessVia(master int, addr uint64, bytes uint32, write bool, target Target, done func()) {
	m.inject(master, addr, bytes, write, target, nil, 0, done)
}

// ReadStream is a read whose delivery is observable every gran bytes as
// the response packet's flits drain across its final link.
func (m *Mesh) ReadStream(master int, addr uint64, bytes uint32, gran uint32, progress func(uint32), done func()) {
	m.ReadStreamVia(master, addr, bytes, gran, m.target, progress, done)
}

// ReadStreamVia is ReadStream with an explicit responder.
func (m *Mesh) ReadStreamVia(master int, addr uint64, bytes uint32, gran uint32, target Target, progress func(uint32), done func()) {
	if gran == 0 {
		panic("mesh: zero stream granularity")
	}
	m.inject(master, addr, bytes, false, target, progress, gran, done)
}

func (m *Mesh) dataFlits(bytes uint32) uint64 {
	wb := m.cfg.widthBytes()
	return uint64((bytes + wb - 1) / wb)
}

func (m *Mesh) inject(master int, addr uint64, bytes uint32, write bool, target Target, progress func(uint32), gran uint32, done func()) {
	if master < 0 || master >= m.nmasters {
		panic(fmt.Sprintf("mesh: unknown master %d", master))
	}
	if bytes == 0 {
		done()
		return
	}
	p := &mpkt{
		addr: addr, bytes: bytes, write: write, issued: m.eng.Now(),
		master: master, node: m.nodeOf[master], dest: 0,
		target: target, done: done, progress: progress, progressGran: gran,
	}
	// Write packets carry their data; read requests are a lone header.
	p.flits = 1
	if write {
		p.flits += m.dataFlits(bytes)
	}

	// Fault injection at admission: the network interface NACKs the
	// packet, the master backs off and retries, and past the retry limit
	// the packet is dropped (done never fires; the watchdog reports it).
	if m.inj.BusNack(m.eng.Now(), addr, p.attempts+1) {
		m.admitFault(p)
		return
	}
	m.inflight++
	m.stats.Transactions++
	m.stats.BytesMoved += uint64(bytes)
	m.forward(p)
}

// admitFault runs the NACK/backoff/drop protocol for packet p.
func (m *Mesh) admitFault(p *mpkt) {
	p.attempts++
	if p.attempts > m.inj.BusRetryLimit() {
		m.inj.CountBusDrop(m.eng.Now(), p.addr, p.attempts)
		return
	}
	backoff := m.inj.BusBackoff(p.attempts)
	m.backoffs++
	m.eng.After(backoff, func() {
		m.backoffs--
		m.inj.CountBusRetry()
		if m.inj.BusNack(m.eng.Now(), p.addr, p.attempts+1) {
			m.admitFault(p)
			return
		}
		m.inflight++
		m.stats.Transactions++
		m.stats.BytesMoved += uint64(p.bytes)
		m.stats.WaitTicks += m.eng.Now() - p.issued
		m.forward(p)
	})
}

// nextHop computes the XY route: correct X (east/west) first, then Y.
func (m *Mesh) nextHop(node, dest int) (next, dir int) {
	d := m.cfg.Dim
	nx, ny := node%d, node/d
	dx, dy := dest%d, dest/d
	switch {
	case nx < dx:
		return node + 1, meshEast
	case nx > dx:
		return node - 1, meshWest
	case ny < dy:
		return node + d, meshSouth
	default:
		return node - d, meshNorth
	}
}

// forward moves p one hop toward its destination, serializing on the
// outgoing link, and delivers it on arrival.
func (m *Mesh) forward(p *mpkt) {
	if p.node == p.dest {
		m.deliver(p)
		return
	}
	next, dir := m.nextHop(p.node, p.dest)
	link := p.node*4 + dir
	now := m.eng.Now()
	start := now
	if m.linkFree[link] > start {
		start = m.linkFree[link]
	}
	occ := m.cfg.Clock.Cycles(uint64(m.cfg.HopCycles) + p.flits)
	m.linkFree[link] = start + occ
	m.stats.BusyTicks += occ
	// Queuing at the first hop is the packet's arbitration delay.
	if p.node == m.nodeOf[p.master] && !p.resp {
		m.stats.WaitTicks += start - now
	}
	if m.probe.Enabled() {
		m.probe.Fire(obs.Event{Name: "mesh-hop", Start: uint64(start),
			End: uint64(start + occ), Lane: int32(link),
			Bytes: uint64(p.bytes)})
	}
	arrive := start + occ
	final := next == p.dest
	if final && p.resp && p.progress != nil {
		// The response's data flits drain across the last link: spread the
		// stream notifications over that window.
		spreadProgress(m.eng, p.progress, p.progressGran, 0, p.bytes, p.bytes, arrive-now)
	}
	p.node = next
	m.eng.After(arrive-now, func() { m.forward(p) })
}

// deliver hands an arrived packet to its endpoint.
func (m *Mesh) deliver(p *mpkt) {
	switch {
	case p.resp:
		// Response data arrived back at the master.
		m.inflight--
		p.done()
	case p.write:
		// Posted write: the target accepts the payload; done fires on
		// acceptance.
		m.inflight--
		p.target.Access(p.addr, p.bytes, true, p.done)
	default:
		// Read request at the memory port: the target services it off the
		// network, then the response packet carries the data back.
		p.target.Access(p.addr, p.bytes, false, func() {
			p.resp = true
			p.dest = m.nodeOf[p.master]
			p.node = 0
			p.flits = 1 + m.dataFlits(p.bytes)
			m.forward(p)
		})
	}
}

var _ Fabric = (*Mesh)(nil)
