package fastpath

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// Link is one egress port of a node in the compiled topology. A port is
// one of two kinds: a switch link, which leads to the neighbour Next and
// arrives there on InPort, or a middlebox attachment, which carries a Box.
type Link struct {
	// Next is the neighbour switch the port leads to (NoLink on a
	// middlebox port) and InPort the port the packet arrives on there.
	Next   int32
	InPort int32
	// Box, when set, makes the port a middlebox attachment: the walk
	// hands the packet to Box and, unless Box drops it, the packet
	// re-enters the same switch on the same port. BoxID names the box in
	// traced steps.
	Box   Box
	BoxID int32
}

// NoLink is the Next value of a port that leads to no switch.
const NoLink int32 = -1

// Box is a stateful element the walk runs in line: a middlebox on its
// attachment port, or the gateway NAT on the Internet exit. Process may
// rewrite the packet and returns false to drop it. A box keeps its own
// state behind its own locks, so walkers may share it.
type Box interface {
	Process(p *packet.Packet) bool
}

// NetConfig assembles a Net. The caller (internal/dataplane) supplies the
// link tables, tunnel targets and boxes because it owns the topology, the
// middlebox instances and the NAT.
type NetConfig struct {
	// Switches are the per-node switches, indexed by node ID.
	Switches []*switchsim.Switch
	// Links maps, per node, egress port -> link.
	Links [][]Link
	// Tunnels maps a base-station ID to its access node, for the
	// inter-station mobility tunnel pseudo ports (PortTunnelBase + bs).
	Tunnels map[packet.BSID]int32
	// Exit, when set, handles every packet leaving through the Internet
	// port (the gateway NAT); a packet it drops ends the walk dropped.
	Exit Box
}

// Net is the compiled view of a whole topology: one FIB per switch plus
// the link tables. It is safe for any number of concurrent walkers; the
// only mutable state is the per-FIB snapshot pointer, which is lock-free.
type Net struct {
	fibs    []*FIB
	links   [][]Link
	tunnels map[packet.BSID]int32
	exit    Box
	maxHops int32
	o       *fpObs
}

// NewNet compiles the topology view. Snapshots are compiled lazily on
// first acquisition, so construction is cheap. A packet's walk is bounded
// at 4*len(Switches)+32 switch traversals.
func NewNet(cfg NetConfig) *Net {
	n := &Net{
		links:   cfg.Links,
		tunnels: cfg.Tunnels,
		exit:    cfg.Exit,
		maxHops: int32(4*len(cfg.Switches) + 32),
		fibs:    make([]*FIB, len(cfg.Switches)),
	}
	for i, sw := range cfg.Switches {
		n.fibs[i] = NewFIB(sw)
	}
	return n
}

// Instrument registers the fast path's telemetry on reg. Call it before
// the first walk; a Net that is never instrumented runs at zero cost.
func (n *Net) Instrument(reg *obs.Registry) {
	n.o = newFPObs(reg)
	for _, f := range n.fibs {
		f.instrument(n.o)
	}
}

// FIB returns node i's forwarding table.
func (n *Net) FIB(i int) *FIB { return n.fibs[i] }

// Warm recompiles every stale snapshot a walk has already compiled, so
// the next walk pays no compile cost; a switch no walk has reached yet
// stays uncompiled until one does, and a switch whose generation did not
// move costs two atomic loads. Control-plane sync points call it after
// patching tables.
func (n *Net) Warm() {
	for _, f := range n.fibs {
		if f.snap.Load() != nil {
			f.Acquire()
		}
	}
}

// Disp classifies how one packet's walk ended.
type Disp uint8

// Dispositions. DispNoRoute and DispLoop are forwarding errors: a verdict
// named a tunnel or port the topology does not have, or the packet
// exceeded the hop budget.
const (
	DispDelivered Disp = iota // handed to a UE at an access switch
	DispExited                // left through the gateway's Internet port
	DispDropped               // dropped by policy, a table miss, a middlebox or the NAT
	DispPunted                // to-controller verdict (the local agent resolves it)
	DispNoRoute               // output to an unknown tunnel or an unlinked port
	DispLoop                  // exceeded the hop budget
)

func (d Disp) String() string {
	switch d {
	case DispDelivered:
		return "delivered"
	case DispExited:
		return "exited"
	case DispDropped:
		return "dropped"
	case DispPunted:
		return "punted"
	case DispNoRoute:
		return "noroute"
	case DispLoop:
		return "loop"
	default:
		return fmt.Sprintf("disp(%d)", uint8(d))
	}
}

// Result is one packet's walk outcome: the disposition, the node it ended
// at, and the number of switch traversals.
type Result struct {
	Disp Disp
	Last int32
	Hops int32
}

// NoBox is the Box value of a switch step.
const NoBox int32 = -1

// Step is one event of a traced walk. A switch step (Box == NoBox) is
// Node processing the packet; Link marks that the packet then crossed a
// topology link, and DSCP is its marking as it left. A box step is the
// middlebox BoxID on one of Node's ports handling the packet.
type Step struct {
	Node int32
	Box  int32
	Link bool
	DSCP uint8
}

// group is a set of burst packets that share (node, inPort) mid-walk.
type group struct {
	node   int32
	inPort int32
	idx    []int32
}

// Walker is a caller-owned walk handle: it runs bursts in the calling
// goroutine against its private scratch (the pending-group queue, a free
// list of index slices and the burst tally), so steady-state walks
// allocate nothing. Any number of goroutines may walk the same Net
// concurrently; each needs its own Walker.
type Walker struct {
	n    *Net
	pkts []*packet.Packet
	res  []Result

	queue []group
	head  int // queue[:head] are done; popping never shrinks the backing array
	free  [][]int32
	t     tally

	tracing bool
	steps   []Step
	one     [1]*packet.Packet
	oneRes  [1]Result
}

// NewWalker returns a walk handle on the topology.
func (n *Net) NewWalker() *Walker { return &Walker{n: n} }

// Walk runs one burst entering at origin on inPort: the whole group
// traverses a switch with one snapshot acquisition, then continuing
// packets regroup by next (node, inPort) and the frontier repeats.
// Middleboxes and the exit NAT run in line, under their own locks; the
// walk itself takes none. res must have len(pkts) entries; the same slice
// is returned filled.
//
// hotpath: no alloc, no lock
func (w *Walker) Walk(origin, inPort int, pkts []*packet.Packet, res []Result) []Result {
	w.pkts, w.res = pkts, res
	w.n.o.walked(len(pkts))
	//lint:ignore hotpath warm-up growth of the free list (see get); the compiler reports the inlined make here
	first := w.get()
	for i := range pkts {
		res[i] = Result{}
		first = append(first, int32(i))
	}
	w.queue = append(w.queue[:0], group{node: int32(origin), inPort: int32(inPort), idx: first})
	for w.head = 0; w.head < len(w.queue); {
		g := w.queue[w.head]
		w.head++
		w.step(g)
		w.put(g.idx)
	}
	w.pkts, w.res = nil, nil
	return res
}

// Trace walks one packet like Walk and also returns its events, in the
// walker's scratch: the steps are valid until the walker's next call.
func (w *Walker) Trace(origin, inPort int, p *packet.Packet) (Result, []Step) {
	w.one[0] = p
	w.steps, w.tracing = w.steps[:0], true
	w.Walk(origin, inPort, w.one[:], w.oneRes[:])
	w.one[0], w.tracing = nil, false
	return w.oneRes[0], w.steps
}

// step runs one group through one switch and enqueues the survivors.
func (w *Walker) step(g group) {
	n := w.n
	snap := n.fibs[g.node].Acquire()
	//lint:ignore hotpath accumulator grows only when a recompiled snapshot gains slots (see tally.ensure)
	w.t.ensure(snap.slots())
	links := n.links[g.node]
	for _, i := range g.idx {
		p := w.pkts[i]
		r := &w.res[i]
		r.Hops++
		r.Last = g.node
		if r.Hops > n.maxHops {
			r.Disp = DispLoop
			n.o.loop()
			continue
		}
		v := snap.lookup(p, int(g.inPort), &w.t)
		out := v.Output
		switch {
		case v.ToController:
			r.Disp = DispPunted
		case v.Drop:
			r.Disp = DispDropped
		case out == switchsim.PortUE:
			r.Disp = DispDelivered
		case out == switchsim.PortExit:
			r.Disp = DispExited
			if n.exit != nil && !n.exit.Process(p) {
				r.Disp = DispDropped
			}
		case out >= switchsim.PortTunnelBase:
			if target, ok := n.tunnels[packet.BSID(out-switchsim.PortTunnelBase)]; ok {
				w.forward(i, target, switchsim.PortTunnelBase)
			} else {
				r.Disp = DispNoRoute
			}
		case out >= 0 && out < len(links) && links[out].Box != nil:
			l := &links[out]
			w.note(g.node, NoBox, false, p)
			w.note(g.node, l.BoxID, false, p)
			if l.Box.Process(p) {
				w.forward(i, g.node, out) // the box returns it on the same port
			} else {
				r.Disp = DispDropped
			}
			continue
		case out >= 0 && out < len(links) && links[out].Next != NoLink:
			w.note(g.node, NoBox, true, p)
			w.forward(i, links[out].Next, int(links[out].InPort))
			continue
		default:
			r.Disp = DispNoRoute
		}
		w.note(g.node, NoBox, false, p)
	}
	snap.flush(&w.t)
	n.o.burst(len(g.idx))
}

// note records a traced walk's step; untraced walks skip it.
func (w *Walker) note(node, box int32, link bool, p *packet.Packet) {
	if w.tracing {
		w.steps = append(w.steps, Step{Node: node, Box: box, Link: link, DSCP: p.DSCP})
	}
}

// forward appends packet i to the pending group for (node, inPort),
// creating it if this is the first packet heading there this round.
func (w *Walker) forward(i, node int32, inPort int) {
	for k := w.head; k < len(w.queue); k++ {
		if q := &w.queue[k]; q.node == node && q.inPort == int32(inPort) {
			q.idx = append(q.idx, i)
			return
		}
	}
	//lint:ignore hotpath warm-up growth of the free list (see get); the compiler reports the inlined make here
	idx := w.get()
	w.queue = append(w.queue, group{node: node, inPort: int32(inPort), idx: append(idx, i)})
}

func (w *Walker) get() []int32 {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s[:0]
	}
	//lint:ignore hotpath warm-up only: every walked slice lands back on the free list
	return make([]int32, 0, 64)
}

func (w *Walker) put(s []int32) {
	w.free = append(w.free, s)
}
