// Package dataplane assembles the full SoftCell data plane: one
// switchsim.Switch per topology node programmed from the controller's
// abstract FIBs, live middlebox instances on their attachment ports, local
// agents on the access switches, inter-station mobility tunnels, and an
// optional gateway NAT (§4.1). Packets move through the compiled
// fastpath.Net, which runs the middleboxes and the NAT in line; the
// integration and mobility tests observe every walk's hops, dispositions
// and header rewrites.
package dataplane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/mbox"
	"repro/internal/packet"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// Priority bands for materialised rules, mirroring the FIB's resolution
// order (see core.RuleBand). The matched prefix's length is added so
// longest-prefix-match holds within each band.
var bandPriority = map[core.RuleBand]int{
	core.BandLocation:  switchsim.PrioPrefix,
	core.BandTagOnly:   switchsim.PrioTag,
	core.BandTagPrefix: switchsim.PrioTagPrefix,
	core.BandPort:      switchsim.PrioPort,
	core.BandMBLoc:     switchsim.PrioMBLoc,
	core.BandMBTag:     switchsim.PrioMBTag,
	core.BandMobility:  switchsim.PrioMobility,
}

// Network is the assembled data plane.
type Network struct {
	T        *topo.Topology
	Ctrl     *core.Controller
	Switches []*switchsim.Switch
	Agents   map[packet.BSID]*agent.Agent
	Boxes    map[topo.MBInstanceID]mbox.Middlebox

	// GatewayNAT, when set, translates at the Internet boundary (§4.1).
	GatewayNAT *mbox.NAT

	plan     packet.Plan
	mbPort   map[topo.MBInstanceID]int
	agentAt  map[topo.NodeID]*agent.Agent
	bindings []publicBinding // §7 public-IP classifiers, re-applied on Sync

	fast    *fastpath.Net // the compiled network every packet walks
	walkers sync.Pool     // *fastpath.Walker for single-packet sends
	obs     *dpObs        // burst telemetry; see Instrument (obs.go)

	// Congestion scales the modelled queueing delay per hop (0 = idle
	// network: only propagation and processing latency accrue). The walk's
	// latency model serves the QoS experiments: higher-DSCP traffic waits
	// in shorter virtual queues.
	Congestion float64

	// Stats; bumped atomically so concurrent burst senders and
	// single-packet sends can tally side by side.
	Delivered uint64
	Exited    uint64
	Dropped   uint64
}

// Config parameterises New.
type Config struct {
	// Registry builds middlebox instances; MBFuncs names the function each
	// topology middlebox type realises.
	Registry *mbox.Registry
	MBFuncs  map[topo.MBType]string
	// NATPool, when non-zero, enables a gateway NAT drawing from the pool.
	NATPool packet.Prefix
}

// New assembles the data plane for a controller's topology: switches,
// middlebox instances, and one local agent per base station.
func New(ctrl *core.Controller, cfg Config) (*Network, error) {
	t := ctrl.T
	n := &Network{
		T:        t,
		Ctrl:     ctrl,
		Switches: make([]*switchsim.Switch, len(t.Nodes)),
		Agents:   make(map[packet.BSID]*agent.Agent),
		Boxes:    make(map[topo.MBInstanceID]mbox.Middlebox),
		plan:     ctrl.Plan(),
		mbPort:   make(map[topo.MBInstanceID]int),
	}
	links := make([][]fastpath.Link, len(t.Nodes))
	for i := range t.Nodes {
		n.Switches[i] = switchsim.NewSwitch(t.Nodes[i].Name)
		for _, next := range t.Nodes[i].Neighbors {
			links[i] = append(links[i], fastpath.Link{
				Next:   int32(next),
				InPort: int32(t.Nodes[next].PortTo(topo.NodeID(i))),
			})
		}
	}
	// Middlebox ports follow the link ports on the attachment switch.
	for _, inst := range t.MBoxes {
		fn, ok := cfg.MBFuncs[inst.Type]
		if !ok {
			return nil, fmt.Errorf("dataplane: no function mapped for middlebox type %d", inst.Type)
		}
		box, err := cfg.Registry.Build(fn, inst.ID)
		if err != nil {
			return nil, err
		}
		n.Boxes[inst.ID] = box
		n.mbPort[inst.ID] = len(links[inst.Attached])
		links[inst.Attached] = append(links[inst.Attached], fastpath.Link{
			Next: fastpath.NoLink, Box: boxPort{n, box}, BoxID: int32(inst.ID),
		})
	}
	n.agentAt = make(map[topo.NodeID]*agent.Agent)
	tunnels := make(map[packet.BSID]int32, len(t.Stations))
	for _, st := range t.Stations {
		tunnels[st.ID] = int32(st.Access)
		ag := agent.New(st.ID, n.Switches[st.Access], n.plan, ctrl)
		ag.PermPool = ctrl.PermPool()
		n.Agents[st.ID] = ag
		n.agentAt[st.Access] = ag
	}
	fc := fastpath.NetConfig{Switches: n.Switches, Links: links, Tunnels: tunnels}
	if cfg.NATPool != (packet.Prefix{}) {
		n.GatewayNAT = mbox.NewNAT(-1, cfg.NATPool)
		fc.Exit = natExit{n.GatewayNAT}
	}
	n.fast = fastpath.NewNet(fc)
	n.walkers.New = func() any { return n.fast.NewWalker() }
	return n, nil
}

// boxPort runs a middlebox in the walk, orienting each packet by its
// addresses.
type boxPort struct {
	n   *Network
	box mbox.Middlebox
}

func (b boxPort) Process(p *packet.Packet) bool { return b.box.Process(p, b.n.direction(p)) }

// natExit runs the gateway NAT on packets leaving for the Internet.
type natExit struct{ nat *mbox.NAT }

func (e natExit) Process(p *packet.Packet) bool { return e.nat.Process(p, mbox.Upstream) }

// Sync re-materialises every switch's TCAM from the controller's FIBs.
// Call it after control-plane changes (path installs, handoffs). Microflow
// tables and public-IP bindings are preserved.
func (n *Network) Sync() error {
	for i := range n.Switches {
		if err := n.syncSwitch(topo.NodeID(i)); err != nil {
			return err
		}
	}
	for _, b := range n.bindings {
		n.installBinding(b)
	}
	// Recompile stale snapshots now, so the control-plane change is paid
	// for here rather than on the next packet.
	n.fast.Warm()
	return nil
}

// publicBinding is one §7 gateway classifier.
type publicBinding struct {
	public packet.Addr
	loc    packet.Addr
	tag    packet.Tag
}

func (n *Network) installBinding(b publicBinding) {
	loc, tag := b.loc, b.tag
	n.Switches[n.Ctrl.Gateway()].Install(switchsim.PrioBinding, switchsim.Match{
		InPort: switchsim.AnyPort,
		Dst:    packet.Prefix{Addr: b.public, Len: 32},
	}, switchsim.Action{
		Resubmit:   true,
		Output:     -1,
		SetDst:     &loc,
		SetDstTag:  &tag,
		TagEphBits: n.plan.EphemeralBits(),
	})
}

// syncSwitch rebuilds one switch's TCAM.
func (n *Network) syncSwitch(node topo.NodeID) error {
	sw := n.Switches[node]
	sw.ClearTCAM()
	var exportErr error
	n.Ctrl.Installer.FIB(node).Export(func(r core.ExportedRule) {
		if exportErr != nil {
			return
		}
		if err := n.installExported(sw, node, r); err != nil {
			exportErr = err
		}
	})
	return exportErr
}

// installExported translates one abstract rule into a concrete TCAM entry.
func (n *Network) installExported(sw *switchsim.Switch, node topo.NodeID, r core.ExportedRule) error {
	m := switchsim.Match{InPort: switchsim.AnyPort}
	prefix := r.Prefix
	// Clamp catch-alls (like the gateway exit route) to the carrier block
	// so upstream source matches never swallow downstream traffic.
	if prefix.Len < n.plan.Carrier.Len {
		prefix = n.plan.Carrier
	}
	if r.Dir == core.Down {
		m.Dst = prefix
	} else {
		m.Src = prefix
	}
	if r.Tag != 0 {
		if r.Tag > n.plan.MaxTag() {
			return fmt.Errorf("dataplane: tag %d exceeds the plan's %d-bit field (use a wider plan for dataplane networks)", r.Tag, n.plan.TagBits)
		}
		lo, hi, err := n.plan.TagPortRange(r.Tag)
		if err != nil {
			return err
		}
		if r.Dir == core.Down {
			m.DstPortLo, m.DstPortHi = lo, hi
		} else {
			m.SrcPortLo, m.SrcPortHi = lo, hi
		}
	}
	switch {
	case r.FromMB != core.NoMB:
		m.InPort = n.mbPort[r.FromMB]
	case r.From != topo.None:
		p := n.T.Nodes[node].PortTo(r.From)
		if p < 0 {
			return fmt.Errorf("dataplane: switch %d has no port to %d", node, r.From)
		}
		m.InPort = p
	}

	var act switchsim.Action
	act.Output = -1
	switch {
	case r.NH.IsDeliver():
		// Hand to the local agent; established flows match their
		// higher-priority microflows instead.
		act.ToController = true
	case r.NH.IsExit():
		act.Output = switchsim.PortExit
	case r.NH.MB != core.NoMB:
		act.Output = n.mbPort[r.NH.MB]
	default:
		p := n.T.Nodes[node].PortTo(r.NH.Node)
		if p < 0 {
			return fmt.Errorf("dataplane: switch %d has no port to next hop %d", node, r.NH.Node)
		}
		act.Output = p
	}
	if r.NH.NewTag != 0 {
		if r.NH.NewTag > n.plan.MaxTag() {
			return fmt.Errorf("dataplane: swap tag %d exceeds the plan's tag field", r.NH.NewTag)
		}
		tag := r.NH.NewTag
		act.TagEphBits = n.plan.EphemeralBits()
		if r.Dir == core.Down {
			act.SetDstTag = &tag
		} else {
			act.SetSrcTag = &tag
		}
	}
	sw.Install(bandPriority[r.Band]+r.Prefix.Len, m, act)
	return nil
}

// Hop is one event of a packet walk.
type Hop struct {
	Node topo.NodeID
	MB   topo.MBInstanceID // core.NoMB for plain forwarding
}

// Disposition says how a walk ended.
type Disposition uint8

// Dispositions.
const (
	Delivered   Disposition = iota // handed to a UE at an access switch
	ExitedNet                      // left through the gateway's Internet port
	DroppedAt                      // dropped (policy or table miss)
	PuntedAgent                    // reached an access agent (caller handles)
)

func (d Disposition) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case ExitedNet:
		return "exited"
	case DroppedAt:
		return "dropped"
	case PuntedAgent:
		return "punted"
	default:
		return fmt.Sprintf("disposition(%d)", uint8(d))
	}
}

// WalkResult reports one packet's journey.
type WalkResult struct {
	Hops        []Hop
	Disposition Disposition
	Last        topo.NodeID
	Packet      *packet.Packet // final header state
	// Latency is the modelled one-way delay: per-hop propagation plus
	// DSCP-weighted queueing under Network.Congestion, plus middlebox
	// processing time.
	Latency time.Duration
}

// Latency model constants.
const (
	hopPropagation = 50 * time.Microsecond
	mbProcessing   = 100 * time.Microsecond
	queueUnit      = 200 * time.Microsecond
)

// queueDelay models one hop's queueing wait: congestion raises it, the
// packet's DSCP class divides it (strict-ish priority queues: CS6 traffic
// overtakes best effort).
func (n *Network) queueDelay(dscp uint8) time.Duration {
	if n.Congestion <= 0 {
		return 0
	}
	weight := 1 + time.Duration(dscp)/8 // 0->1, 10->2, 46->6, 48->7
	return time.Duration(n.Congestion*float64(queueUnit)) / weight
}

// direction infers a packet's orientation from its addresses.
func (n *Network) direction(p *packet.Packet) mbox.Direction {
	if n.plan.Carrier.Contains(p.Dst) && !n.plan.Carrier.Contains(p.Src) {
		return mbox.Downstream
	}
	return mbox.Upstream
}

// send walks one packet through the compiled network from node, entering
// on inPort, and books its disposition in the network's counters.
func (n *Network) send(node topo.NodeID, inPort int, p *packet.Packet) (WalkResult, error) {
	w := n.walkers.Get().(*fastpath.Walker)
	defer n.walkers.Put(w)
	r, steps := w.Trace(int(node), inPort, p)
	res := WalkResult{Packet: p, Last: topo.NodeID(r.Last), Hops: make([]Hop, 0, len(steps))}
	for _, s := range steps {
		if s.Box != fastpath.NoBox {
			res.Hops = append(res.Hops, Hop{Node: topo.NodeID(s.Node), MB: topo.MBInstanceID(s.Box)})
			res.Latency += mbProcessing
			continue
		}
		res.Hops = append(res.Hops, Hop{Node: topo.NodeID(s.Node), MB: core.NoMB})
		if s.Link {
			res.Latency += hopPropagation + n.queueDelay(s.DSCP)
		}
	}
	var err error
	res.Disposition, err = outcome(r)
	switch {
	case err != nil:
	case res.Disposition == Delivered:
		atomic.AddUint64(&n.Delivered, 1)
	case res.Disposition == ExitedNet:
		atomic.AddUint64(&n.Exited, 1)
	case res.Disposition == DroppedAt:
		atomic.AddUint64(&n.Dropped, 1)
	}
	return res, err
}

// outcome maps a finished walk to its disposition; a walk the topology
// cannot finish is an error.
func outcome(r fastpath.Result) (Disposition, error) {
	switch r.Disp {
	case fastpath.DispDelivered:
		return Delivered, nil
	case fastpath.DispExited:
		return ExitedNet, nil
	case fastpath.DispDropped:
		return DroppedAt, nil
	case fastpath.DispPunted:
		return PuntedAgent, nil
	case fastpath.DispNoRoute:
		return DroppedAt, fmt.Errorf("dataplane: switch %d forwarded to a port or tunnel it does not have", r.Last)
	}
	return DroppedAt, errors.New("dataplane: packet exceeded hop budget (forwarding loop?)")
}

// SendUpstream injects a packet a UE sends at its base station. First
// packets of new flows are punted to the local agent (which installs
// microflows and asks the controller if needed) and then re-injected;
// packets punted at a *destination* station (mobile-to-mobile or
// Internet-initiated arrivals) are resolved by that station's agent. Callers
// see the end-to-end outcome directly.
func (n *Network) SendUpstream(bs packet.BSID, p *packet.Packet) (WalkResult, error) {
	st, ok := n.T.Station(bs)
	if !ok {
		return WalkResult{}, fmt.Errorf("dataplane: unknown base station %d", bs)
	}
	res, err := n.send(st.Access, switchsim.PortUE, p)
	if err != nil || res.Disposition != PuntedAgent {
		return res, err
	}
	ag := n.Agents[bs]
	allowed, err := ag.HandlePacketIn(p)
	if err != nil {
		return res, err
	}
	if !allowed {
		atomic.AddUint64(&n.Dropped, 1)
		res.Disposition = DroppedAt
		return res, nil
	}
	if err := n.Sync(); err != nil { // new paths may have been installed
		return res, err
	}
	res, err = n.send(st.Access, switchsim.PortUE, p)
	if err != nil {
		return res, err
	}
	return n.resolveArrivalPunts(res, p)
}

// resolveArrivalPunts handles punts at a destination access switch: the
// local agent there installs delivery microflows for flows addressed to one
// of its UEs (M2M and public-IP arrivals), then the walk resumes.
func (n *Network) resolveArrivalPunts(res WalkResult, p *packet.Packet) (WalkResult, error) {
	for tries := 0; tries < 2 && res.Disposition == PuntedAgent; tries++ {
		ag, ok := n.agentAt[res.Last]
		if !ok {
			return res, fmt.Errorf("dataplane: punt at non-access switch %d", res.Last)
		}
		delivered, err := ag.HandleArrival(p)
		if err != nil {
			return res, err
		}
		if !delivered {
			atomic.AddUint64(&n.Dropped, 1)
			res.Disposition = DroppedAt
			return res, nil
		}
		next, err := n.send(res.Last, switchsim.PortTunnelBase, p)
		if err != nil {
			return next, err
		}
		next.Hops = append(res.Hops, next.Hops...)
		res = next
	}
	return res, nil
}

// SendDownstream injects a packet arriving from the Internet at the
// gateway. With a gateway NAT configured, the packet addresses the public
// binding; otherwise it addresses the LocIP (or a bound public IP, §7)
// directly.
func (n *Network) SendDownstream(p *packet.Packet) (WalkResult, error) {
	if n.GatewayNAT != nil && !n.GatewayNAT.Process(p, mbox.Downstream) {
		atomic.AddUint64(&n.Dropped, 1)
		return WalkResult{Disposition: DroppedAt, Last: n.Ctrl.Gateway(), Packet: p}, nil
	}
	res, err := n.send(n.Ctrl.Gateway(), switchsim.PortExit, p)
	if err != nil {
		return res, err
	}
	return n.resolveArrivalPunts(res, p)
}

// BindPublicIP exposes a UE on a public address (§7 "Traffic initiated from
// the Internet"): the gateway gets one coarse classifier rule translating
// the public destination to the UE's LocIP plus the policy tag of the given
// clause, then ordinary forwarding applies. Inbound service ports must fit
// the plan's ephemeral field (the tag rides the high bits).
func (n *Network) BindPublicIP(imsi string, public packet.Addr, clause int) error {
	ue, ok := n.Ctrl.LookupUE(imsi)
	if !ok || ue.LocIP == 0 {
		return fmt.Errorf("dataplane: UE %q is not attached", imsi)
	}
	if n.plan.Carrier.Contains(public) || n.Ctrl.PermPool().Contains(public) {
		return fmt.Errorf("dataplane: public address %s collides with internal blocks", public)
	}
	tag, err := n.Ctrl.RequestPath(ue.BS, clause)
	if err != nil {
		return err
	}
	b := publicBinding{public: public, loc: ue.LocIP, tag: tag}
	n.bindings = append(n.bindings, b)
	n.Agents[ue.BS].AllowInbound(ue.LocIP, tag)
	return n.Sync()
}

// Handoff performs the complete handoff choreography: controller move,
// new-agent admission, microflow migration with tunnelling, and TCAM
// resync. It returns the controller's result (for later ReleaseOldLocIP).
func (n *Network) Handoff(imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	ue, ok := n.Ctrl.LookupUE(imsi)
	if !ok {
		return core.HandoffResult{}, fmt.Errorf("dataplane: unknown UE %q", imsi)
	}
	oldAgent := n.Agents[ue.BS]
	res, err := n.Ctrl.Handoff(imsi, newBS)
	if err != nil {
		return res, err
	}
	newAgent := n.Agents[newBS]
	if err := newAgent.AdmitUE(res.UE, res.Classifiers); err != nil {
		return res, err
	}
	if err := oldAgent.MigrateFlows(newAgent, res.UE, res.OldLocIP); err != nil {
		return res, err
	}
	return res, n.Sync()
}

// Attach runs the attach choreography: controller admission plus agent
// state push.
func (n *Network) Attach(imsi string, bs packet.BSID) (core.UE, error) {
	ue, cls, err := n.Ctrl.Attach(imsi, bs)
	if err != nil {
		return ue, err
	}
	return ue, n.Agents[bs].AdmitUE(ue, cls)
}

// RefreshClassifiers re-pushes every attached UE's compiled classifiers to
// its agent — used after policy changes or failure recomputation, when
// cached tags have gone stale (stale tags miss and re-resolve; they never
// alias, because the controller's tag sequence survives rebuilds).
func (n *Network) RefreshClassifiers() error {
	for bs, ag := range n.Agents {
		rep := ag.LocationReport()
		for _, ue := range rep.UEs {
			u2, cls, err := n.Ctrl.Attach(ue.IMSI, bs)
			if err != nil {
				return err
			}
			if err := ag.AdmitUE(u2, cls); err != nil {
				return err
			}
		}
	}
	return n.Sync()
}

// MiddleboxStats sums consistency violations across all instances — the
// mobility experiments' pass/fail signal.
func (n *Network) MiddleboxStats() (violations, connections uint64) {
	for _, b := range n.Boxes {
		s := b.Stats()
		violations += s.Violations
		connections += s.Connections
	}
	return
}
