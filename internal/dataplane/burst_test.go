package dataplane

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// newPlainNet builds a middlebox-free line network (gateway - core - two
// access switches) under a pure-allow policy.
func newPlainNet(t *testing.T) *Network {
	t.Helper()
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	cs := tp.AddNode(topo.Core, "cs")
	for i := 0; i < 2; i++ {
		as := tp.AddNode(topo.Access, "as")
		if err := tp.AddBaseStation(packet.BSID(i), as); err != nil {
			t.Fatal(err)
		}
		if err := tp.Connect(cs, as); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Connect(gw, cs); err != nil {
		t.Fatal(err)
	}
	pol := &policy.Policy{}
	pol.Add(policy.Clause{Priority: 10, Name: "allow-A",
		Pred: policy.Attr(policy.FieldProvider, "A"), Action: policy.Via()})
	ctrl, err := core.NewController(tp, core.ControllerConfig{Gateway: gw, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	reg := mbox.NewRegistry(ctrl.Plan(), packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24))
	net, err := New(ctrl, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// intent is the controller's own answer for an established upstream
// flow: the switch and middlebox events Installer.Trace walks for the tag
// and LocIP the sending station's agent rewrites the flow to, from the
// access switch of the station that LocIP belongs to. hops is the switch
// traversals a packet of the flow makes: one per event, since a switch
// re-processes every packet its middlebox returns, plus the sending
// access switch when a handed-off flow tunnels back to its origin.
func intent(t *testing.T, net *Network, bs packet.BSID, perm packet.Addr, flow packet.FlowKey) (events []core.TraceEvent, hops int) {
	t.Helper()
	wire, ok := net.Agents[bs].FlowWireForm(perm, flow)
	if !ok {
		t.Fatalf("flow %v has no wire form at station %d", flow, bs)
	}
	plan := net.Ctrl.Plan()
	tag, _ := plan.SplitPort(wire.SrcPort)
	origin, _, _ := plan.Split(wire.Src)
	st, _ := net.T.Station(origin)
	events, _, err := net.Ctrl.Installer.Trace(core.Up, st.Access, tag, wire.Src)
	if err != nil {
		t.Fatal(err)
	}
	hops = len(events)
	if origin != bs {
		hops++
	}
	return events, hops
}

// walkEvents rewrites a walk's hops in Installer.Trace's vocabulary: a
// switch re-processing a packet returning from its middlebox is not a
// new event there.
func walkEvents(hops []Hop) []core.TraceEvent {
	var ev []core.TraceEvent
	for i, h := range hops {
		if i > 0 && h.MB == core.NoMB && hops[i-1].MB != core.NoMB && hops[i-1].Node == h.Node {
			continue
		}
		ev = append(ev, core.TraceEvent{Switch: h.Node, MB: h.MB})
	}
	return ev
}

// checkIntent fails t unless every burst outcome exited where the
// controller's trace ends, after the trace's number of switch traversals,
// without a punt.
func checkIntent(t *testing.T, out []BurstOutcome, events []core.TraceEvent, hops int) {
	t.Helper()
	last := events[len(events)-1].Switch
	for i, o := range out {
		if o.Disposition != ExitedNet || o.Slow || o.Last != last || o.Hops != hops {
			t.Fatalf("packet %d: %s at %d after %d hops (slow=%v), want exited at %d after %d (trace %v)",
				i, o.Disposition, o.Last, o.Hops, o.Slow, last, hops, events)
		}
	}
}

// checkSequence fails t unless one more packet of the flow, sent alone,
// walks exactly the controller's trace; skip drops the sending access
// switch of a handed-off flow.
func checkSequence(t *testing.T, net *Network, bs packet.BSID, p *packet.Packet, events []core.TraceEvent, skip int) {
	t.Helper()
	wr, err := net.SendUpstream(bs, p)
	if err != nil {
		t.Fatal(err)
	}
	got := walkEvents(wr.Hops[skip:])
	if wr.Disposition != ExitedNet || len(got) != len(events) {
		t.Fatalf("walk %s %v != trace %v", wr.Disposition, got, events)
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("walk %v != trace %v", got, events)
		}
	}
}

// burstOf returns n packets of the flow webPacket(ue, sport) builds.
func burstOf(ue core.UE, sport uint16, n int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = webPacket(ue, sport)
		pkts[i].Seq = uint32(i)
	}
	return pkts
}

// TestBurstPureFastPath sends an established flow as a burst and checks
// every packet against the controller's trace, with the headers the
// agent's wire form promises.
func TestBurstPureFastPath(t *testing.T) {
	net := newPlainNet(t)
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Prime: first packet installs the flow's microflows and paths.
	first := webPacket(ue, 40000)
	if _, err := net.SendUpstream(0, first); err != nil {
		t.Fatal(err)
	}
	events, hops := intent(t, net, 0, ue.PermIP, webPacket(ue, 40000).Flow())

	reg := obs.New()
	net.Instrument(reg)
	sender, err := net.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}
	const burst = 32
	pkts := burstOf(ue, 40000, burst)
	out, err := sender.Send(0, pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkIntent(t, out, events, hops)
	for i, p := range pkts {
		if p.Src != first.Src || p.SrcPort != first.SrcPort || p.Dst != first.Dst || p.DstPort != first.DstPort {
			t.Fatalf("packet %d headers %v, want the primed flow's %v", i, p, first)
		}
	}
	if got := atomic.LoadUint64(&net.Exited); got != 1+burst {
		t.Fatalf("Exited = %d, want %d", got, 1+burst)
	}
	if v := reg.Counter("dataplane.burst.packets").Value(); v != burst {
		t.Fatalf("dataplane.burst.packets = %d, want %d", v, burst)
	}
	if v := reg.Counter("fastpath.packets").Value(); v != burst {
		t.Fatalf("fastpath.packets = %d, want %d", v, burst)
	}
	if v := reg.Counter("dataplane.slowpath").Value(); v != 0 {
		t.Fatalf("dataplane.slowpath = %d, want 0", v)
	}
	checkSequence(t, net, 0, webPacket(ue, 40000), events, 0)
}

// TestBurstSlowPathFallback runs bursts over the fig3 network, where every
// allowed flow traverses a firewall. Brand-new flows punt and resolve
// through the agent; once established, the same flows walk through the
// firewall in line and match the controller's trace.
func TestBurstSlowPathFallback(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := net.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}

	// Three flows, two packets each, interleaved in one burst: every
	// packet punts (the burst walked before any flow was installed) and
	// resolves through the agent.
	mk := func() []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < 6; i++ {
			pkts = append(pkts, webPacket(ue, uint16(40000+i%3)))
		}
		return pkts
	}
	out, err := sender.Send(0, mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Disposition != ExitedNet || !out[i].Slow {
			t.Fatalf("new-flow packet %d: %s slow=%v, want exited through the agent", i, out[i].Disposition, out[i].Slow)
		}
	}

	// Established: the firewall runs in line, nothing punts.
	fwBefore := firewallPackets(net)
	out, err = sender.Send(0, mk(), out)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		events, hops := intent(t, net, 0, ue.PermIP, webPacket(ue, uint16(40000+f)).Flow())
		if names := mbNames(net, eventHops(events)); len(names) != 1 || names[0] != "firewall" {
			t.Fatalf("trace middleboxes = %v, want [firewall]", names)
		}
		checkIntent(t, []BurstOutcome{out[f], out[f+3]}, events, hops)
		checkSequence(t, net, 0, webPacket(ue, uint16(40000+f)), events, 0)
	}
	if got := firewallPackets(net) - fwBefore; got != 6+3 {
		t.Fatalf("firewall saw %d packets, want 9", got)
	}
	if got := atomic.LoadUint64(&net.Exited); got != 6+6+3 {
		t.Fatalf("Exited = %d, want 15", got)
	}
	if v, _ := net.MiddleboxStats(); v != 0 {
		t.Fatalf("middlebox violations = %d", v)
	}
}

// TestBurstGatewayNAT checks the NAT'd exit in line: established bursts
// leave through the same public binding the flow's first packet got.
func TestBurstGatewayNAT(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	net, _ := newNet(t, pool)
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := openFlow(t, net, 0, ue, 40000)
	if !pool.Contains(first.Src) {
		t.Fatalf("first packet left as %s, outside the NAT pool", first.Src)
	}
	events, hops := intent(t, net, 0, ue.PermIP, webPacket(ue, 40000).Flow())

	sender, _ := net.NewBurstSender()
	pkts := burstOf(ue, 40000, 8)
	out, err := sender.Send(0, pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkIntent(t, out, events, hops)
	for i, p := range pkts {
		if p.Src != first.Src || p.SrcPort != first.SrcPort {
			t.Fatalf("packet %d left as %s:%d, want the binding %s:%d", i, p.Src, p.SrcPort, first.Src, first.SrcPort)
		}
	}
	checkSequence(t, net, 0, webPacket(ue, 40000), events, 0)
}

// TestBurstMobilityTunnel sends an old flow's burst from the station its
// UE handed off to: each packet tunnels back to the origin station and
// follows the old path through the same firewall (§5.1).
func TestBurstMobilityTunnel(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("m", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := openFlow(t, net, 0, ue, 40000)
	if _, err := net.Handoff("m", 3); err != nil {
		t.Fatal(err)
	}
	events, hops := intent(t, net, 3, ue.PermIP, webPacket(ue, 40000).Flow())
	if st, _ := net.T.Station(0); events[0].Switch != st.Access || hops != len(events)+1 {
		t.Fatalf("old flow's trace %v (%d hops) does not start at the origin access switch", events, hops)
	}

	sender, _ := net.NewBurstSender()
	pkts := burstOf(ue, 40000, 8)
	out, err := sender.Send(3, pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkIntent(t, out, events, hops)
	for i, p := range pkts {
		if p.Src != first.Src || p.SrcPort != first.SrcPort {
			t.Fatalf("packet %d left as %s:%d, want the old LocIP form %s:%d", i, p.Src, p.SrcPort, first.Src, first.SrcPort)
		}
	}
	checkSequence(t, net, 3, webPacket(ue, 40000), events, 1)
	if v, _ := net.MiddleboxStats(); v != 0 {
		t.Fatalf("policy consistency violations: %d", v)
	}
}

// TestBurstSendAllocs pins the steady state: a burst of established flows
// through the firewall allocates nothing.
func TestBurstSendAllocs(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	net.Instrument(obs.New())
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 8
	tmpl := make([]packet.Packet, flows)
	pkts := make([]*packet.Packet, flows)
	for i := range tmpl {
		tmpl[i] = *webPacket(ue, uint16(40000+i))
		openFlow(t, net, 0, ue, uint16(40000+i))
		pkts[i] = new(packet.Packet)
	}
	sender, _ := net.NewBurstSender()
	out := make([]BurstOutcome, flows)
	send := func() {
		for i := range pkts {
			*pkts[i] = tmpl[i]
		}
		if out, err = sender.Send(0, pkts, out); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if a := testing.AllocsPerRun(100, send); a != 0 {
		t.Fatalf("%.2f allocs per established burst, want 0", a)
	}
	for i := range out {
		if out[i].Disposition != ExitedNet || out[i].Slow {
			t.Fatalf("packet %d: %s slow=%v, want exited without a punt", i, out[i].Disposition, out[i].Slow)
		}
	}
}

// firewallPackets sums the packets every firewall instance has seen.
func firewallPackets(net *Network) uint64 {
	var n uint64
	for _, b := range net.Boxes {
		if b.Func() == "firewall" {
			n += b.Stats().Packets
		}
	}
	return n
}

// eventHops turns trace events back into walk hops, for mbNames.
func eventHops(events []core.TraceEvent) []Hop {
	hops := make([]Hop, len(events))
	for i, e := range events {
		hops[i] = Hop{Node: e.Switch, MB: e.MB}
	}
	return hops
}

// TestBurstSeesSyncedRules checks control-plane invalidation through the
// data plane: rules installed after the sender exists (attach +
// first-packet punt, then Sync) are visible to later bursts.
func TestBurstSeesSyncedRules(t *testing.T) {
	net := newPlainNet(t)
	sender, err := net.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}

	_ = net.Ctrl.RegisterSubscriber("b", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("b", 1)
	if err != nil {
		t.Fatal(err)
	}

	// First burst: brand-new flow, must resolve through the agent yet
	// still exit.
	first := []*packet.Packet{webPacket(ue, 41000)}
	out, err := sender.Send(1, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Disposition != ExitedNet || !out[0].Slow {
		t.Fatalf("first packet: %s slow=%v, want exited through the agent", out[0].Disposition, out[0].Slow)
	}

	// Second burst: the punt installed microflows and Sync warmed the
	// snapshots, so the same flow now walks without a punt.
	second := []*packet.Packet{webPacket(ue, 41000), webPacket(ue, 41000)}
	out, err = sender.Send(1, second, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Disposition != ExitedNet || out[i].Slow {
			t.Fatalf("packet %d after sync: %s slow=%v, want exited without a punt",
				i, out[i].Disposition, out[i].Slow)
		}
	}
}
