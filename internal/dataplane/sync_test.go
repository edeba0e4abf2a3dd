package dataplane

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// freshTCAM materialises one switch from scratch: a new switch holding
// every rule the node's FIB exports plus, at the gateway, the public-IP
// bindings. It is the oracle the incremental Sync is held to.
func freshTCAM(t testing.TB, n *Network, node topo.NodeID) *switchsim.Switch {
	t.Helper()
	sw := switchsim.NewSwitch("oracle")
	n.Ctrl.Installer.FIB(node).Export(func(r core.ExportedRule) {
		m, err := n.ruleFor(node, r)
		if err != nil {
			t.Fatal(err)
		}
		sw.Install(m.Priority, m.Match, m.Action)
	})
	if node == n.Ctrl.Gateway() {
		for _, b := range n.bindings {
			m := n.bindingRule(b)
			sw.Install(m.Priority, m.Match, m.Action)
		}
	}
	return sw
}

// ruleKeys is a switch's TCAM as a multiset of rule contents.
func ruleKeys(sw *switchsim.Switch) map[switchsim.RuleKey]int {
	keys := make(map[switchsim.RuleKey]int)
	for _, r := range sw.Rules() {
		keys[r.Key()]++
	}
	return keys
}

// checkOracle fails t unless every switch's TCAM equals its from-scratch
// materialisation as a multiset of (priority, match, action).
func checkOracle(t testing.TB, n *Network, when string) {
	t.Helper()
	for i, sw := range n.Switches {
		got, want := ruleKeys(sw), ruleKeys(freshTCAM(t, n, topo.NodeID(i)))
		if len(got) != len(want) {
			t.Fatalf("%s: switch %d holds %d distinct rules, its FIB exports %d", when, i, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("%s: switch %d holds %d copies of %+v, want %d", when, i, got[k], k, c)
			}
		}
	}
}

// generations reads every switch's generation.
func generations(n *Network) []uint64 {
	g := make([]uint64, len(n.Switches))
	for i, sw := range n.Switches {
		g[i] = sw.Generation()
	}
	return g
}

// clauseNamed returns a policy clause's ID.
func clauseNamed(t testing.TB, pol *policy.Policy, name string) int {
	t.Helper()
	for id := 0; id < pol.Len(); id++ {
		if cl, ok := pol.Clause(id); ok && cl.Name == name {
			return id
		}
	}
	t.Fatalf("no clause %q", name)
	return -1
}

// appPacket builds a new flow of one application from a UE.
func appPacket(ue core.UE, sport uint16, app int) *packet.Packet {
	p := webPacket(ue, sport)
	switch app {
	case 1: // voice
		p.Proto, p.DstPort = packet.ProtoUDP, 5060
	case 2: // video
		p.DstPort = 554
	}
	return p
}

// TestSyncMatchesFromScratch runs seeded random control-plane histories
// — attaches, new flows, handoffs, old-LocIP releases, public-IP
// bindings, clause withdrawals and a switch failure and recovery — and
// after every Sync holds every switch's TCAM to a from-scratch
// materialisation of its FIB. A Sync with no controller change must
// leave every switch generation alone. A FIB mutation that forgot its
// version bump leaves a switch stale and fails here.
func TestSyncMatchesFromScratch(t *testing.T) {
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newGenNet(t, 3, 1)
		stations := n.T.Stations
		defaultA := clauseNamed(t, n.Ctrl.Policy, "default-A")
		voip := clauseNamed(t, n.Ctrl.Policy, "voip")
		type attached struct {
			imsi string
			bs   packet.BSID
			b    bool // provider B: roams through a firewall
		}
		var ues []attached
		var pending []core.HandoffResult
		var sport uint16 = 20000
		nextPublic := 1
		failed := topo.None
		ueAt := func(i int) core.UE {
			u, ok := n.Ctrl.LookupUE(ues[i].imsi)
			if !ok {
				t.Fatalf("seed %d: UE %s vanished", seed, ues[i].imsi)
			}
			return u
		}
		for step := 0; step < 60; step++ {
			op := rng.Intn(10)
			if len(ues) == 0 {
				op = 0
			}
			what := ""
			switch op {
			case 0, 1: // attach
				imsi := fmt.Sprintf("ue-%d", len(ues))
				prov := "A"
				if rng.Intn(4) == 0 {
					prov = "B"
				}
				plan := []string{"gold", "silver"}[rng.Intn(2)]
				if err := n.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: prov, Plan: plan}); err != nil {
					t.Fatal(err)
				}
				bs := stations[rng.Intn(len(stations))].ID
				if _, err := n.Attach(imsi, bs); err != nil {
					t.Fatalf("seed %d: attach: %v", seed, err)
				}
				if err := n.Sync(); err != nil {
					t.Fatal(err)
				}
				ues = append(ues, attached{imsi: imsi, bs: bs, b: prov == "B"})
				what = "attach"
			case 2, 3, 4: // new flow
				i := rng.Intn(len(ues))
				sport++
				if _, err := n.SendUpstream(ues[i].bs, appPacket(ueAt(i), sport, rng.Intn(3))); err != nil {
					t.Fatalf("seed %d: new flow: %v", seed, err)
				}
				what = "new flow"
			case 5, 6: // handoff
				i := rng.Intn(len(ues))
				dst := stations[rng.Intn(len(stations))].ID
				if dst == ues[i].bs {
					continue
				}
				hr, err := n.Handoff(ues[i].imsi, dst)
				if err != nil {
					t.Fatalf("seed %d: handoff: %v", seed, err)
				}
				ues[i].bs = dst
				pending = append(pending, hr)
				what = "handoff"
			case 7: // old-LocIP release (soft timeout), then Sync
				if len(pending) == 0 {
					continue
				}
				hr := pending[0]
				pending = pending[1:]
				n.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
				if err := n.Sync(); err != nil {
					t.Fatal(err)
				}
				what = "release"
			case 8: // public-IP binding or clause withdrawal
				if rng.Intn(2) == 0 {
					i := rng.Intn(len(ues))
					if ues[i].b {
						continue
					}
					public := packet.AddrFrom4(192, 0, 2, byte(nextPublic))
					nextPublic++
					if err := n.BindPublicIP(ues[i].imsi, public, defaultA); err != nil {
						t.Fatalf("seed %d: bind: %v", seed, err)
					}
					what = "bind"
				} else {
					if err := n.Ctrl.RemovePolicyPaths(voip); err != nil {
						t.Fatal(err)
					}
					if err := n.RefreshClassifiers(); err != nil {
						t.Fatal(err)
					}
					what = "withdraw voip"
				}
			case 9: // a core switch fails, or the failed one recovers
				var err error
				if failed == topo.None {
					failed = n.T.Nodes[0].ID
					for _, nd := range n.T.Nodes {
						if nd.Kind == topo.Core {
							failed = nd.ID
							break
						}
					}
					_, err = n.Ctrl.FailSwitch(failed)
					what = "fail"
				} else {
					_, err = n.Ctrl.RecoverSwitch(failed)
					failed = topo.None
					what = "recover"
				}
				if err != nil {
					t.Fatal(err)
				}
				// Shortcuts of pending handoffs did not survive the
				// recompute; their releases are no-ops now.
				if err := n.RefreshClassifiers(); err != nil {
					t.Fatal(err)
				}
			}
			checkOracle(t, n, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
			before := generations(n)
			if err := n.Sync(); err != nil {
				t.Fatal(err)
			}
			for i, g := range generations(n) {
				if g != before[i] {
					t.Fatalf("seed %d step %d (%s): a Sync with no change moved switch %d's generation %d -> %d",
						seed, step, what, i, before[i], g)
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// TestSyncKeepsRuleCounters checks that a handoff's Sync leaves the rules
// it does not change alone: same IDs, traffic counters intact.
func TestSyncKeepsRuleCounters(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	for _, imsi := range []string{"a", "m"} {
		_ = net.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
	}
	a, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("m", 2); err != nil {
		t.Fatal(err)
	}
	openFlow(t, net, 0, a, 40000)
	for i := 0; i < 5; i++ {
		openFlow(t, net, 0, a, 40000)
	}
	type seen struct {
		key     switchsim.RuleKey
		packets uint64
	}
	counted := make([]map[switchsim.RuleID]seen, len(net.Switches))
	total := 0
	for i, sw := range net.Switches {
		counted[i] = make(map[switchsim.RuleID]seen)
		for _, r := range sw.Rules() {
			if r.Packets > 0 {
				counted[i][r.ID] = seen{r.Key(), r.Packets}
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no rule counted the flow's packets")
	}

	if _, err := net.Handoff("m", 3); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for i, sw := range net.Switches {
		held := make(map[switchsim.RuleID]switchsim.Rule)
		for _, r := range sw.Rules() {
			held[r.ID] = r
		}
		keys := ruleKeys(sw)
		for id, s := range counted[i] {
			if keys[s.key] == 0 {
				continue // the handoff really changed this rule
			}
			r, ok := held[id]
			if !ok {
				t.Fatalf("switch %d: unchanged rule #%d (%d packets) was reinstalled with its counters zeroed", i, id, s.packets)
			}
			if r.Packets < s.packets {
				t.Fatalf("switch %d: rule #%d counts %d packets, had %d", i, id, r.Packets, s.packets)
			}
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("the handoff changed every counted rule; the test checks nothing")
	}
}

// TestSyncConcurrentWithBursts forwards established flows at one station
// while another goroutine runs handoffs, new flows and releases at the
// others. Every burst packet must exit as before: each Sync patches a
// switch in one atomic batch, so no walk compiles a half-built table.
// Run it under -race.
func TestSyncConcurrentWithBursts(t *testing.T) {
	net := newGenNet(t, 3, 1)
	stations := net.T.Stations
	home := stations[0].ID
	_ = net.Ctrl.RegisterSubscriber("fixed", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("fixed", home)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 16
	tmpl := make([]packet.Packet, flows)
	for i := range tmpl {
		tmpl[i] = *webPacket(ue, uint16(30000+i))
		openFlow(t, net, home, ue, uint16(30000+i))
	}
	others := stations[1:]
	mobile := make([]string, 8)
	for i := range mobile {
		mobile[i] = fmt.Sprintf("mobile-%d", i)
		_ = net.Ctrl.RegisterSubscriber(mobile[i], policy.Attributes{Provider: "A", Plan: "silver"})
		if _, err := net.Attach(mobile[i], others[i%len(others)].ID); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var bursts, wrong atomic.Int64
	var firstWrong atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sender, _ := net.NewBurstSender()
		pkts := make([]*packet.Packet, flows)
		bufs := make([]packet.Packet, flows)
		for i := range pkts {
			pkts[i] = &bufs[i]
		}
		var out []BurstOutcome
		for !stop.Load() {
			copy(bufs, tmpl)
			var err error
			if out, err = sender.Send(home, pkts, out); err != nil {
				firstWrong.CompareAndSwap(nil, err.Error())
				wrong.Add(1)
				continue
			}
			for i := range out {
				if out[i].Disposition != ExitedNet || out[i].Slow {
					firstWrong.CompareAndSwap(nil, fmt.Sprintf("packet %d: %s at %d slow=%v", i, out[i].Disposition, out[i].Last, out[i].Slow))
					wrong.Add(1)
				}
			}
			bursts.Add(1)
		}
	}()

	rng := rand.New(rand.NewSource(3))
	var pending []core.HandoffResult
	for op := 0; op < 300; op++ {
		switch rng.Intn(3) {
		case 0:
			imsi := mobile[rng.Intn(len(mobile))]
			u, _ := net.Ctrl.LookupUE(imsi)
			dst := others[rng.Intn(len(others))].ID
			if dst == u.BS {
				continue
			}
			hr, err := net.Handoff(imsi, dst)
			if err != nil {
				t.Error(err)
				break
			}
			pending = append(pending, hr)
		case 1:
			imsi := mobile[rng.Intn(len(mobile))]
			u, _ := net.Ctrl.LookupUE(imsi)
			if _, err := net.SendUpstream(u.BS, appPacket(u, uint16(40000+op), rng.Intn(3))); err != nil {
				t.Error(err)
			}
		case 2:
			if len(pending) > 0 {
				net.Ctrl.ReleaseOldLocIP(pending[0].OldLocIP, pending[0].Shortcuts)
				pending = pending[1:]
				if err := net.Sync(); err != nil {
					t.Error(err)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if bursts.Load() == 0 {
		t.Fatal("the sender finished no burst")
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d wrong dispositions over %d bursts; first: %v", w, bursts.Load(), firstWrong.Load())
	}
}

// TestSyncExportErrorRetries checks that a switch whose rules cannot be
// materialised (a policy tag wider than the plan's port field) fails
// every Sync until fixed, rather than being marked synced after the first
// failure.
func TestSyncExportErrorRetries(t *testing.T) {
	plan := packet.DefaultPlan
	plan.TagBits = 1
	net, _ := newNetWith(t, packet.Prefix{}, core.InstallerOptions{Plan: plan, UnboundedTags: true, FreshTagPerPath: true})
	for i, imsi := range []string{"a", "b"} {
		_ = net.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
		if _, err := net.Attach(imsi, packet.BSID(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Ctrl.RequestPath(packet.BSID(i), clauseNamed(t, net.Ctrl.Policy, "default-A")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := net.Sync(); err == nil {
			t.Fatalf("Sync %d accepted a tag wider than the plan", i)
		}
	}
}

// TestSyncNoopAllocs pins the common case: a Sync with no FIB change
// allocates nothing.
func TestSyncNoopAllocs(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	openFlow(t, net, 0, ue, 40000)
	if a := testing.AllocsPerRun(100, func() {
		if err := net.Sync(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("%.1f allocs per no-op Sync, want 0", a)
	}
}

// benchNet is the traffic benchmark's shape in miniature: the generated
// k=4, three-station-cluster topology with four subscribers and one open
// flow per station, plus two mobile subscribers.
func benchNet(b *testing.B) *Network {
	b.Helper()
	n := newGenNet(b, 3, 1)
	for i, st := range n.T.Stations {
		for j := 0; j < 4; j++ {
			imsi := fmt.Sprintf("ue-%d-%d", i, j)
			_ = n.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
			ue, err := n.Attach(imsi, st.ID)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := n.SendUpstream(st.ID, webPacket(ue, 20000)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, imsi := range []string{"mobile-0", "mobile-1"} {
		_ = n.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "B"})
		if _, err := n.Attach(imsi, n.T.Stations[0].ID); err != nil {
			b.Fatal(err)
		}
	}
	return n
}

// BenchmarkSync measures Sync alone: with nothing changed, and right
// after one handoff (controller move plus agent choreography, untimed).
func BenchmarkSync(b *testing.B) {
	b.Run("noop", func(b *testing.B) {
		n := benchNet(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := n.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handoff", func(b *testing.B) {
		n := benchNet(b)
		a, c := n.T.Stations[0].ID, n.T.Stations[len(n.T.Stations)-1].ID
		var last core.HandoffResult
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if last.OldLocIP != 0 {
				n.Ctrl.ReleaseOldLocIP(last.OldLocIP, last.Shortcuts)
			}
			if err := n.Sync(); err != nil {
				b.Fatal(err)
			}
			dst := c
			if i%2 == 1 {
				dst = a
			}
			var err error
			if last, err = n.handoff("mobile-0", dst); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := n.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFirstPacket measures a new flow's first packet on a cached
// tag end to end: agent packet-in and microflow install, Sync (which
// recompiles the access switch), and the walk to the Internet. The
// flow's microflows are removed, untimed, after each packet.
func BenchmarkFirstPacket(b *testing.B) {
	n := benchNet(b)
	st := n.T.Stations[0].ID
	ue, _ := n.Ctrl.LookupUE("ue-0-0")
	ag := n.Agents[st]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := webPacket(ue, uint16(30000+i%1000))
		orig := p.Flow()
		res, err := n.SendUpstream(st, p)
		if err != nil || res.Disposition != ExitedNet {
			b.Fatalf("first packet: %s %v", res.Disposition, err)
		}
		b.StopTimer()
		wire, _ := ag.FlowWireForm(ue.PermIP, orig)
		ag.Access.RemoveMicroflow(orig)
		ag.Access.RemoveMicroflow(wire.Reverse())
		if err := n.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
