package fastpath

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// testBox is a stateless box: it counts packets, drops those addressed to
// drop, and stamps the others' source with stamp when it is set.
type testBox struct {
	seen  atomic.Uint64
	drop  packet.Addr
	stamp packet.Addr
}

func (b *testBox) Process(p *packet.Packet) bool {
	b.seen.Add(1)
	if p.Dst == b.drop {
		return false
	}
	if b.stamp != 0 {
		p.Src = b.stamp
	}
	return true
}

const lineBoxID = 7

// lineNet builds a 3-node line, node 0 (access) -port0-> node 1 (core)
// -port1-> node 2 (gateway), with a middlebox on access port 1 and a box
// on the Internet exit. Destinations:
//
//	98, 99  up the line and out through the exit box, which drops 98
//	        and stamps the source of the rest with 200
//	10      delivered at the access switch
//	20      access -> core -> mobility tunnel to station 7 -> access
//	30, 31  through the access middlebox, which drops 31; 30 re-enters
//	        on the box port and is delivered
//	50      table miss (dropped)
//	60      out an unlinked port
//	70      into a tunnel to an unknown station
func lineNet(t testing.TB) (*Net, *testBox, *testBox) {
	t.Helper()
	sws := []*switchsim.Switch{
		switchsim.NewSwitch("access"), switchsim.NewSwitch("core"), switchsim.NewSwitch("gw"),
	}
	mb := &testBox{drop: 31}
	exit := &testBox{drop: 98, stamp: 200}
	links := [][]Link{
		{{Next: 1, InPort: 0}, {Next: NoLink, Box: mb, BoxID: lineBoxID}},
		{{Next: 0, InPort: 0}, {Next: 2, InPort: 0}},
		{{Next: 1, InPort: 1}},
	}
	dst := func(a packet.Addr, l int) switchsim.Match {
		return switchsim.Match{InPort: switchsim.AnyPort, Dst: packet.Prefix{Addr: a, Len: l}}
	}
	ef := uint8(46)
	up := switchsim.Forward(0)
	up.SetDSCP = &ef
	sws[0].Install(100, dst(98, 31), up)
	sws[1].Install(100, dst(98, 31), switchsim.Forward(1))
	sws[2].Install(100, dst(98, 31), switchsim.Forward(switchsim.PortExit))
	sws[0].Install(100, dst(10, 32), switchsim.Forward(switchsim.PortUE))
	sws[0].Install(100, dst(20, 32), switchsim.Forward(0))
	sws[1].Install(100, dst(20, 32), switchsim.Forward(switchsim.PortTunnelBase+7))
	back := dst(20, 32)
	back.InPort = switchsim.PortTunnelBase
	sws[0].Install(200, back, switchsim.Forward(switchsim.PortUE))
	sws[0].Install(100, dst(30, 31), switchsim.Forward(1))
	ret := dst(30, 31)
	ret.InPort = 1
	sws[0].Install(200, ret, switchsim.Forward(switchsim.PortUE))
	sws[0].Install(100, dst(60, 32), switchsim.Forward(5))
	sws[0].Install(100, dst(70, 32), switchsim.Forward(switchsim.PortTunnelBase+9))

	net := NewNet(NetConfig{
		Switches: sws,
		Links:    links,
		Tunnels:  map[packet.BSID]int32{7: 0},
		Exit:     exit,
	})
	return net, mb, exit
}

func mkPacket(dst packet.Addr) *packet.Packet {
	return &packet.Packet{Src: 10, Dst: dst, SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
}

// TestWalk drives one burst through the line and checks every kind of
// node and port: dispositions, hop counts, tunnels, the in-line
// middlebox and exit box, and the forwarding errors.
func TestWalk(t *testing.T) {
	net, mb, exit := lineNet(t)
	reg := obs.New()
	net.Instrument(reg)

	dsts := []packet.Addr{99, 10, 20, 30, 31, 50, 60, 70, 98}
	pkts := make([]*packet.Packet, len(dsts))
	for i, d := range dsts {
		pkts[i] = mkPacket(d)
	}
	res := net.NewWalker().Walk(0, switchsim.PortUE, pkts, make([]Result, len(pkts)))

	want := []Result{
		{DispExited, 2, 3},    // up through the line and out
		{DispDelivered, 0, 1}, // delivered at the access switch
		{DispDelivered, 0, 3}, // access -> core -> tunnel back to access
		{DispDelivered, 0, 2}, // access -> box -> access again
		{DispDropped, 0, 1},   // the middlebox drops it
		{DispDropped, 0, 1},   // table miss drops
		{DispNoRoute, 0, 1},   // unlinked port
		{DispNoRoute, 0, 1},   // tunnel to an unknown station
		{DispDropped, 2, 3},   // the exit box drops it
	}
	for i, w := range want {
		if res[i] != w {
			t.Errorf("packet to %d: got %s at node %d after %d hops, want %s at %d after %d",
				dsts[i], res[i].Disp, res[i].Last, res[i].Hops, w.Disp, w.Last, w.Hops)
		}
	}
	if pkts[0].Src != 200 || pkts[8].Src != 10 {
		t.Errorf("exit box rewrites: src %d and %d, want 200 and 10", pkts[0].Src, pkts[8].Src)
	}
	if got := mb.seen.Load(); got != 2 {
		t.Errorf("middlebox saw %d packets, want 2", got)
	}
	if got := exit.seen.Load(); got != 2 {
		t.Errorf("exit box saw %d packets, want 2", got)
	}
	if reg.Counter("fastpath.packets").Value() != uint64(len(pkts)) {
		t.Errorf("fastpath.packets = %d, want %d", reg.Counter("fastpath.packets").Value(), len(pkts))
	}
	if reg.Counter("fastpath.bursts").Value() == 0 {
		t.Error("fastpath.bursts counter never moved")
	}

	// A forwarding loop must exhaust the hop budget, not hang.
	loop := []*switchsim.Switch{switchsim.NewSwitch("a"), switchsim.NewSwitch("b")}
	loop[0].Install(1, switchsim.MatchAll(), switchsim.Forward(0))
	loop[1].Install(1, switchsim.MatchAll(), switchsim.Forward(0))
	ln := NewNet(NetConfig{
		Switches: loop,
		Links:    [][]Link{{{Next: 1, InPort: 0}}, {{Next: 0, InPort: 0}}},
	})
	r, steps := ln.NewWalker().Trace(0, 0, mkPacket(1))
	if r.Disp != DispLoop || r.Hops != 4*2+32+1 || len(steps) != 4*2+32 {
		t.Fatalf("loop: got %s after %d hops and %d steps, want %s after %d and %d",
			r.Disp, r.Hops, len(steps), DispLoop, 4*2+32+1, 4*2+32)
	}
}

// TestTrace checks the traced walk's events: one step per switch
// traversal, a box step after the switch that sent the packet to its
// middlebox, and the Link flag and DSCP that latency models key on.
func TestTrace(t *testing.T) {
	net, _, _ := lineNet(t)
	w := net.NewWalker()
	cases := []struct {
		dst  packet.Addr
		disp Disp
		want []Step
	}{
		{99, DispExited, []Step{{0, NoBox, true, 46}, {1, NoBox, true, 46}, {2, NoBox, false, 46}}},
		{20, DispDelivered, []Step{{0, NoBox, true, 0}, {1, NoBox, false, 0}, {0, NoBox, false, 0}}},
		{30, DispDelivered, []Step{{0, NoBox, false, 0}, {0, lineBoxID, false, 0}, {0, NoBox, false, 0}}},
		{31, DispDropped, []Step{{0, NoBox, false, 0}, {0, lineBoxID, false, 0}}},
	}
	for _, c := range cases {
		r, steps := w.Trace(0, switchsim.PortUE, mkPacket(c.dst))
		if r.Disp != c.disp || len(steps) != len(c.want) {
			t.Fatalf("dst %d: %s with steps %v, want %s with %v", c.dst, r.Disp, steps, c.disp, c.want)
		}
		for i := range steps {
			if steps[i] != c.want[i] {
				t.Fatalf("dst %d: steps %v, want %v", c.dst, steps, c.want)
			}
		}
	}
	// Walk does not trace: a later Trace starts from an empty record.
	w.Walk(0, switchsim.PortUE, []*packet.Packet{mkPacket(99)}, make([]Result, 1))
	if _, steps := w.Trace(0, switchsim.PortUE, mkPacket(10)); len(steps) != 1 {
		t.Fatalf("delivered trace has %d steps, want 1", len(steps))
	}
}

// TestConcurrentWalkers runs several goroutines, each with its own Walker
// on one Net, through the middlebox and the exit box; run under -race it
// proves walkers share nothing but the lock-free snapshots and the boxes.
func TestConcurrentWalkers(t *testing.T) {
	net, mb, exit := lineNet(t)
	const walkers, bursts = 4, 200
	dsts := []packet.Addr{99, 30, 10, 20, 99, 30, 10, 31}
	want := []Disp{DispExited, DispDelivered, DispDelivered, DispDelivered, DispExited, DispDelivered, DispDelivered, DispDropped}
	var wg sync.WaitGroup
	for g := 0; g < walkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := net.NewWalker()
			pkts := make([]*packet.Packet, len(dsts))
			res := make([]Result, len(dsts))
			for b := 0; b < bursts; b++ {
				for i, d := range dsts {
					pkts[i] = mkPacket(d)
				}
				w.Walk(0, switchsim.PortUE, pkts, res)
				for i := range res {
					if res[i].Disp != want[i] {
						t.Errorf("packet to %d: %s, want %s", dsts[i], res[i].Disp, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, w := mb.seen.Load(), uint64(walkers*bursts*3); got != w {
		t.Errorf("middlebox saw %d packets, want %d", got, w)
	}
	if got, w := exit.seen.Load(), uint64(walkers*bursts*2); got != w {
		t.Errorf("exit box saw %d packets, want %d", got, w)
	}
	// Per burst the access switch processes every packet once, plus once
	// more for each packet returning from the box or the tunnel.
	access := net.FIB(0).Switch()
	if got, w := atomic.LoadUint64(&access.Processed), uint64(walkers*bursts*(len(dsts)+3)); got != w {
		t.Errorf("access switch processed %d packets, want %d", got, w)
	}
}

// TestWalkAllocs pins Walk's "no alloc" annotation: once a walker has
// warmed up, a burst through links, the tunnel, the middlebox and the
// exit box allocates nothing, at every burst size.
func TestWalkAllocs(t *testing.T) {
	net, _, _ := lineNet(t)
	net.Instrument(obs.New())
	w := net.NewWalker()
	dsts := []packet.Addr{99, 10, 20, 30}
	for _, size := range []int{1, 8, 32} {
		tmpl := make([]packet.Packet, size)
		pkts := make([]*packet.Packet, size)
		for i := range tmpl {
			tmpl[i] = *mkPacket(dsts[i%len(dsts)])
			pkts[i] = new(packet.Packet)
		}
		res := make([]Result, size)
		walk := func() {
			for i := range pkts {
				*pkts[i] = tmpl[i]
			}
			w.Walk(0, switchsim.PortUE, pkts, res)
		}
		walk()
		if a := testing.AllocsPerRun(100, walk); a != 0 {
			t.Errorf("burst of %d: %.2f allocs per walk, want 0", size, a)
		}
	}
}
