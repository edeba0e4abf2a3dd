package fastpath

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/switchsim"
)

// ruleSpec is a reproducible rule description, so reference and
// fast-path switches can be built identically.
type ruleSpec struct {
	prio int
	m    switchsim.Match
	a    switchsim.Action
}

// genAction draws a random action: forward, drop, punt, or a
// resubmit/rewrite combination exercising every rewrite field.
func genAction(r *rand.Rand) switchsim.Action {
	var a switchsim.Action
	a.Output = -1
	switch r.Intn(5) {
	case 0:
		a.Output = r.Intn(4)
	case 1:
		a.Drop = true
	case 2:
		a.ToController = true
	case 3:
		a.Resubmit = true
	case 4:
		a.Output = []int{switchsim.PortUE, switchsim.PortExit, switchsim.PortTunnelBase + r.Intn(3)}[r.Intn(3)]
	}
	if r.Intn(3) == 0 {
		v := packet.Addr(r.Uint32() % 64)
		a.SetSrc = &v
	}
	if r.Intn(3) == 0 {
		v := packet.Addr(r.Uint32() % 64)
		a.SetDst = &v
	}
	if r.Intn(4) == 0 {
		v := uint16(r.Intn(1 << 12))
		a.SetSrcPort = &v
	}
	if r.Intn(4) == 0 {
		v := uint16(r.Intn(1 << 12))
		a.SetDstPort = &v
	}
	if r.Intn(4) == 0 {
		v := packet.Tag(r.Intn(15) + 1)
		a.SetSrcTag = &v
		a.TagEphBits = 10
	}
	if r.Intn(4) == 0 {
		v := packet.Tag(r.Intn(15) + 1)
		a.SetDstTag = &v
		a.TagEphBits = 10
	}
	if r.Intn(5) == 0 {
		v := uint8(r.Intn(64))
		a.SetDSCP = &v
	}
	return a
}

// genMatch draws a random match over a small address pool so packets
// actually hit rules.
func genMatch(r *rand.Rand) switchsim.Match {
	m := switchsim.MatchAll()
	if r.Intn(2) == 0 {
		m.InPort = r.Intn(4)
	}
	if r.Intn(2) == 0 {
		m.Src = packet.Prefix{Addr: packet.Addr(r.Uint32() % 64), Len: []int{8, 16, 24, 32}[r.Intn(4)]}
	}
	if r.Intn(2) == 0 {
		m.Dst = packet.Prefix{Addr: packet.Addr(r.Uint32() % 64), Len: []int{8, 16, 24, 32}[r.Intn(4)]}
	}
	if r.Intn(3) == 0 {
		lo := uint16(r.Intn(1 << 12))
		m.SrcPortLo, m.SrcPortHi = lo, lo+uint16(r.Intn(1<<10))
	}
	if r.Intn(3) == 0 {
		lo := uint16(r.Intn(1 << 12))
		m.DstPortLo, m.DstPortHi = lo, lo+uint16(r.Intn(1<<10))
	}
	if r.Intn(3) == 0 {
		m.Proto = []packet.Proto{packet.ProtoTCP, packet.ProtoUDP}[r.Intn(2)]
	}
	return m
}

func genSpecs(r *rand.Rand, n int) []ruleSpec {
	specs := make([]ruleSpec, n)
	for i := range specs {
		specs[i] = ruleSpec{prio: r.Intn(900), m: genMatch(r), a: genAction(r)}
	}
	return specs
}

func buildSwitch(specs []ruleSpec, miss switchsim.Action) *switchsim.Switch {
	sw := switchsim.NewSwitch("t")
	sw.TableMiss = miss
	for _, s := range specs {
		sw.Install(s.prio, s.m, s.a)
	}
	return sw
}

func genPacket(r *rand.Rand) *packet.Packet {
	return &packet.Packet{
		Src:     packet.Addr(r.Uint32() % 64),
		Dst:     packet.Addr(r.Uint32() % 64),
		SrcPort: uint16(r.Intn(1 << 13)),
		DstPort: uint16(r.Intn(1 << 13)),
		Proto:   []packet.Proto{packet.ProtoTCP, packet.ProtoUDP}[r.Intn(2)],
		TTL:     64,
		Payload: make([]byte, r.Intn(64)),
	}
}

func headerEq(a, b *packet.Packet) bool {
	return a.Src == b.Src && a.Dst == b.Dst &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Proto == b.Proto && a.DSCP == b.DSCP
}

// processBurst runs a burst arriving on inPort through one switch's
// compiled tables the way the walker does at every hop: one snapshot
// acquisition for the burst, one tally flush to the switch afterwards.
func processBurst(f *FIB, pkts []*packet.Packet, inPort int) []Verdict {
	snap := f.Acquire()
	var t tally
	t.ensure(snap.slots())
	vs := make([]Verdict, len(pkts))
	for i, p := range pkts {
		vs[i] = snap.lookup(p, inPort, &t)
	}
	snap.flush(&t)
	return vs
}

// checkEquivalence builds a random switch and burst from rng and fails t
// if any burst verdict or resulting header differs from the sequential
// Process path over an identical switch.
func checkEquivalence(t *testing.T, rng *rand.Rand) {
	t.Helper()
	specs := genSpecs(rng, 1+rng.Intn(24))
	misses := []switchsim.Action{
		{Output: -1},
		switchsim.DropAction(),
		switchsim.Punt(),
		{Output: rng.Intn(4)},
	}
	miss := misses[rng.Intn(len(misses))]
	fast := buildSwitch(specs, miss)
	ref := buildSwitch(specs, miss)

	burst := make([]*packet.Packet, 1+rng.Intn(64))
	seq := make([]*packet.Packet, len(burst))
	for i := range burst {
		burst[i] = genPacket(rng)
		c := *burst[i]
		seq[i] = &c
	}
	// Microflows for a few of the burst's flows, on both switches.
	for i := 0; i < len(burst); i += 3 {
		a := genAction(rng)
		fast.InstallMicroflow(burst[i].Flow(), a)
		ref.InstallMicroflow(burst[i].Flow(), a)
	}
	inPort := rng.Intn(4)

	got := processBurst(NewFIB(fast), burst, inPort)
	for i := range burst {
		want := ref.Process(seq[i], inPort)
		var wantID switchsim.RuleID
		if want.Rule != nil {
			wantID = want.Rule.ID
		}
		g := got[i]
		if g.Rule != wantID || g.Output != want.Output || g.Drop != want.Drop || g.ToController != want.ToController {
			t.Fatalf("packet %d: burst verdict (rule=%d out=%d drop=%v punt=%v) != Process (rule=%d out=%d drop=%v punt=%v)",
				i, g.Rule, g.Output, g.Drop, g.ToController, wantID, want.Output, want.Drop, want.ToController)
		}
		if !headerEq(burst[i], seq[i]) {
			t.Fatalf("packet %d: burst header %v != Process header %v", i, burst[i], seq[i])
		}
	}

	// The pipelines must account identically too: switch totals and
	// per-rule traffic counters.
	if fp, rp := atomic.LoadUint64(&fast.Processed), atomic.LoadUint64(&ref.Processed); fp != rp {
		t.Fatalf("Processed: burst %d != sequential %d", fp, rp)
	}
	if fm, rm := atomic.LoadUint64(&fast.Misses), atomic.LoadUint64(&ref.Misses); fm != rm {
		t.Fatalf("Misses: burst %d != sequential %d", fm, rm)
	}
	fr, rr := fast.Rules(), ref.Rules()
	for i := range fr {
		if fr[i].Packets != rr[i].Packets || fr[i].Bytes != rr[i].Bytes {
			t.Fatalf("rule %d counters: burst %d/%dB != sequential %d/%dB",
				fr[i].ID, fr[i].Packets, fr[i].Bytes, rr[i].Packets, rr[i].Bytes)
		}
	}
}

// TestBurstEquivalenceQuick is the property test: for arbitrary tables
// and bursts, the compiled pipeline ≡ sequential Process — verdicts, header
// rewrites, and traffic accounting.
func TestBurstEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		checkEquivalence(t, rand.New(rand.NewSource(seed)))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBurstEquivalence drives the same differential check from fuzzed
// seeds; the corpus in testdata/fuzz pins known-tricky table shapes
// (resubmit chains, overlapping priorities, tag rewrites).
func FuzzBurstEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(0x5071ce11)) // softcell
	f.Add(int64(-987654321))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEquivalence(t, rand.New(rand.NewSource(seed)))
	})
}

// TestSnapshotGeneration checks staleness detection: a snapshot is served
// only while the switch's generation matches, and every mutation kind
// bumps the generation.
func TestSnapshotGeneration(t *testing.T) {
	sw := switchsim.NewSwitch("gen")
	fib := NewFIB(sw)

	s1 := fib.Acquire()
	if s1.Gen != sw.Generation() {
		t.Fatalf("snapshot gen %d != switch gen %d", s1.Gen, sw.Generation())
	}
	if fib.Acquire() != s1 {
		t.Fatal("unchanged switch must serve the cached snapshot")
	}

	id := sw.Install(10, switchsim.MatchAll(), switchsim.Forward(1))
	s2 := fib.Acquire()
	if s2 == s1 || s2.Gen <= s1.Gen {
		t.Fatalf("Install must invalidate: gen %d -> %d, same=%v", s1.Gen, s2.Gen, s2 == s1)
	}
	if s2.NumRules() != 1 {
		t.Fatalf("recompiled snapshot has %d rules, want 1", s2.NumRules())
	}

	mutations := []func(){
		func() { sw.Remove(id) },
		func() { sw.InstallMicroflow(packet.FlowKey{Src: 1}, switchsim.Forward(2)) },
		func() { sw.RemoveMicroflow(packet.FlowKey{Src: 1}) },
		func() {
			sw.Apply([]switchsim.Mod{{Install: true, Priority: 5, Match: switchsim.MatchAll(), Action: switchsim.DropAction()}})
		},
		func() { sw.ClearTCAM() },
	}
	for i, mut := range mutations {
		before := fib.Acquire()
		mut()
		after := fib.Acquire()
		if after.Gen <= before.Gen {
			t.Fatalf("mutation %d did not bump the generation (%d -> %d)", i, before.Gen, after.Gen)
		}
	}

	// No-op mutations must not invalidate.
	before := fib.Acquire()
	if sw.Remove(id) {
		t.Fatal("double remove reported success")
	}
	if sw.RemoveMicroflow(packet.FlowKey{Src: 9}) {
		t.Fatal("removing an absent microflow reported success")
	}
	if fib.Acquire() != before {
		t.Fatal("failed removals must not invalidate the snapshot")
	}
}

// TestSnapshotSwapRace stresses concurrent burst workers against a
// control-plane mutator; run under -race it proves the steady state
// shares no locks and the swap protocol is sound. Verdicts during churn
// only need to be self-consistent; after the mutator stops, a final burst
// must match the sequential path exactly.
func TestSnapshotSwapRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := genSpecs(rng, 16)
	sw := buildSwitch(specs, switchsim.Action{Output: -1})
	fib := NewFIB(sw)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			burst := make([]*packet.Packet, 32)
			for !stop.Load() {
				for i := range burst {
					burst[i] = genPacket(r)
				}
				processBurst(fib, burst, r.Intn(4))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		var ids []switchsim.RuleID
		for i := 0; i < 400; i++ {
			switch r.Intn(4) {
			case 0:
				ids = append(ids, sw.Install(r.Intn(900), genMatch(r), genAction(r)))
			case 1:
				if len(ids) > 0 {
					sw.Remove(ids[len(ids)-1])
					ids = ids[:len(ids)-1]
				}
			case 2:
				sw.InstallMicroflow(genPacket(r).Flow(), genAction(r))
			case 3:
				sw.Apply([]switchsim.Mod{{Install: true, Priority: r.Intn(900), Match: genMatch(r), Action: genAction(r)}})
			}
		}
		stop.Store(true)
	}()
	wg.Wait()

	// Post-churn: the next Acquire sees the final generation and the burst
	// path agrees with Process again.
	snap := fib.Acquire()
	if snap.Gen != sw.Generation() {
		t.Fatalf("post-churn snapshot gen %d != switch gen %d", snap.Gen, sw.Generation())
	}
	p1, p2 := genPacket(rng), genPacket(rng)
	*p2 = *p1
	v := processBurst(fib, []*packet.Packet{p1}, 0)[0]
	want := sw.Process(p2, 0)
	if v.Output != want.Output || v.Drop != want.Drop || v.ToController != want.ToController {
		t.Fatalf("post-churn divergence: burst %+v vs process out=%d drop=%v punt=%v",
			v, want.Output, want.Drop, want.ToController)
	}
}
