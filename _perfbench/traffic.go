package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// trafficConfig is the traffic part of the spec.
type trafficConfig struct {
	K, C             int
	UEsPerStation    int     `json:"ues_per_station"`
	MobilePerStation int     `json:"mobile_per_station"`
	Burst            int     `json:"burst"`
	NewFlowsPerS     float64 `json:"new_flows_per_s"`
	HandoffsPerS     float64 `json:"handoffs_per_s"`
	ReleaseAfterMS   int     `json:"release_after_ms"`
	FlowLifetimeMS   int     `json:"flow_lifetime_ms"`
	StepSampleEvery  int     `json:"step_sample_every"`
	HopCheckEvery    int     `json:"hop_check_every"`
}

// Subscriber classes of the traffic plant. Gold subscribers' web flows
// match the benchmark's middlebox-free clause and stay on the compiled
// fast path; bronze and roaming subscribers' flows cross a firewall and
// finish on the slow path; foreign subscribers are denied.
const (
	classFast = iota
	classFirewall
	classDenied
)

// trafficClass maps a subscriber index to its class and attributes: seven
// in ten gold, one bronze, one roaming from B, one foreign.
func trafficClass(i int) (int, policy.Attributes) {
	switch r := i % 10; {
	case r < 7:
		return classFast, policy.Attributes{Provider: "A", Plan: "gold", DeviceType: "phone"}
	case r == 7:
		return classFirewall, policy.Attributes{Provider: "A", Plan: "bronze", DeviceType: "phone"}
	case r == 8:
		return classFirewall, policy.Attributes{Provider: "B", Plan: "gold", DeviceType: "phone"}
	default:
		return classDenied, policy.Attributes{Provider: "C", Plan: "gold", DeviceType: "phone"}
	}
}

// trafficPolicy is Table 1 plus one middlebox-free clause for gold web.
func trafficPolicy() *policy.Policy {
	pol := policy.ExampleCarrierPolicy()
	pol.Add(policy.Clause{Priority: 45, Name: "gold-web-direct",
		Pred:   policy.And(policy.Attr(policy.FieldProvider, "A"), policy.Attr(policy.FieldPlan, "gold"), policy.App(policy.AppWeb)),
		Action: policy.Via()})
	return pol
}

type trafficUE struct {
	imsi  string
	class int
	perm  packet.Addr
	bs    packet.BSID
}

// trafficPlant is the in-process data plane: 48 stations (K=4, C=3),
// the fast path enabled, every established flow's microflows installed.
type trafficPlant struct {
	topo   *topo.Generated
	ctrl   *core.Controller
	net    *dataplane.Network
	sender *dataplane.BurstSender
	plan   packet.Plan
	ues    []trafficUE       // fixed subscribers, then mobile ones
	fixed  int               // ues[:fixed] originate flows; ues[fixed:] move
	tmpl   [][]packet.Packet // per station: one burst of established flows
	want   [][]dataplane.Disposition
	reg    *obs.Registry
}

func buildTrafficPlant(cfg trafficConfig, seed int64, reg *obs.Registry) (*trafficPlant, error) {
	g, err := topo.Generate(topo.GenParams{K: cfg.K, ClusterSize: cfg.C, MBTypes: 3, Seed: 1})
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(g.Topology, core.ControllerConfig{
		Gateway: g.GatewayID, Policy: trafficPolicy(), MBTypes: carrierMBTypes(), Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	plan := ctrl.Plan()
	mreg := mbox.NewRegistry(plan, packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24))
	net, err := dataplane.New(ctrl, dataplane.Config{Registry: mreg, MBFuncs: map[topo.MBType]string{
		0: policy.MBFirewall, 1: policy.MBTranscoder, 2: policy.MBEchoCancel}})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		net.Instrument(reg)
		for _, ag := range net.Agents {
			ag.Instrument(reg)
		}
	}
	tp := &trafficPlant{topo: g, ctrl: ctrl, net: net, plan: plan, reg: reg}
	stations := len(g.Stations)
	attach := func(i int, bs packet.BSID, attr policy.Attributes, class int) error {
		imsi := fmt.Sprintf("imsi-%06d", i)
		if err := ctrl.RegisterSubscriber(imsi, attr); err != nil {
			return err
		}
		ue, err := net.Attach(imsi, bs)
		if err != nil {
			return fmt.Errorf("attach %s: %w", imsi, err)
		}
		tp.ues = append(tp.ues, trafficUE{imsi: imsi, class: class, perm: ue.PermIP, bs: bs})
		return nil
	}
	for i := 0; i < stations*cfg.UEsPerStation; i++ {
		class, attr := trafficClass(i)
		if err := attach(i, g.Stations[i%stations].ID, attr, class); err != nil {
			return nil, err
		}
	}
	tp.fixed = len(tp.ues)
	for j := 0; j < stations*cfg.MobilePerStation; j++ {
		_, attr := trafficClass(7) // bronze: handoffs re-tag a firewall path
		if err := attach(tp.fixed+j, g.Stations[j%stations].ID, attr, classFirewall); err != nil {
			return nil, err
		}
	}

	// Established flows: station s carries one burst of flows from its own
	// fixed subscribers, installed through the agent's packet-in and one
	// Sync, then opened end to end by a first pass of bursts.
	rng := rand.New(rand.NewSource(seed))
	tp.tmpl = make([][]packet.Packet, stations)
	tp.want = make([][]dataplane.Disposition, stations)
	for s := 0; s < stations; s++ {
		bs := g.Stations[s].ID
		for j := 0; j < cfg.Burst; j++ {
			ue := tp.ues[(j*stations+s)%tp.fixed]
			p := packet.Packet{Src: ue.perm, Dst: packet.AddrFrom4(93, 184, byte(rng.Intn(256)), byte(1+rng.Intn(254))),
				SrcPort: uint16(20000 + j), DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
			first := p
			allowed, err := net.Agents[bs].HandlePacketIn(&first)
			if err != nil {
				return nil, fmt.Errorf("install flow at bs %d: %w", bs, err)
			}
			want := dataplane.ExitedNet
			if !allowed {
				want = dataplane.DroppedAt
			}
			if (ue.class == classDenied) == allowed {
				return nil, fmt.Errorf("flow of class %d: allowed=%v", ue.class, allowed)
			}
			tp.tmpl[s] = append(tp.tmpl[s], p)
			tp.want[s] = append(tp.want[s], want)
		}
	}
	if err := net.Sync(); err != nil {
		return nil, err
	}
	net.EnableFastPath(1)
	if tp.sender, err = net.NewBurstSender(); err != nil {
		return nil, err
	}
	return tp, nil
}

func (tp *trafficPlant) close() { tp.net.DisableFastPath() }

// digest hashes the plant's generated inputs: topology, subscribers and
// the established flow table.
func (tp *trafficPlant) digest() string {
	d := newDigest()
	d.topology(tp.topo.Topology)
	for _, ue := range tp.ues {
		d.ints(int64(ue.class), int64(ue.bs))
	}
	for s := range tp.tmpl {
		for _, p := range tp.tmpl[s] {
			d.ints(int64(p.Src), int64(p.Dst), int64(p.SrcPort), int64(p.DstPort))
		}
	}
	return d.sum()
}

// trafficResult is one measured traffic phase.
type trafficResult struct {
	first, handoff samples // from due time
	firstCall      samples // SendUpstream alone, allowed flows
	handoffCall    samples // Network.Handoff alone
	lags           samples
	sends          samples   // per-burst BurstSender.Send time (traced)
	cycleRates     []float64 // correct packets per second of Send time, per round of all stations
	// Step-by-step first packets (traced): agent packet-in, Sync, the
	// final send, and all three.
	stepAgent, stepSync, stepSend, stepTotal samples

	packets, slow     int64 // established packets forwarded correctly, of which slow path
	newFlows, denied  int64
	handoffs          int64
	offered           int64
	attempted, failed int64
	window            time.Duration
	gc, gcEnd         gcStats
	snap0             obs.Snapshot
	backlog           bool
	digest            string
	rulesMax          int
}

// runTrafficPhase forwards established flows as fast as one goroutine can
// while new flows and handoffs arrive on their own open-loop schedules.
func runTrafficPhase(tp *trafficPlant, cfg trafficConfig, seed int64, warm, window time.Duration, chk *checker) trafficResult {
	var res trafficResult
	rng := rand.New(rand.NewSource(seed ^ 0x74726166))
	stations := len(tp.tmpl)
	pkts := make([]*packet.Packet, cfg.Burst)
	bufs := make([]packet.Packet, cfg.Burst)
	for i := range pkts {
		pkts[i] = &bufs[i]
	}
	var out []dataplane.BurstOutcome
	type pendingRel struct {
		at     time.Time
		oldLoc packet.Addr
		sc     []*core.Shortcut
	}
	var rels []pendingRel
	relAfter := time.Duration(cfg.ReleaseAfterMS) * time.Millisecond
	// New flows end after their lifetime: their microflows leave the access
	// switch, as an idle timeout would remove them, so the switch tables
	// stay the same size over the run.
	type ending struct {
		at   time.Time
		bs   packet.BSID
		keys [2]packet.FlowKey
		n    int
	}
	var ends []ending
	lifetime := time.Duration(cfg.FlowLifetimeMS) * time.Millisecond

	start := time.Now()
	measureStart := start.Add(warm)
	end := measureStart.Add(window)
	// The handoff timetable starts a fifth of a new-flow period late, so
	// with the configured rates no handoff comes due while a first packet
	// is in flight and neither waits for the other.
	flowSched := newSchedule(start, cfg.NewFlowsPerS)
	hoSched := newSchedule(start.Add(time.Duration(2e8/cfg.NewFlowsPerS)), cfg.HandoffsPerS)
	var nFlow, nHO int64
	nextFlow, nextHO := flowSched.due(0), hoSched.due(0)
	var bl backlog
	var completed int64
	nextSample := measureStart
	measuring := false
	st := 0
	var cycleNS, cyclePkts int64 // the current round of bursts over every station
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if !measuring && !now.Before(measureStart) {
			measuring = true
			res.gc = readGC()
			if tp.reg != nil {
				res.snap0 = tp.reg.Snapshot()
			}
		}
		if !now.Before(nextSample) && measuring {
			bl.sample(flowSched.index(now)+hoSched.index(now), completed)
			nextSample = now.Add(100 * time.Millisecond)
		}
		for len(rels) > 0 && !now.Before(rels[0].at) {
			tp.ctrl.ReleaseOldLocIP(rels[0].oldLoc, rels[0].sc)
			rels = rels[1:]
		}
		for len(ends) > 0 && !now.Before(ends[0].at) {
			e := ends[0]
			ends = ends[1:]
			for _, k := range e.keys[:e.n] {
				if !tp.net.Agents[e.bs].Access.RemoveMicroflow(k) {
					chk.failf("flow %v at bs %d had no microflow to expire", k, e.bs)
				}
			}
		}
		switch {
		case !now.Before(nextFlow):
			due := nextFlow
			nFlow++
			nextFlow = flowSched.due(nFlow)
			ue := tp.ues[rng.Intn(tp.fixed)]
			p := packet.Packet{Src: ue.perm, Dst: packet.AddrFrom4(151, 101, byte(rng.Intn(256)), byte(1+rng.Intn(254))),
				SrcPort: uint16(1024 + nFlow%16384), DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
			meas := !due.Before(measureStart)
			step := tp.reg != nil && cfg.StepSampleEvery > 0 && nFlow%int64(cfg.StepSampleEvery) == 0
			orig := p // the walk rewrites p's header in place
			called := time.Now()
			disp, hops, err := tp.firstPacket(ue, &p, step, &res, meas)
			done := time.Now()
			completed++
			if meas {
				res.lags = append(res.lags, int64(now.Sub(due)))
				res.offered++
				res.attempted++
			}
			want := dataplane.ExitedNet
			if ue.class == classDenied {
				want = dataplane.DroppedAt
			}
			if err == nil && disp != want {
				err = fmt.Errorf("new flow of class %d ended %s, want %s", ue.class, disp, want)
			}
			if err == nil && want == dataplane.ExitedNet && cfg.HopCheckEvery > 0 && nFlow%int64(cfg.HopCheckEvery) == 0 {
				err = tp.checkHops(ue, orig, hops)
			}
			if err != nil {
				chk.failf("first packet: %v", err)
				if meas {
					res.failed++
				}
				continue
			}
			e := ending{at: done.Add(lifetime), bs: ue.bs, keys: [2]packet.FlowKey{orig.Flow()}, n: 1}
			if want == dataplane.ExitedNet {
				wire, ok := tp.net.Agents[ue.bs].FlowWireForm(ue.perm, orig.Flow())
				if !ok {
					chk.failf("new flow %v has no wire form", orig.Flow())
				}
				e.keys[1], e.n = wire.Reverse(), 2
			}
			ends = append(ends, e)
			if !meas {
				continue
			}
			if want == dataplane.DroppedAt {
				res.denied++
				continue
			}
			res.newFlows++
			res.first = append(res.first, int64(done.Sub(due)))
			res.firstCall = append(res.firstCall, int64(done.Sub(called)))
		case !now.Before(nextHO):
			due := nextHO
			nHO++
			nextHO = hoSched.due(nHO)
			// Mobile UE j moves back and forth between its home station
			// and the next one, so agents hold a bounded set of visitors.
			j := int(nHO) % (len(tp.ues) - tp.fixed)
			ue := &tp.ues[tp.fixed+j]
			home := tp.topo.Stations[j%stations].ID
			dst := home
			if ue.bs == home {
				dst = tp.topo.Stations[(j+1)%stations].ID
			}
			called := time.Now()
			hr, err := tp.net.Handoff(ue.imsi, dst)
			done := time.Now()
			completed++
			meas := !due.Before(measureStart)
			if meas {
				res.lags = append(res.lags, int64(now.Sub(due)))
				res.offered++
				res.attempted++
			}
			if err == nil {
				err = checkHandoff(hr, dst)
			}
			if err != nil {
				chk.failf("handoff: %v", err)
				if meas {
					res.failed++
				}
				continue
			}
			ue.bs = dst
			if hr.OldLocIP != 0 {
				rels = append(rels, pendingRel{done.Add(relAfter), hr.OldLocIP, hr.Shortcuts})
			}
			if meas {
				res.handoffs++
				res.handoff = append(res.handoff, int64(done.Sub(due)))
				res.handoffCall = append(res.handoffCall, int64(done.Sub(called)))
			}
		default:
			copy(bufs, tp.tmpl[st])
			t0 := time.Now()
			var err error
			out, err = tp.sender.Send(tp.topo.Stations[st].ID, pkts, out)
			if measuring {
				d := int64(time.Since(t0))
				cycleNS += d
				if tp.reg != nil {
					res.sends = append(res.sends, d)
				}
			}
			if err != nil {
				chk.failf("burst at station %d: %v", st, err)
			}
			for i := range out {
				if out[i].Disposition != tp.want[st][i] {
					chk.failf("established flow %d at station %d ended %s, want %s", i, st, out[i].Disposition, tp.want[st][i])
					if measuring {
						res.failed++
					}
					continue
				}
				if measuring {
					res.packets++
					cyclePkts++
					if out[i].Slow {
						res.slow++
					}
				}
			}
			if measuring {
				res.attempted += int64(len(out))
			}
			if st++; st == stations {
				st = 0
				if cycleNS > 0 {
					res.cycleRates = append(res.cycleRates, float64(cyclePkts)/(float64(cycleNS)/1e9))
				}
				cycleNS, cyclePkts = 0, 0
			}
		}
	}
	res.gcEnd = readGC()
	res.window = time.Since(measureStart)
	for _, r := range rels {
		tp.ctrl.ReleaseOldLocIP(r.oldLoc, r.sc)
	}
	res.backlog = bl.grew(int64((cfg.NewFlowsPerS + cfg.HandoffsPerS) / 20))
	if v, _ := tp.net.MiddleboxStats(); v != 0 {
		chk.failf("middleboxes report %d consistency violations", v)
	}
	if _, err := tp.ctrl.CheckInvariants(); err != nil {
		chk.failf("CheckInvariants after run: %v", err)
	}
	h, _ := tp.ctrl.Installer.TableSizes()
	res.rulesMax = h.Max()
	res.digest = tp.digest()
	return res
}

// firstPacket sends a new flow's first packet: through SendUpstream, or,
// when step is set, through the calls SendUpstream makes, each timed.
func (tp *trafficPlant) firstPacket(ue trafficUE, p *packet.Packet, step bool, res *trafficResult, meas bool) (dataplane.Disposition, []dataplane.Hop, error) {
	if !step {
		wr, err := tp.net.SendUpstream(ue.bs, p)
		return wr.Disposition, wr.Hops, err
	}
	ag := tp.net.Agents[ue.bs]
	t0 := time.Now()
	allowed, err := ag.HandlePacketIn(p)
	t1 := time.Now()
	if err != nil || !allowed {
		return dataplane.DroppedAt, nil, err
	}
	if err := tp.net.Sync(); err != nil {
		return 0, nil, err
	}
	t2 := time.Now()
	wr, err := tp.net.SendUpstream(ue.bs, p)
	t3 := time.Now()
	if meas {
		res.stepAgent = append(res.stepAgent, int64(t1.Sub(t0)))
		res.stepSync = append(res.stepSync, int64(t2.Sub(t1)))
		res.stepSend = append(res.stepSend, int64(t3.Sub(t2)))
		res.stepTotal = append(res.stepTotal, int64(t3.Sub(t0)))
	}
	return wr.Disposition, wr.Hops, err
}

// checkHops verifies a first packet's walk against the controller's own
// rule-table trace for the flow's tag and LocIP.
func (tp *trafficPlant) checkHops(ue trafficUE, orig packet.Packet, hops []dataplane.Hop) error {
	wire, ok := tp.net.Agents[ue.bs].FlowWireForm(ue.perm, orig.Flow())
	if !ok {
		return fmt.Errorf("flow %v has no installed wire form", orig.Flow())
	}
	tag, _ := tp.plan.SplitPort(wire.SrcPort)
	st, _ := tp.topo.Station(ue.bs)
	events, _, err := tp.ctrl.Installer.Trace(core.Up, st.Access, tag, wire.Src)
	if err != nil {
		return err
	}
	got := walkEvents(hops)
	if len(got) != len(events) {
		return fmt.Errorf("walk %v != trace %v (tag %d, LocIP %s)", got, events, tag, wire.Src)
	}
	for i := range got {
		if got[i] != events[i] {
			return fmt.Errorf("walk %v != trace %v (tag %d, LocIP %s)", got, events, tag, wire.Src)
		}
	}
	return nil
}

// walkEvents rewrites a data-plane walk in Installer.Trace's vocabulary: a
// switch's re-processing of a packet returning from its middlebox is not a
// new event there.
func walkEvents(hops []dataplane.Hop) []core.TraceEvent {
	var ev []core.TraceEvent
	for i, h := range hops {
		if i > 0 && h.MB == core.NoMB && hops[i-1].MB != core.NoMB && hops[i-1].Node == h.Node {
			continue
		}
		ev = append(ev, core.TraceEvent{Switch: h.Node, MB: h.MB})
	}
	return ev
}

// runTraffic is the first-packet and forwarding workload.
func runTraffic(s *specT, seed int64, window time.Duration, traced bool) (*outcome, error) {
	chk := &checker{}
	sh := newSheet()
	out := &outcome{sheet: sh, checks: chk}
	cfg := s.Traffic
	build := func(reg *obs.Registry) func() (*trafficPlant, error) {
		return func() (*trafficPlant, error) { return buildTrafficPlant(cfg, seed, reg) }
	}
	out.inputs = map[string]any{"stations": 0, "ues": 0, "established_flows": 0,
		"new_flows_per_s": cfg.NewFlowsPerS, "handoffs_per_s": cfg.HandoffsPerS, "burst": cfg.Burst}
	if !traced {
		tp, setup, heap, err := timeBuild(s.Setups, build(nil), (*trafficPlant).close)
		if err != nil {
			return nil, err
		}
		defer tp.close()
		r := runTrafficPhase(tp, cfg, seed, s.warmup(), window, chk)
		trafficE2E(sh, out, tp, r)
		sh.set("setup_s", setup, "s", s.Setups)
		sh.set("heap_bytes_per_ue", heap/float64(len(tp.ues)), "B", len(tp.ues))
		return out, nil
	}

	half := window / 2
	tp, err := build(nil)()
	if err != nil {
		return nil, err
	}
	r0 := runTrafficPhase(tp, cfg, seed, s.warmup(), half, chk)
	tp.close()
	reg := tracedRegistry(1)
	if tp, err = build(reg)(); err != nil {
		return nil, err
	}
	defer tp.close()
	r := runTrafficPhase(tp, cfg, seed, s.warmup(), half, chk)
	trafficE2E(sh, out, tp, r)
	secs := r.window.Seconds()
	lag, _ := r.lags.quantileNS(0.99)
	sh.set("bench.gen_lag_p99_us", float64(lag)/1e3, "us", len(r.lags))
	sh.set("bench.offered_per_s", float64(r.offered)/secs, "1/s", int(r.offered))
	sh.set("bench.completed_per_s", float64(r.newFlows+r.denied+r.handoffs)/secs, "1/s", int(r.newFlows+r.denied+r.handoffs))
	sh.lat("agent.packet_in", r.stepAgent)
	sh.lat("dataplane.sync", r.stepSync)
	sh.lat("fastpath.send", r.sends)
	sh.ratio("dataplane.slow_share", float64(r.slow), float64(r.packets), "ratio", int(r.packets))
	d := deltaSnapshot(r.snap0, reg.Snapshot())
	c := d.Counters
	hit, miss := c["agent.cache.hit"], c["agent.cache.miss"]
	sh.ratio("agent.cache_hit_ratio", float64(hit), float64(hit+miss), "ratio", int(hit+miss))
	sh.ratio("agent.microflows_per_flow", float64(c["agent.microflows.installed"]), float64(r.newFlows), "count", int(r.newFlows))
	sh.set("fastpath.recompiles_per_s", float64(c["fastpath.snapshot.compile"])/secs, "1/s", int(c["fastpath.snapshot.compile"]))
	sh.set("fastpath.stale", float64(c["fastpath.snapshot.stale"]), "count", 1)
	sh.ratio("fastpath.allocs_per_packet", float64(r.gcEnd.mallocs-r.gc.mallocs), float64(r.packets), "count", int(r.packets))
	mh, mm := c["switchsim.micro.hit"], c["switchsim.micro.miss"]
	sh.ratio("switchsim.micro_hit_ratio", float64(mh), float64(mh+mm), "ratio", int(mh+mm))
	_, conns := tp.net.MiddleboxStats()
	sh.set("mbox.connections", float64(conns), "count", 1)
	total, _ := r.stepTotal.quantileNS(0.5)
	var parts int64
	for _, v := range []samples{r.stepAgent, r.stepSync, r.stepSend} {
		m, _ := v.quantileNS(0.5)
		parts += m
	}
	sh.ratio("trace.residual", float64(total-parts), float64(total), "ratio", len(r.stepTotal))
	traced50, _ := r.first.quantileNS(0.5)
	untraced50, _ := r0.first.quantileNS(0.5)
	sh.ratio("trace.overhead", float64(traced50-untraced50), float64(untraced50), "ratio", len(r0.first))
	return out, nil
}

// trafficE2E records traffic's end-to-end metrics and run accounting.
func trafficE2E(sh *sheet, out *outcome, tp *trafficPlant, r trafficResult) {
	out.attempted, out.failed = r.attempted, r.failed
	out.digest, out.backlog = r.digest, r.backlog
	sh.recordGC(r.gc, r.gcEnd, r.packets+r.newFlows+r.denied+r.handoffs)
	out.inputs["stations"] = len(tp.tmpl)
	out.inputs["ues"] = len(tp.ues)
	out.inputs["established_flows"] = len(tp.tmpl) * len(tp.tmpl[0])
	secs := r.window.Seconds()
	// Forwarding rate over the time spent forwarding, the median over
	// rounds of one burst per station: the new flows and handoffs that
	// share the goroutine have their own latency metrics, and a round that
	// met a collection or a recompile does not move the median.
	pps := medianF(append([]float64(nil), r.cycleRates...))
	sh.set("throughput_per_s", pps, "1/s", len(r.cycleRates))
	sh.set("fwd_pps", pps, "1/s", len(r.cycleRates))
	sh.set("fwd_pps_wall", float64(r.packets)/secs, "1/s", int(r.packets))
	sh.set("switch_rules_max", float64(r.rulesMax), "count", 1)
	sh.lat("main", r.first)
	sh.lat("side", r.handoff)
	sh.lat("first_packet", r.first)
	sh.lat("handoff", r.handoff)
	sh.lat("first_packet_call", r.firstCall)
	sh.lat("handoff_call", r.handoffCall)
	sh.ratio("fail_ratio", float64(r.failed), float64(r.attempted), "ratio", int(r.attempted))
	sh.set("denied_flows", float64(r.denied), "count", 1)
}
