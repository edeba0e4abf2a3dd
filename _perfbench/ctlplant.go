package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/topo"
	"repro/internal/workload"
)

// pathKey names one warmed policy path.
type pathKey struct {
	bs     packet.BSID
	clause int
}

// ctlPlant is the control plant churn and pathstorm share: a 2-shard
// dispatcher over the K=4, C=6 topology (96 stations) with the Table 1
// policy, a registered subscriber population, every (station, allow
// clause) path warmed, the workload's steady-state population attached,
// and a ctrlproto server on the loopback TCP interface with its client
// connections dialled.
type ctlPlant struct {
	cfg     ctlConfig
	topo    *topo.Generated
	d       *shard.Dispatcher
	plan    packet.Plan
	clauses []int
	imsis   []string
	tags    map[pathKey]packet.Tag // tag answered for each path at warm-up
	pairs   []pathKey              // every warmed path, in station order
	stream  *workload.Stream
	initial []int // station of each initially attached UE (UE index = slice index)

	reg   *obs.Registry
	shim  *shim // nil when uninstrumented
	srv   *ctrlproto.Server
	ln    net.Listener
	serve chan error
	conns []*ctrlproto.Client
}

// ctlConfig is the plant part of the spec.
type ctlConfig struct {
	K, C, Shards, Subscribers, Conns int
	StartSecond                      int
}

// subscriberAttr draws a subscriber's attributes from a few profiles of the
// Table 1 carriers: A's plans and devices, and B's roamers.
func subscriberAttr(i int) policy.Attributes {
	plans := [3]string{"gold", "silver", "bronze"}
	devices := [3]string{"phone", "tablet", "m2m-fleet"}
	prov := "A"
	if i%8 == 7 {
		prov = "B"
	}
	return policy.Attributes{Provider: prov, Plan: plans[i%3], DeviceType: devices[(i/3)%3]}
}

func streamParams(stations int, startSecond int, seed int64) workload.Params {
	scale := float64(stations) / 1500
	return workload.Params{
		Stations: stations, StartSecond: startSecond, Seed: seed,
		PeakArrivalsPerSec: 206 * scale, PeakHandoffsPerSec: 275 * scale,
	}
}

func carrierMBTypes() map[string]topo.MBType {
	return map[string]topo.MBType{policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2}
}

func allowClauses(pol *policy.Policy) []int {
	var out []int
	for id := 0; id < pol.Len(); id++ {
		if cl, ok := pol.Clause(id); ok && cl.Action.Allow {
			out = append(out, id)
		}
	}
	return out
}

// buildCtlPlant builds the plant; reg nil runs it uninstrumented.
func buildCtlPlant(cfg ctlConfig, seed int64, reg *obs.Registry) (*ctlPlant, error) {
	g, err := topo.Generate(topo.GenParams{K: cfg.K, ClusterSize: cfg.C, MBTypes: 3, Seed: 1})
	if err != nil {
		return nil, err
	}
	plan := packet.DefaultPlan
	plan.TagBits = 12
	pol := policy.ExampleCarrierPolicy()
	d, err := shard.New(shard.Config{
		Topology: g.Topology, Gateway: g.GatewayID, Policy: pol, MBTypes: carrierMBTypes(),
		Shards: cfg.Shards, Plan: plan, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	p := &ctlPlant{cfg: cfg, topo: g, d: d, plan: plan, clauses: allowClauses(pol), reg: reg,
		tags: make(map[pathKey]packet.Tag)}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()

	p.imsis = make([]string, cfg.Subscribers)
	for i := range p.imsis {
		p.imsis[i] = fmt.Sprintf("imsi-%07d", i)
		if err := d.RegisterSubscriber(p.imsis[i], subscriberAttr(i)); err != nil {
			return nil, fmt.Errorf("register %s: %w", p.imsis[i], err)
		}
	}
	for _, st := range g.Stations {
		for _, c := range p.clauses {
			tag, err := d.RequestPath(st.ID, c)
			if err != nil {
				return nil, fmt.Errorf("warm bs %d clause %d: %w", st.ID, c, err)
			}
			k := pathKey{st.ID, c}
			p.tags[k] = tag
			p.pairs = append(p.pairs, k)
		}
	}
	p.stream = workload.NewStream(streamParams(len(g.Stations), cfg.StartSecond, seed))
	p.initial = p.stream.InitialPopulation()
	if len(p.initial) > len(p.imsis) {
		return nil, fmt.Errorf("initial population %d exceeds %d subscribers", len(p.initial), len(p.imsis))
	}
	for ue, bs := range p.initial {
		if _, _, err := d.Attach(p.imsis[ue], packet.BSID(bs)); err != nil {
			return nil, fmt.Errorf("initial attach: %w", err)
		}
	}

	var cp ctrlproto.ControlPlane = d
	if reg != nil {
		p.shim = newShim(d)
		cp = p.shim
	}
	p.srv = ctrlproto.NewServer(cp)
	p.srv.Instrument(reg)
	if p.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	p.serve = make(chan error, 1)
	go func() { p.serve <- p.srv.Serve(p.ln) }()
	for i := 0; i < cfg.Conns; i++ {
		cl, err := ctrlproto.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		cl.Instrument(reg)
		p.conns = append(p.conns, cl)
	}
	ok = true
	return p, nil
}

// close stops the server and the shards and waits for the server's
// goroutines to exit.
func (p *ctlPlant) close() {
	for _, cl := range p.conns {
		cl.Close()
	}
	if p.ln != nil {
		p.ln.Close()
		<-p.serve
	}
	p.d.Close()
}

// rulesMax is the largest hardware rule table across the shards.
func (p *ctlPlant) rulesMax() int {
	m := 0
	for _, s := range p.d.Shards() {
		h, _ := s.Ctrl.Installer.TableSizes()
		if h.Max() > m {
			m = h.Max()
		}
	}
	return m
}

// digestSeconds is how much of the event stream the input digest covers.
const digestSeconds = 60

// digest hashes the plant's generated inputs: topology, population,
// warmed paths and tags, and the first digestSeconds of the event stream
// (drawn from a fresh stream with the run's parameters, so the digest does
// not depend on how far a run got).
func (p *ctlPlant) digest() string {
	d := newDigest()
	d.topology(p.topo.Topology)
	d.ints(int64(len(p.imsis)))
	for _, bs := range p.initial {
		d.ints(int64(bs))
	}
	for _, k := range p.pairs {
		d.ints(int64(k.bs), int64(k.clause), int64(p.tags[k]))
	}
	st := workload.NewStream(p.stream.Params())
	st.InitialPopulation()
	for i := 0; i < digestSeconds; i++ {
		ev := st.Next()
		d.ints(int64(len(ev.Arrivals)), int64(len(ev.Handoffs)), int64(len(ev.Departures)))
		for _, bs := range ev.Arrivals {
			d.ints(int64(bs))
		}
		for _, ho := range ev.Handoffs {
			d.ints(int64(ho[0]), int64(ho[1]))
		}
		for _, bs := range ev.Departures {
			d.ints(int64(bs))
		}
		for _, n := range ev.Bearers {
			d.ints(int64(n))
		}
	}
	return d.sum()
}

// checkAttach verifies an attach reply names the requested station and a
// LocIP inside that station's prefix.
func (p *ctlPlant) checkAttach(ue core.UE, bs packet.BSID) error {
	if ue.BS != bs {
		return fmt.Errorf("attach %s: UE at bs %d, requested %d", ue.IMSI, ue.BS, bs)
	}
	pfx, err := p.plan.BSPrefix(bs)
	if err != nil {
		return err
	}
	if !pfx.Contains(ue.LocIP) {
		return fmt.Errorf("attach %s: LocIP %s outside bs %d prefix %s", ue.IMSI, ue.LocIP, bs, pfx)
	}
	return nil
}

// checkHandoff verifies a handoff reply moved the UE to its target.
func checkHandoff(hr core.HandoffResult, dst packet.BSID) error {
	if hr.UE.BS != dst {
		return fmt.Errorf("handoff %s: UE at bs %d, target %d", hr.UE.IMSI, hr.UE.BS, dst)
	}
	return nil
}

// checkPath verifies a path reply equals the tag warmed for its path.
func (p *ctlPlant) checkPath(k pathKey, tag packet.Tag) error {
	want, ok := p.tags[k]
	if !ok {
		return fmt.Errorf("path bs %d clause %d was never warmed", k.bs, k.clause)
	}
	if tag != want {
		return fmt.Errorf("path bs %d clause %d: tag %d, warmed %d", k.bs, k.clause, tag, want)
	}
	return nil
}

// shim is the traced run's ControlPlane between the ctrlproto server and
// the dispatcher: it times each dispatcher call, so the client's round
// trip minus this server-side time is the wire's own share.
type shim struct {
	d *shard.Dispatcher

	mu      sync.Mutex
	pending map[shimKey][]int64 // server ns per in-flight request, FIFO; guarded by mu
	calls   [numKinds]samples   // server-side call times; guarded by mu
}

type shimKey struct {
	kind opKind
	imsi string
	path pathKey
}

func newShim(d *shard.Dispatcher) *shim {
	return &shim{d: d, pending: make(map[shimKey][]int64)}
}

func (s *shim) record(k shimKey, ns int64) {
	s.mu.Lock()
	s.pending[k] = append(s.pending[k], ns)
	s.calls[k.kind] = append(s.calls[k.kind], ns)
	s.mu.Unlock()
}

// take pops the server-side time recorded for the oldest request under k.
func (s *shim) take(k shimKey) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.pending[k]
	if len(q) == 0 {
		return 0, false
	}
	v := q[0]
	if len(q) == 1 {
		delete(s.pending, k)
	} else {
		s.pending[k] = q[1:]
	}
	return v, true
}

// drainCalls returns and resets the server-side call times per kind.
func (s *shim) drainCalls() [numKinds]samples {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.calls
	s.calls = [numKinds]samples{}
	return out
}

func (s *shim) Attach(imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	return s.AttachCtx(obs.SpanContext{}, imsi, bs)
}

func (s *shim) AttachCtx(sc obs.SpanContext, imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	t0 := time.Now()
	ue, cls, err := s.d.AttachCtx(sc, imsi, bs)
	s.record(shimKey{kind: kindAttach, imsi: imsi}, int64(time.Since(t0)))
	return ue, cls, err
}

func (s *shim) Handoff(imsi string, bs packet.BSID) (core.HandoffResult, error) {
	return s.HandoffCtx(obs.SpanContext{}, imsi, bs)
}

func (s *shim) HandoffCtx(sc obs.SpanContext, imsi string, bs packet.BSID) (core.HandoffResult, error) {
	t0 := time.Now()
	hr, err := s.d.HandoffCtx(sc, imsi, bs)
	s.record(shimKey{kind: kindHandoff, imsi: imsi}, int64(time.Since(t0)))
	return hr, err
}

func (s *shim) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	return s.RequestPathCtx(obs.SpanContext{}, bs, clause)
}

func (s *shim) RequestPathCtx(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	t0 := time.Now()
	tag, err := s.d.RequestPathCtx(sc, bs, clause)
	s.record(shimKey{kind: kindPath, path: pathKey{bs, clause}}, int64(time.Since(t0)))
	return tag, err
}

func (s *shim) ResolveLocIP(perm packet.Addr) (packet.Addr, error) { return s.d.ResolveLocIP(perm) }

func (s *shim) RecoverLocations(r []core.AgentLocationReport) error {
	return s.d.RecoverLocations(r)
}
