package main

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
)

// opKind is a wire operation of the control workloads.
type opKind uint8

const (
	kindAttach opKind = iota
	kindHandoff
	kindPath
	numKinds
)

var kindNames = [numKinds]string{"attach", "handoff", "path"}

// churnOp is one scheduled wire operation.
type churnOp struct {
	kind     opKind
	ue       int32
	bs       packet.BSID // attach station, handoff target, or path origin
	clause   int
	due      time.Time
	measured bool  // due inside the measured window
	second   int32 // second of the measured window the operation was due in
}

// release is one handoff's deferred §5.1 old-LocIP release.
type release struct {
	sec    int
	dst    packet.BSID
	oldLoc packet.Addr
	sc     []*core.Shortcut
}

// opStats is what one worker goroutine measured; workers merge at the end.
type opStats struct {
	lat     [numKinds]samples // from due time to reply
	second  [numKinds][]int32 // second each lat sample was due in
	call    [numKinds]samples // from send to reply (traced runs)
	self    [numKinds]samples // call minus server-side time (traced runs)
	done    [numKinds]int64
	failed  int64
	sloMiss int64
}

func (s *opStats) merge(o *opStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
		s.second[k] = append(s.second[k], o.second[k]...)
		s.call[k] = append(s.call[k], o.call[k]...)
		s.self[k] = append(s.self[k], o.self[k]...)
		s.done[k] += o.done[k]
	}
	s.failed += o.failed
	s.sloMiss += o.sloMiss
}

// churnResult is one measured churn phase.
type churnResult struct {
	stats     opStats
	offered   int64
	lags      samples
	backlog   bool
	window    time.Duration
	skipped   int64 // stream events the model could not map onto a UE
	detaches  int64
	releases  int64
	gc, gcEnd gcStats
	snap0     obs.Snapshot      // registry at the start of the window (traced)
	calls     [numKinds]samples // shim call times over the window (traced)
	digest    string
	rulesMax  int
	invariant error
}

// churnModel owns the generator-side model of which UE is where.
type churnModel struct {
	p      *ctlPlant
	cfg    churnConfig
	chk    *checker
	traced bool
	spans  [numKinds]*obs.SpanName

	busy      []atomic.Bool // UE has a wire operation in flight
	at        [][]int32     // attached UEs per station (generator-owned)
	detached  []int32
	nextFresh int32
	sec       atomic.Int64 // current simulated second

	relMu sync.Mutex
	rels  []release // guarded by relMu
}

type churnConfig struct {
	OfferedPerSec   float64            `json:"offered_ops_per_s"`
	WorkersPerConn  int                `json:"workers_per_conn"`
	ReleaseAfterSec int                `json:"release_after_sim_s"`
	SLOUS           map[string]float64 `json:"slo_us"`
}

// streamItem is one event of the §6.1 stream: an operation kind (or a
// departure) and its stations or clause.
type streamItem struct {
	kind int8 // departure, or an opKind
	a, b int
}

const departure = -1

// eventCursor flattens the stream's simulated seconds into one sequence of
// events, shuffled within each second, so the stream can be replayed at one
// fixed rate whatever its per-second shape.
type eventCursor struct {
	cd    *churnModel
	rng   *rand.Rand
	items []streamItem
	next  int
	rels  *int64
}

func (c *eventCursor) pop() streamItem {
	for c.next == len(c.items) {
		p := c.cd.p
		ev := p.stream.Next()
		c.cd.sec.Store(int64(ev.Sec))
		c.cd.expire(ev.Sec, c.rels)
		c.items, c.next = c.items[:0], 0
		for _, bs := range ev.Arrivals {
			c.items = append(c.items, streamItem{int8(kindAttach), bs, 0})
		}
		for _, ho := range ev.Handoffs {
			c.items = append(c.items, streamItem{int8(kindHandoff), ho[0], ho[1]})
		}
		for _, bs := range ev.Departures {
			c.items = append(c.items, streamItem{departure, bs, 0})
		}
		for bs, n := range ev.Bearers {
			for j := 0; j < n; j++ {
				c.items = append(c.items, streamItem{int8(kindPath), bs, p.clauses[c.rng.Intn(len(p.clauses))]})
			}
		}
		c.rng.Shuffle(len(c.items), func(x, y int) { c.items[x], c.items[y] = c.items[y], c.items[x] })
	}
	c.next++
	return c.items[c.next-1]
}

// runChurnPhase drives the §6.1 event stream over the plant at the offered
// rate for warm, lets the plant go idle, collects garbage, and drives it
// again for the measured window. A collection of the plant's large heap
// takes a core for a long stretch, and whether one fell inside a window
// would otherwise decide the run's tail.
func runChurnPhase(p *ctlPlant, cfg churnConfig, seed int64, warm, window time.Duration, chk *checker) churnResult {
	cd := &churnModel{p: p, cfg: cfg, chk: chk, traced: p.reg != nil,
		busy: make([]atomic.Bool, len(p.imsis)), at: make([][]int32, len(p.topo.Stations))}
	for ue, bs := range p.initial {
		cd.at[bs] = append(cd.at[bs], int32(ue))
	}
	cd.nextFresh = int32(len(p.initial))
	if cd.traced {
		for k := range cd.spans {
			cd.spans[k] = p.reg.SpanName("bench." + kindNames[k])
		}
	}
	var slo [numKinds]time.Duration
	for k := range slo {
		slo[k] = time.Duration(cfg.SLOUS[kindNames[k]] * 1e3)
	}

	var res churnResult
	var completed atomic.Int64
	queues := make([]chan churnOp, len(p.conns))
	stats := make([]opStats, len(p.conns)*cfg.WorkersPerConn)
	var wg sync.WaitGroup
	for c := range queues {
		// Sized to hold a few hundred milliseconds of offered load, so a
		// brief stall of the workers never blocks the generator; a full
		// queue shows up as generator lag.
		queues[c] = make(chan churnOp, 4096)
		for w := 0; w < cfg.WorkersPerConn; w++ {
			wg.Add(1)
			go func(cl *ctrlproto.Client, q chan churnOp, st *opStats) {
				defer wg.Done()
				for op := range q {
					cd.do(cl, op, st, slo)
					completed.Add(1)
				}
			}(p.conns[c], queues[c], &stats[c*cfg.WorkersPerConn+w])
		}
	}
	cur := &eventCursor{cd: cd, rng: rand.New(rand.NewSource(seed ^ 0x6368726e)), rels: &res.releases}

	var sent int64
	// drive sends operations on a fresh schedule until d has passed.
	drive := func(d time.Duration, measured bool) {
		start := time.Now()
		end := start.Add(d)
		sched := newSchedule(start, cfg.OfferedPerSec)
		var bl backlog
		base := completed.Load()
		nextSample := start
	loop:
		for i := int64(0); ; {
			it := cur.pop()
			if it.kind != departure && !sched.due(i).Before(end) {
				cur.next-- // leave the event for the next drive
				break loop
			}
			if it.kind == departure {
				if cd.depart(it.a) {
					res.detaches++
				} else {
					res.skipped++
				}
				continue
			}
			op, ok := cd.pick(opKind(it.kind), it.a, it.b)
			if !ok {
				res.skipped++
				continue
			}
			due, lag := sched.waitFor(i)
			i++
			sent++
			op.due, op.measured = due, measured
			op.second = int32(due.Sub(start) / time.Second)
			if measured {
				res.offered++
				res.lags = append(res.lags, int64(lag))
				if now := time.Now(); !now.Before(nextSample) {
					bl.sample(sched.index(now), completed.Load()-base)
					nextSample = now.Add(100 * time.Millisecond)
				}
			}
			queues[i%int64(len(queues))] <- op
		}
		if measured {
			res.backlog = bl.grew(int64(cfg.OfferedPerSec / 20))
		}
	}
	defer lockPrecise()()
	drive(warm, false)
	for completed.Load() < sent {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	if p.shim != nil {
		p.shim.drainCalls() // drop warm-up calls
		res.snap0 = p.reg.Snapshot()
	}
	res.gc = readGC()
	measureStart := time.Now()
	drive(window, true)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	res.window = time.Since(measureStart)
	res.gcEnd = readGC()
	if p.shim != nil {
		res.calls = p.shim.drainCalls()
	}
	for w := range stats {
		res.stats.merge(&stats[w])
	}
	cd.expire(int(^uint(0)>>1), &res.releases)
	res.digest = p.digest()
	res.rulesMax = p.rulesMax()
	_, res.invariant = p.d.CheckInvariants()
	return res
}

// pick maps a stream event onto a concrete UE and marks it busy. The
// model moves the UE when the operation is sent; the operation is expected to succeed,
// and a failure fails the run.
func (cd *churnModel) pick(kind opKind, a, b int) (churnOp, bool) {
	switch kind {
	case kindAttach:
		var ue int32
		if n := len(cd.detached); n > 0 {
			ue = cd.detached[n-1]
			cd.detached = cd.detached[:n-1]
		} else if int(cd.nextFresh) < len(cd.busy) {
			ue = cd.nextFresh
			cd.nextFresh++
		} else {
			return churnOp{}, false
		}
		cd.busy[ue].Store(true)
		cd.at[a] = append(cd.at[a], ue)
		return churnOp{kind: kind, ue: ue, bs: packet.BSID(a)}, true
	case kindHandoff:
		ue, ok := cd.take(a)
		if !ok {
			return churnOp{}, false
		}
		cd.busy[ue].Store(true)
		cd.at[b] = append(cd.at[b], ue)
		return churnOp{kind: kind, ue: ue, bs: packet.BSID(b)}, true
	default:
		return churnOp{kind: kind, bs: packet.BSID(a), clause: b}, true
	}
}

// take removes a UE without an operation in flight from a station, the
// most recently arrived first.
func (cd *churnModel) take(bs int) (int32, bool) {
	l := cd.at[bs]
	for j := len(l) - 1; j >= 0; j-- {
		ue := l[j]
		if cd.busy[ue].Load() {
			continue
		}
		cd.at[bs] = append(l[:j], l[j+1:]...)
		return ue, true
	}
	return 0, false
}

// depart detaches one idle UE at a station, in-process: ctrlproto has no
// detach message.
func (cd *churnModel) depart(bs int) bool {
	ue, ok := cd.take(bs)
	if !ok {
		return false
	}
	if err := cd.p.d.Detach(cd.p.imsis[ue]); err != nil {
		cd.chk.failf("detach %s: %v", cd.p.imsis[ue], err)
	}
	cd.detached = append(cd.detached, ue)
	return true
}

// expire performs the releases due by simulated second sec, in-process:
// ctrlproto carries no release message.
func (cd *churnModel) expire(sec int, n *int64) {
	cd.relMu.Lock()
	var due []release
	kept := cd.rels[:0]
	for _, r := range cd.rels {
		if r.sec <= sec {
			due = append(due, r)
		} else {
			kept = append(kept, r)
		}
	}
	cd.rels = kept
	cd.relMu.Unlock()
	for _, r := range due {
		s, err := cd.p.d.ShardOf(r.dst)
		if err != nil {
			cd.chk.failf("release %s: %v", r.oldLoc, err)
			continue
		}
		s.Ctrl.ReleaseOldLocIP(r.oldLoc, r.sc)
		*n++
	}
}

// do sends one operation over the wire and checks its reply.
func (cd *churnModel) do(cl *ctrlproto.Client, op churnOp, st *opStats, slo [numKinds]time.Duration) {
	p := cd.p
	var sp obs.Span
	if cd.traced {
		sp = cd.spans[op.kind].Root()
	}
	sent := time.Now()
	var err error
	var key shimKey
	switch op.kind {
	case kindAttach:
		imsi := p.imsis[op.ue]
		key = shimKey{kind: kindAttach, imsi: imsi}
		var ue core.UE
		if ue, _, err = cl.AttachCtx(sp.Context(), imsi, op.bs); err == nil {
			err = p.checkAttach(ue, op.bs)
		}
		cd.busy[op.ue].Store(false)
	case kindHandoff:
		imsi := p.imsis[op.ue]
		key = shimKey{kind: kindHandoff, imsi: imsi}
		var hr core.HandoffResult
		if hr, err = cl.HandoffCtx(sp.Context(), imsi, op.bs); err == nil {
			if err = checkHandoff(hr, op.bs); err == nil && hr.OldLocIP != 0 {
				cd.relMu.Lock()
				cd.rels = append(cd.rels, release{sec: int(cd.sec.Load()) + cd.cfg.ReleaseAfterSec,
					dst: op.bs, oldLoc: hr.OldLocIP, sc: hr.Shortcuts})
				cd.relMu.Unlock()
			}
		}
		cd.busy[op.ue].Store(false)
	case kindPath:
		k := pathKey{op.bs, op.clause}
		key = shimKey{kind: kindPath, path: k}
		var tag packet.Tag
		if tag, err = cl.RequestPathCtx(sp.Context(), op.bs, op.clause); err == nil {
			err = p.checkPath(k, tag)
		}
	}
	done := time.Now()
	sp.End()
	call := int64(done.Sub(sent))
	if op.measured && err == nil {
		st.call[op.kind] = append(st.call[op.kind], call)
	}
	if p.shim != nil {
		// Pop even for warm-up operations so FIFO pairing stays aligned.
		if server, ok := p.shim.take(key); ok && op.measured {
			st.self[op.kind] = append(st.self[op.kind], call-server)
		}
	}
	if err != nil {
		cd.chk.failf("%s: %v", kindNames[op.kind], err)
	}
	if !op.measured {
		return
	}
	lat := done.Sub(op.due)
	if err != nil {
		st.failed++
		st.sloMiss++
		return
	}
	st.done[op.kind]++
	st.lat[op.kind] = append(st.lat[op.kind], int64(lat))
	st.second[op.kind] = append(st.second[op.kind], op.second)
	if lat > slo[op.kind] {
		st.sloMiss++
	}
}

// runChurn is the churn workload. Untraced, it sets the plant up and
// measures it for window. Traced, it measures an uninstrumented plant and
// then an instrumented one for half the window each, so trace.overhead
// compares the two.
func runChurn(s *specT, seed int64, window time.Duration, traced bool) (*outcome, error) {
	chk := &checker{}
	sh := newSheet()
	out := &outcome{sheet: sh, checks: chk}
	build := func(reg *obs.Registry) func() (*ctlPlant, error) {
		return func() (*ctlPlant, error) { return buildCtlPlant(s.Plant, seed, reg) }
	}
	if !traced {
		p, setup, heap, err := timeBuild(s.Setups, build(nil), (*ctlPlant).close)
		if err != nil {
			return nil, err
		}
		defer p.close()
		r := runChurnPhase(p, s.Churn, seed, s.warmup(), window, chk)
		churnE2E(sh, out, r, chk)
		sh.set("setup_s", setup, "s", s.Setups)
		sh.set("heap_bytes_per_ue", heap/float64(len(p.imsis)), "B", len(p.imsis))
		out.inputs = map[string]any{"subscribers": len(p.imsis), "initial_attached": len(p.initial),
			"stations": len(p.topo.Stations), "offered_ops_per_s": s.Churn.OfferedPerSec}
		return out, nil
	}

	half := window / 2
	p, err := build(nil)()
	if err != nil {
		return nil, err
	}
	r0 := runChurnPhase(p, s.Churn, seed, s.warmup(), half, chk)
	p.close()
	untraced := r0.stats.lat[kindHandoff]

	reg := tracedRegistry(s.TraceSampleEvery["churn"])
	if p, err = build(reg)(); err != nil {
		return nil, err
	}
	defer p.close()
	var depth []*obs.Gauge
	for i := 0; i < s.Plant.Shards; i++ {
		depth = append(depth, reg.Sub("shard."+strconv.Itoa(i)).Gauge("queue.depth"))
	}
	pl := startPoller(reg, depth)
	r := runChurnPhase(p, s.Churn, seed, s.warmup(), half, chk)
	depthMax, recs := pl.finish()
	churnE2E(sh, out, r, chk)
	controlPhaseLayers(sh, &r.stats, r.calls, r.offered, r.lags, r.window)
	controlLayers(sh, deltaSnapshot(r.snap0, reg.Snapshot()), r.stats.done[kindHandoff], depthMax)
	sh.recordGC(r.gc, r.gcEnd, r.offered)
	all, _ := rootedAttribution(recs, "bench.")
	spanLayers(sh, all)
	a, roots := rootedAttribution(recs, "bench.handoff")
	sh.set("trace.residual", residual(a, roots), "ratio", len(roots))
	traced50, _ := r.stats.lat[kindHandoff].quantileNS(0.5)
	untraced50, _ := untraced.quantileNS(0.5)
	sh.ratio("trace.overhead", float64(traced50-untraced50), float64(untraced50), "ratio", len(untraced))
	return out, nil
}

// churnE2E records churn's end-to-end metrics and run accounting.
func churnE2E(sh *sheet, out *outcome, r churnResult, chk *checker) {
	if r.invariant != nil {
		chk.failf("CheckInvariants after run: %v", r.invariant)
	}
	st := &r.stats
	secs := r.window.Seconds()
	var done int64
	for k := range st.done {
		done += st.done[k]
		sh.slicedLat(kindNames[k], st.lat[k], st.second[k])
		sh.lat(kindNames[k]+"_call", st.call[k])
	}
	out.attempted, out.failed = r.offered, st.failed
	out.digest, out.backlog = r.digest, r.backlog
	sh.recordGC(r.gc, r.gcEnd, r.offered)
	lag, _ := r.lags.quantileNS(0.99)
	sh.set("bench.gen_lag_p99_us", float64(lag)/1e3, "us", len(r.lags))
	sh.set("switch_rules_max", float64(r.rulesMax), "count", 1)
	sh.set("throughput_per_s", float64(done)/secs, "1/s", int(done))
	sh.slicedLat("main", st.lat[kindHandoff], st.second[kindHandoff])
	sh.slicedLat("side", st.lat[kindAttach], st.second[kindAttach])
	sh.ratio("slo_miss_ratio", float64(st.sloMiss), float64(r.offered), "ratio", int(r.offered))
	sh.ratio("fail_ratio", float64(st.failed), float64(r.offered), "ratio", int(r.offered))
	sh.set("skipped_events", float64(r.skipped), "count", 1)
	sh.set("detaches", float64(r.detaches), "count", 1)
	sh.set("releases", float64(r.releases), "count", 1)
}
