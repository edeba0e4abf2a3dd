package main

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/ctrlproto"
	"repro/internal/obs"
)

// stormConfig is the pathstorm part of the spec. The run is cut into
// slices; every LatencySliceEvery-th slice runs Cbench's latency mode (one
// request in flight per connection), the others its throughput mode
// (DepthPerConn in flight per connection).
type stormConfig struct {
	DepthPerConn      int `json:"depth_per_conn"`
	SliceMS           int `json:"slice_ms"`
	LatencySliceEvery int `json:"latency_slice_every"`
}

// stormResult is one measured pathstorm phase.
type stormResult struct {
	storm, single samples   // request latencies in throughput and latency mode
	sliceRates    []float64 // completed requests per second of each throughput slice
	done, failed  int64
	window        time.Duration
	gc, gcEnd     gcStats
	snap0         obs.Snapshot
	calls         [numKinds]samples
	self          samples
	digest        string
}

type stormReq struct {
	k      pathKey
	slice  int
	single bool
}

// stormConn is one connection's closed loop: its generator hands requests
// to depth workers, each blocked on its reply, and never has more in
// flight than the current slice's mode allows.
type stormConn struct {
	p      *ctlPlant
	cfg    stormConfig
	cl     *ctrlproto.Client
	span   *obs.SpanName
	chk    *checker
	warmSl int // slices before this index are warm-up

	mu    sync.Mutex
	perSl []int64     // throughput-mode completions per slice; guarded by mu
	st    stormResult // merged worker results; guarded by mu
}

func runStormPhase(p *ctlPlant, cfg stormConfig, seed int64, warm, window time.Duration, chk *checker) stormResult {
	slice := time.Duration(cfg.SliceMS) * time.Millisecond
	warmSl := int((warm + slice - 1) / slice)
	nSl := warmSl + int((window+slice-1)/slice)
	var span *obs.SpanName
	if p.reg != nil {
		span = p.reg.SpanName("bench.path")
	}
	conns := make([]*stormConn, len(p.conns))

	start := time.Now()
	var res stormResult
	measured := start.Add(time.Duration(warmSl) * slice)
	var wg sync.WaitGroup
	for c := range conns {
		sc := &stormConn{p: p, cfg: cfg, cl: p.conns[c], span: span, chk: chk, perSl: make([]int64, nSl), warmSl: warmSl}
		conns[c] = sc
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sc.loop(cfg, rand.New(rand.NewSource(seed*31+int64(c))), start, slice, nSl)
		}(c)
	}
	// Mark the window's start from this goroutine, so the snapshot and GC
	// baseline line up with the first measured slice.
	time.Sleep(time.Until(measured))
	res.gc = readGC()
	if p.shim != nil {
		p.shim.drainCalls()
		res.snap0 = p.reg.Snapshot()
	}
	wg.Wait()
	res.gcEnd = readGC()
	res.window = time.Duration(nSl-warmSl) * slice
	if p.shim != nil {
		res.calls = p.shim.drainCalls()
	}
	for sl := warmSl; sl < nSl; sl++ {
		if isSingle(cfg, sl) {
			continue
		}
		var n int64
		for _, sc := range conns {
			n += sc.perSl[sl]
		}
		res.sliceRates = append(res.sliceRates, float64(n)/slice.Seconds())
	}
	for _, sc := range conns {
		res.storm = append(res.storm, sc.st.storm...)
		res.single = append(res.single, sc.st.single...)
		res.self = append(res.self, sc.st.self...)
		res.done += sc.st.done
		res.failed += sc.st.failed
	}
	res.digest = p.digest()
	return res
}

func isSingle(cfg stormConfig, sl int) bool {
	return sl%cfg.LatencySliceEvery == cfg.LatencySliceEvery-1
}

func (sc *stormConn) loop(cfg stormConfig, rng *rand.Rand, start time.Time, slice time.Duration, nSl int) {
	work := make(chan stormReq)
	done := make(chan struct{}, cfg.DepthPerConn) // one slot per worker: completions never block
	var wg sync.WaitGroup
	for w := 0; w < cfg.DepthPerConn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local stormResult
			perSl := make([]int64, nSl)
			for req := range work {
				sc.do(req, &local, perSl, start, slice)
				done <- struct{}{}
			}
			sc.mu.Lock()
			for i, n := range perSl {
				sc.perSl[i] += n
			}
			sc.st.storm = append(sc.st.storm, local.storm...)
			sc.st.single = append(sc.st.single, local.single...)
			sc.st.self = append(sc.st.self, local.self...)
			sc.st.done += local.done
			sc.st.failed += local.failed
			sc.mu.Unlock()
		}()
	}
	end := start.Add(time.Duration(nSl) * slice)
	inflight := 0
	pairs := sc.p.pairs
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		sl := int(now.Sub(start) / slice)
		limit := cfg.DepthPerConn
		single := isSingle(cfg, sl)
		if single {
			limit = 1
		}
		if inflight >= limit {
			<-done
			inflight--
			continue
		}
		req := stormReq{k: pairs[rng.Intn(len(pairs))], slice: sl, single: single}
		select {
		case work <- req:
			inflight++
		case <-done:
			inflight--
		}
	}
	close(work)
	wg.Wait()
}

// do sends one path request and checks the tag against warm-up.
func (sc *stormConn) do(req stormReq, st *stormResult, perSl []int64, start time.Time, slice time.Duration) {
	var sp obs.Span
	if sc.span != nil {
		sp = sc.span.Root()
	}
	t0 := time.Now()
	tag, err := sc.cl.RequestPathCtx(sp.Context(), req.k.bs, req.k.clause)
	t1 := time.Now()
	sp.End()
	if err == nil {
		err = sc.p.checkPath(req.k, tag)
	}
	measured := req.slice >= sc.warmSl
	if sc.p.shim != nil {
		server, ok := sc.p.shim.take(shimKey{kind: kindPath, path: req.k})
		if ok && measured {
			st.self = append(st.self, int64(t1.Sub(t0))-server)
		}
	}
	if err != nil {
		sc.chk.failf("path: %v", err)
		if measured {
			st.failed++
		}
		return
	}
	if !measured {
		return
	}
	st.done++
	lat := int64(t1.Sub(t0))
	if req.single {
		st.single = append(st.single, lat)
		return
	}
	st.storm = append(st.storm, lat)
	if sl := int(t1.Sub(start) / slice); sl < len(perSl) && !isSingle(sc.cfg, sl) {
		perSl[sl]++
	}
}

// runPathstorm is the Cbench analogue over the control plant.
func runPathstorm(s *specT, seed int64, window time.Duration, traced bool) (*outcome, error) {
	chk := &checker{}
	sh := newSheet()
	out := &outcome{sheet: sh, checks: chk}
	build := func(reg *obs.Registry) func() (*ctlPlant, error) {
		return func() (*ctlPlant, error) { return buildCtlPlant(s.Plant, seed, reg) }
	}
	out.inputs = map[string]any{"paths": 0, "depth_per_conn": s.Pathstorm.DepthPerConn, "conns": s.Plant.Conns}
	if !traced {
		p, setup, heap, err := timeBuild(s.Setups, build(nil), (*ctlPlant).close)
		if err != nil {
			return nil, err
		}
		defer p.close()
		r := runStormPhase(p, s.Pathstorm, seed, s.warmup(), window, chk)
		stormE2E(sh, out, r)
		out.inputs["paths"] = len(p.pairs)
		sh.set("setup_s", setup, "s", s.Setups)
		sh.set("heap_bytes_per_ue", heap/float64(len(p.imsis)), "B", len(p.imsis))
		sh.set("switch_rules_max", float64(p.rulesMax()), "count", 1)
		return out, nil
	}

	half := window / 2
	p, err := build(nil)()
	if err != nil {
		return nil, err
	}
	r0 := runStormPhase(p, s.Pathstorm, seed, s.warmup(), half, chk)
	p.close()

	reg := tracedRegistry(s.TraceSampleEvery["pathstorm"])
	if p, err = build(reg)(); err != nil {
		return nil, err
	}
	defer p.close()
	var depth []*obs.Gauge
	for i := 0; i < s.Plant.Shards; i++ {
		depth = append(depth, reg.Sub("shard."+strconv.Itoa(i)).Gauge("queue.depth"))
	}
	pl := startPoller(reg, depth)
	r := runStormPhase(p, s.Pathstorm, seed, s.warmup(), half, chk)
	depthMax, recs := pl.finish()
	stormE2E(sh, out, r)
	out.inputs["paths"] = len(p.pairs)
	st := opStats{}
	st.done[kindPath] = r.done
	st.self[kindPath] = r.self
	controlPhaseLayers(sh, &st, r.calls, r.done+r.failed, nil, r.window)
	controlLayers(sh, deltaSnapshot(r.snap0, reg.Snapshot()), 0, depthMax)
	sh.recordGC(r.gc, r.gcEnd, r.done)
	all, _ := rootedAttribution(recs, "bench.")
	spanLayers(sh, all)
	a, roots := rootedAttribution(recs, "bench.path")
	sh.set("trace.residual", residual(a, roots), "ratio", len(roots))
	traced50, _ := r.storm.quantileNS(0.5)
	untraced50, _ := r0.storm.quantileNS(0.5)
	sh.ratio("trace.overhead", float64(traced50-untraced50), float64(untraced50), "ratio", len(r0.storm))
	return out, nil
}

// stormE2E records pathstorm's end-to-end metrics and run accounting.
func stormE2E(sh *sheet, out *outcome, r stormResult) {
	out.attempted, out.failed = r.done+r.failed, r.failed
	out.digest = r.digest
	rate := medianF(append([]float64(nil), r.sliceRates...))
	sh.set("throughput_per_s", rate, "1/s", len(r.sliceRates))
	sh.set("path_req_per_s", rate, "1/s", len(r.sliceRates))
	sh.lat("main", r.storm)
	sh.lat("side", r.single)
	sh.lat("path", r.storm)
	sh.lat("path_latency_mode", r.single)
	sh.ratio("fail_ratio", float64(r.failed), float64(r.done+r.failed), "ratio", int(r.done+r.failed))
}
