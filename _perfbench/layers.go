package main

import (
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// perLayer lists every per-layer metric, printed by every traced run; a
// layer a workload does not exercise reads 0 with 0 samples.
var perLayer = []struct{ name, unit string }{
	{"bench.gen_lag_p99_us", "us"},
	{"bench.offered_per_s", "1/s"},
	{"bench.completed_per_s", "1/s"},
	{"ctrlproto.self_p50_us", "us"},
	{"ctrlproto.self_p99_us", "us"},
	{"ctrlproto.frames_per_flush", "count"},
	{"ctrlproto.retransmits", "count"},
	{"shard.attach.call_p50_us", "us"},
	{"shard.handoff.call_p50_us", "us"},
	{"shard.handoff.call_p99_us", "us"},
	{"shard.path.call_p50_us", "us"},
	{"shard.path.call_p99_us", "us"},
	{"shard.queue_depth_max", "count"},
	{"shard.batch_size_mean", "count"},
	{"shard.cross_handoff_share", "ratio"},
	{"shard.cross_handoff_p99_us", "us"},
	{"core.tagcache_hit_ratio", "ratio"},
	{"core.rules_added_per_handoff", "count"},
	{"core.lock_rule_wait_p99_us", "us"},
	{"core.span.core.attach.self_p50_us", "us"},
	{"core.span.core.handoff.self_p50_us", "us"},
	{"core.span.core.handoff.rule.self_p50_us", "us"},
	{"core.span.core.lock.rule.self_p50_us", "us"},
	{"core.span.core.path.self_p50_us", "us"},
	{"agent.packet_in_p50_us", "us"},
	{"agent.packet_in_p99_us", "us"},
	{"agent.cache_hit_ratio", "ratio"},
	{"agent.microflows_per_flow", "count"},
	{"dataplane.sync_p50_us", "us"},
	{"dataplane.sync_p99_us", "us"},
	{"dataplane.slow_share", "ratio"},
	{"fastpath.send_p50_us", "us"},
	{"fastpath.recompiles_per_s", "1/s"},
	{"fastpath.stale", "count"},
	{"fastpath.allocs_per_packet", "count"},
	{"switchsim.micro_hit_ratio", "ratio"},
	{"mbox.connections", "count"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.residual", "ratio"},
	{"trace.overhead", "ratio"},
}

// endToEnd lists the metrics of every untraced run. Each workload maps its
// own operations onto the main and side slots (see spec.json). Tail
// percentiles are on the report line only: their run-to-run spread on a
// two-core host is wider than any bound a regression gate could use.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_bytes_per_ue", "B"},
	{"switch_rules_max", "count"},
	{"throughput_per_s", "1/s"},
	{"main_p50_us", "us"},
	{"side_p50_us", "us"},
}

// tracedRegistry returns a registry whose spans carry monotonic
// nanoseconds and sample one root in every n.
func tracedRegistry(n int) *obs.Registry {
	reg := obs.New()
	t0 := time.Now()
	reg.SetClock(func() int64 { return int64(time.Since(t0)) })
	reg.SetSpanSampling(n)
	return reg
}

// poller samples a traced run from outside the program: the maximum of
// a set of gauges every millisecond, and the span rings every 100 ms, so
// spans survive the rings' overwrite of their oldest entries.
type poller struct {
	reg    *obs.Registry
	gauges []*obs.Gauge
	stop   chan struct{}
	wg     sync.WaitGroup

	// Written only by the polling goroutine; read after it exits.
	max   int64
	spans map[[2]uint64]obs.SpanRecord
}

func startPoller(reg *obs.Registry, gauges []*obs.Gauge) *poller {
	p := &poller{reg: reg, gauges: gauges, stop: make(chan struct{}), spans: make(map[[2]uint64]obs.SpanRecord)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for tick := 0; ; tick++ {
			select {
			case <-p.stop:
				p.collect()
				return
			case <-t.C:
			}
			for _, g := range p.gauges {
				if v := g.Value(); v > p.max {
					p.max = v
				}
			}
			if tick%100 == 0 {
				p.collect()
			}
		}
	}()
	return p
}

func (p *poller) collect() {
	for _, r := range p.reg.SpanRecords() {
		p.spans[[2]uint64{uint64(r.Trace), uint64(r.Span)}] = r
	}
}

// finish stops the poller and returns the gauges' maximum and every span
// seen, with per-shard name prefixes ("shard.0.core.path") folded so each
// layer is one waterfall segment.
func (p *poller) finish() (int64, []obs.SpanRecord) {
	close(p.stop)
	p.wg.Wait()
	recs := make([]obs.SpanRecord, 0, len(p.spans))
	for _, r := range p.spans {
		if rest, ok := strings.CutPrefix(r.Name, "shard."); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 && strings.Trim(rest[:i], "0123456789") == "" {
				r.Name = rest[i+1:]
			}
		}
		recs = append(recs, r)
	}
	return p.max, recs
}

// rootedAttribution folds the span trees whose root span's name starts
// with root, and returns the root spans' durations.
func rootedAttribution(recs []obs.SpanRecord, root string) (obs.Attribution, samples) {
	keep := make(map[obs.TraceID]bool)
	var roots samples
	for _, r := range recs {
		if r.Parent == 0 && strings.HasPrefix(r.Name, root) {
			keep[r.Trace] = true
			roots = append(roots, r.End-r.Start)
		}
	}
	var sel []obs.SpanRecord
	for _, r := range recs {
		if keep[r.Trace] {
			sel = append(sel, r)
		}
	}
	return obs.Attribute(sel), roots
}

// residual is 1 - (sum of per-layer self-time medians / end-to-end
// median): the share of the median an additive layer model leaves
// unexplained, which names contention or scheduling rather than compute.
func residual(a obs.Attribution, roots samples) float64 {
	med, _ := roots.quantileNS(0.5)
	if med == 0 {
		return math.NaN()
	}
	var sum int64
	for _, s := range a.Segments {
		sum += s.P50NS
	}
	return 1 - float64(sum)/float64(med)
}

// deltaSnapshot subtracts s0 from s1: counters and histogram counts become
// the increase over the interval between them; gauges keep s1's value.
func deltaSnapshot(s0, s1 obs.Snapshot) obs.Snapshot {
	for k, v := range s1.Counters {
		s1.Counters[k] = v - s0.Counters[k]
	}
	for k, h := range s1.Histograms {
		h0, ok := s0.Histograms[k]
		if !ok {
			continue
		}
		counts := append([]uint64(nil), h.Counts...)
		for i := range counts {
			counts[i] -= h0.Counts[i]
		}
		s1.Histograms[k] = obs.HistogramSnapshot{Bounds: h.Bounds, Counts: counts,
			Count: h.Count - h0.Count, Sum: h.Sum - h0.Sum}
	}
	return s1
}

// controlLayers records the per-layer metrics a control plant's obs
// registry exports over the measured window (snap is a window delta).
func controlLayers(sh *sheet, snap obs.Snapshot, handoffs, depthMax int64) {
	c := snap.Counters
	if h, ok := snap.Histograms["wire.flush.frames"]; ok {
		sh.ratio("ctrlproto.frames_per_flush", float64(h.Sum), float64(h.Count), "count", int(h.Count))
	}
	sh.set("ctrlproto.retransmits", float64(c["wire.retransmits"]), "count", 1)
	sh.set("shard.queue_depth_max", float64(depthMax), "count", 1)
	var bsum, bcount int64
	for name, h := range snap.Histograms {
		if strings.HasSuffix(name, ".batch.size") {
			bsum += h.Sum
			bcount += int64(h.Count)
		}
	}
	sh.ratio("shard.batch_size_mean", float64(bsum), float64(bcount), "count", int(bcount))
	cross, local := c["shard.handoff.cross"], c["shard.handoff.local"]
	sh.ratio("shard.cross_handoff_share", float64(cross), float64(cross+local), "ratio", int(cross+local))
	if h, ok := snap.Histograms["shard.handoff.cross_ns"]; ok {
		v, n := histQuantile(h.Bounds, h.Counts, 0.99)
		sh.set("shard.cross_handoff_p99_us", float64(v)/1e3, "us", int(n))
	}
	hit, miss := sumMatching(c, "core.tagcache.hit"), sumMatching(c, "core.tagcache.miss")
	sh.ratio("core.tagcache_hit_ratio", float64(hit), float64(hit+miss), "ratio", int(hit+miss))
	sh.ratio("core.rules_added_per_handoff", float64(sumMatching(c, "core.rules.added")), float64(handoffs), "count", int(handoffs))
	var wb []int64
	var wc []uint64
	for name, h := range snap.Histograms {
		if name == "core.lock.rule_wait_ns" || strings.HasSuffix(name, ".core.lock.rule_wait_ns") {
			if wb == nil {
				wb, wc = h.Bounds, make([]uint64, len(h.Counts))
			}
			for i, n := range h.Counts {
				wc[i] += n
			}
		}
	}
	if wb != nil {
		v, n := histQuantile(wb, wc, 0.99)
		sh.set("core.lock_rule_wait_p99_us", float64(v)/1e3, "us", int(n))
	}
}

// controlPhaseLayers records the per-layer metrics the benchmark times
// itself around its calls into the control plant.
func controlPhaseLayers(sh *sheet, st *opStats, calls [numKinds]samples, offered int64, lags samples, window time.Duration) {
	secs := window.Seconds()
	var done int64
	var self samples
	for k := range st.done {
		done += st.done[k]
		self = append(self, st.self[k]...)
	}
	lag, _ := lags.quantileNS(0.99)
	sh.set("bench.gen_lag_p99_us", float64(lag)/1e3, "us", len(lags))
	sh.set("bench.offered_per_s", float64(offered)/secs, "1/s", int(offered))
	sh.set("bench.completed_per_s", float64(done)/secs, "1/s", int(done))
	sh.lat("ctrlproto.self", self)
	sh.lat("shard.attach.call", calls[kindAttach])
	sh.lat("shard.handoff.call", calls[kindHandoff])
	sh.lat("shard.path.call", calls[kindPath])
}

// spanLayers records each core span's self-time median from an
// attribution.
func spanLayers(sh *sheet, a obs.Attribution) {
	for _, seg := range a.Segments {
		switch seg.Name {
		case "core.attach", "core.handoff", "core.handoff.rule", "core.lock.rule", "core.path":
			sh.set("core.span."+seg.Name+".self_p50_us", float64(seg.P50NS)/1e3, "us", seg.Count)
		}
	}
}
