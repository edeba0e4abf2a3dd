package cbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// DataplaneOptions configure one forwarding-plane throughput point.
type DataplaneOptions struct {
	// Flows is the number of warmed (microflow-installed) upstream flows
	// the generators cycle through (default 64).
	Flows int
	// Burst is the packets-per-burst of the fast path; 0 measures the
	// single-packet SendUpstream baseline instead.
	Burst int
	// Workers is the number of concurrent generators, each walking the
	// network on its own goroutine (default 1).
	Workers int
	// Duration bounds the measurement (default 1s).
	Duration time.Duration
	// Obs, when set, instruments the network and fast path.
	Obs *obs.Registry
}

func (o DataplaneOptions) withDefaults() DataplaneOptions {
	if o.Flows <= 0 {
		o.Flows = 64
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	return o
}

// DataplaneResult is one measured throughput point.
type DataplaneResult struct {
	Packets uint64
	Elapsed time.Duration
	// AllocsPerPacket is the whole-process malloc-count delta divided by
	// packets forwarded; the burst path's steady state should hold this
	// near zero.
	AllocsPerPacket float64

	// Mem is the testbed controller's end-of-run memory accounting.
	Mem core.MemStats
}

// PerSecond is the headline packets-per-second number.
func (r DataplaneResult) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Elapsed.Seconds()
}

// dataplaneBed is a middlebox-free line network (gateway - core - access)
// under a pure-allow policy with Flows warmed upstream flows, so the
// measurement sees steady-state forwarding only: every packet rides
// microflow + TCAM state end to end with no punts and no middleboxes.
type dataplaneBed struct {
	net  *dataplane.Network
	ctrl *core.Controller
	bs   packet.BSID
	tmpl []packet.Packet // pre-walk header templates, one per flow
}

func newDataplaneBed(flows int, reg *obs.Registry) (*dataplaneBed, error) {
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	cs := tp.AddNode(topo.Core, "cs")
	as := tp.AddNode(topo.Access, "as")
	if err := tp.AddBaseStation(0, as); err != nil {
		return nil, err
	}
	if err := tp.Connect(gw, cs); err != nil {
		return nil, err
	}
	if err := tp.Connect(cs, as); err != nil {
		return nil, err
	}
	pol := &policy.Policy{}
	pol.Add(policy.Clause{Priority: 10, Name: "allow-A",
		Pred: policy.Attr(policy.FieldProvider, "A"), Action: policy.Via()})
	ctrl, err := core.NewController(tp, core.ControllerConfig{Gateway: gw, Policy: pol})
	if err != nil {
		return nil, err
	}
	mreg := mbox.NewRegistry(ctrl.Plan(), packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24))
	net, err := dataplane.New(ctrl, dataplane.Config{Registry: mreg})
	if err != nil {
		return nil, err
	}
	net.Instrument(reg)
	if err := ctrl.RegisterSubscriber("bench", policy.Attributes{Provider: "A"}); err != nil {
		return nil, err
	}
	ue, err := net.Attach("bench", 0)
	if err != nil {
		return nil, err
	}
	bed := &dataplaneBed{net: net, ctrl: ctrl, bs: 0, tmpl: make([]packet.Packet, flows)}
	for i := range bed.tmpl {
		bed.tmpl[i] = packet.Packet{
			Src: ue.PermIP, Dst: packet.AddrFrom4(93, 184, 216, 34),
			SrcPort: uint16(40000 + i), DstPort: 80, Proto: packet.ProtoTCP, TTL: 64,
		}
		// Prime on a copy: the walk rewrites headers in place, and the
		// template must stay the pre-walk header every iteration replays.
		p := bed.tmpl[i]
		res, err := net.SendUpstream(0, &p)
		if err != nil {
			return nil, err
		}
		if res.Disposition != dataplane.ExitedNet {
			return nil, fmt.Errorf("cbench: warm flow %d ended %s, want exited", i, res.Disposition)
		}
	}
	return bed, nil
}

// BenchDataplane measures forwarding-plane throughput for one
// configuration: BurstSender bursts when opts.Burst > 0, one
// SendUpstream per packet otherwise.
func BenchDataplane(opts DataplaneOptions) (DataplaneResult, error) {
	opts = opts.withDefaults()
	bed, err := newDataplaneBed(opts.Flows, opts.Obs)
	if err != nil {
		return DataplaneResult{}, err
	}
	var stop atomic.Bool
	var total uint64
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		stop.Store(true)
	}
	var wg sync.WaitGroup

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			if opts.Burst > 0 {
				bed.runBurst(opts.Burst, off, &stop, &total, fail)
			} else {
				bed.runSingle(off, &stop, &total, fail)
			}
		}(w * 17)
	}
	time.Sleep(opts.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	if ep := firstErr.Load(); ep != nil {
		return DataplaneResult{}, *ep
	}
	res := DataplaneResult{Packets: atomic.LoadUint64(&total), Elapsed: elapsed, Mem: bed.ctrl.MemStats()}
	if res.Packets > 0 {
		res.AllocsPerPacket = float64(m1.Mallocs-m0.Mallocs) / float64(res.Packets)
	}
	return res, nil
}

// runSingle drives the per-packet baseline: one SendUpstream per packet,
// header reset from the flow template each iteration.
func (b *dataplaneBed) runSingle(off int, stop *atomic.Bool, total *uint64, fail func(error)) {
	var p packet.Packet
	var n uint64
	for i := off % len(b.tmpl); !stop.Load(); {
		p = b.tmpl[i]
		if i++; i == len(b.tmpl) {
			i = 0
		}
		res, err := b.net.SendUpstream(b.bs, &p)
		if err != nil {
			fail(err)
			return
		}
		if res.Disposition != dataplane.ExitedNet {
			fail(fmt.Errorf("cbench: warmed packet ended %s", res.Disposition))
			return
		}
		n++
	}
	atomic.AddUint64(total, n)
}

// runBurst drives the fast path: bursts of size burst, headers reset from
// the flow templates, reusing the sender's scratch throughout.
func (b *dataplaneBed) runBurst(burst, off int, stop *atomic.Bool, total *uint64, fail func(error)) {
	sender, err := b.net.NewBurstSender()
	if err != nil {
		fail(err)
		return
	}
	backing := make([]packet.Packet, burst)
	pkts := make([]*packet.Packet, burst)
	for i := range pkts {
		pkts[i] = &backing[i]
	}
	out := make([]dataplane.BurstOutcome, burst)
	var n uint64
	for i := off % len(b.tmpl); !stop.Load(); {
		for j := range backing {
			backing[j] = b.tmpl[i]
			if i++; i == len(b.tmpl) {
				i = 0
			}
		}
		out, err = sender.Send(b.bs, pkts, out)
		if err != nil {
			fail(err)
			return
		}
		for j := range out {
			if out[j].Disposition != dataplane.ExitedNet || out[j].Slow {
				fail(fmt.Errorf("cbench: burst packet ended %s (slow=%v) on a warmed flow", out[j].Disposition, out[j].Slow))
				return
			}
		}
		n += uint64(burst)
	}
	atomic.AddUint64(total, n)
}
