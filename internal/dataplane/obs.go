package dataplane

import (
	"repro/internal/obs"
)

// dpObs is the data plane's burst-injection telemetry: burst shape at the
// network entry points plus packets punted to an agent. A nil *dpObs is a
// no-op; every hot-path update is an atomic add or a fixed-bucket observe.
type dpObs struct {
	bursts  *obs.Counter   // bursts injected via BurstSender.Send
	burstSz *obs.Histogram // injected burst sizes in packets
	pkts    *obs.Counter   // packets injected through burst sends
	slow    *obs.Counter   // burst packets resolved through an agent
}

// newDPObs registers the data plane's series on reg; nil reg returns nil.
func newDPObs(reg *obs.Registry) *dpObs {
	if reg == nil {
		return nil
	}
	return &dpObs{
		bursts:  reg.Counter("dataplane.bursts"),
		burstSz: reg.Histogram("dataplane.burst.size", 1, 2, 4, 8, 16, 32, 64, 128, 256),
		pkts:    reg.Counter("dataplane.burst.packets"),
		slow:    reg.Counter("dataplane.slowpath"),
	}
}

func (o *dpObs) burst(n int) {
	if o != nil {
		o.bursts.Inc()
		o.burstSz.Observe(int64(n))
		o.pkts.Add(uint64(n))
	}
}

func (o *dpObs) slowPath() {
	if o != nil {
		o.slow.Inc()
	}
}

// Instrument registers the data plane's burst telemetry and every
// switch's pipeline counters and the compiled network's on reg. Call it
// before sending traffic.
func (n *Network) Instrument(reg *obs.Registry) {
	n.obs = newDPObs(reg)
	n.fast.Instrument(reg)
	for _, sw := range n.Switches {
		sw.Instrument(reg)
	}
}
