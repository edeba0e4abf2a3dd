package dataplane

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/packet"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// EnableFastPath is a no-op kept for callers written when the compiled
// fast path was optional: New builds it and every send walks it.
func (n *Network) EnableFastPath(int) {}

// DisableFastPath is a no-op; see EnableFastPath.
func (n *Network) DisableFastPath() {}

// BurstOutcome is one packet's end-to-end outcome from a burst send.
type BurstOutcome struct {
	Disposition Disposition
	Last        topo.NodeID
	Hops        int  // switch traversals
	Slow        bool // punted and resolved through the local agent
}

// BurstSender is one goroutine's handle for burst injection: it owns the
// walker and the walk-result and header-restore scratch, so steady-state
// sends allocate nothing. Concurrent senders are safe while their
// traffic is established; a packet that punts to the agent is resolved
// through SendUpstream, which installs state and resyncs the switches,
// so bursts carrying new flows must not run concurrently with other
// injection.
type BurstSender struct {
	n    *Network
	w    *fastpath.Walker
	res  []fastpath.Result
	orig []packet.Packet
}

// NewBurstSender returns an injection handle. Each concurrent sending
// goroutine needs its own. The error is always nil; it remains for
// callers written when the fast path was optional.
func (n *Network) NewBurstSender() (*BurstSender, error) {
	return &BurstSender{n: n, w: n.fast.NewWalker()}, nil
}

// Send injects a burst of packets a UE sends at its base station and
// reports each packet's end-to-end outcome, reusing out when it has the
// capacity. The burst walks the compiled network, middleboxes and the
// gateway NAT included. A packet punted to an agent has its injected
// header restored and replays through SendUpstream, so its final header
// and disposition match the single-packet path exactly.
func (s *BurstSender) Send(bs packet.BSID, pkts []*packet.Packet, out []BurstOutcome) ([]BurstOutcome, error) {
	n := s.n
	st, ok := n.T.Station(bs)
	if !ok {
		return out, fmt.Errorf("dataplane: unknown base station %d", bs)
	}
	if cap(s.res) < len(pkts) {
		s.res = make([]fastpath.Result, len(pkts))
		s.orig = make([]packet.Packet, len(pkts))
	}
	res := s.res[:len(pkts)]
	orig := s.orig[:len(pkts)]
	for i, p := range pkts {
		orig[i] = *p
	}
	s.w.Walk(int(st.Access), switchsim.PortUE, pkts, res)
	n.obs.burst(len(pkts))

	if cap(out) < len(pkts) {
		out = make([]BurstOutcome, len(pkts))
	}
	out = out[:len(pkts)]
	var delivered, exited, dropped uint64 // flushed once per burst
	defer func() {
		atomic.AddUint64(&n.Delivered, delivered)
		atomic.AddUint64(&n.Exited, exited)
		atomic.AddUint64(&n.Dropped, dropped)
	}()
	for i, r := range res {
		o := &out[i]
		*o = BurstOutcome{Last: topo.NodeID(r.Last), Hops: int(r.Hops)}
		if r.Disp == fastpath.DispPunted {
			// The agent resolves it from the injected header; the punted
			// prefix stays in the switch counters, as a real punt and
			// reinject would leave it.
			*pkts[i] = orig[i]
			n.obs.slowPath()
			wr, err := n.SendUpstream(bs, pkts[i])
			if err != nil {
				return out, err
			}
			o.Disposition, o.Last, o.Hops, o.Slow = wr.Disposition, wr.Last, switchHops(wr.Hops), true
			continue
		}
		d, err := outcome(r)
		if err != nil {
			return out, err
		}
		o.Disposition = d
		switch d {
		case Delivered:
			delivered++
		case ExitedNet:
			exited++
		case DroppedAt:
			dropped++
		}
	}
	return out, nil
}

// switchHops counts a walk's switch traversals, leaving out its
// middlebox visits.
func switchHops(hops []Hop) int {
	k := 0
	for _, h := range hops {
		if h.MB == core.NoMB {
			k++
		}
	}
	return k
}
