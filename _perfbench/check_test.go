package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/dataplane"
	"repro/internal/packet"
)

// smallPlant is a 20-station control plant with a few thousand
// subscribers, enough to exercise every check.
func smallPlant(t *testing.T) *ctlPlant {
	t.Helper()
	p, err := buildCtlPlant(ctlConfig{K: 2, C: 10, Shards: 2, Subscribers: 3000, Conns: 1, StartSecond: 68400}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.close)
	return p
}

// liar is a control plane that corrupts one kind of reply.
type liar struct {
	p   *ctlPlant
	lie string
}

func (l liar) Attach(imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	ue, cls, err := l.p.d.Attach(imsi, bs)
	switch l.lie {
	case "attach-station":
		ue.BS++
	case "attach-locip":
		ue.LocIP = packet.AddrFrom4(192, 0, 2, 1)
	}
	return ue, cls, err
}

func (l liar) Handoff(imsi string, bs packet.BSID) (core.HandoffResult, error) {
	hr, err := l.p.d.Handoff(imsi, bs)
	if l.lie == "handoff" {
		hr.UE.BS = hr.OldBS
	}
	return hr, err
}

func (l liar) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	tag, err := l.p.d.RequestPath(bs, clause)
	if l.lie == "path" {
		tag++
	}
	return tag, err
}

func (l liar) ResolveLocIP(perm packet.Addr) (packet.Addr, error) { return l.p.d.ResolveLocIP(perm) }

func (l liar) RecoverLocations(r []core.AgentLocationReport) error { return l.p.d.RecoverLocations(r) }

// dialLiar serves the liar on loopback TCP and returns a client.
func dialLiar(t *testing.T, l liar) *ctrlproto.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ctrlproto.NewServer(l).Serve(ln) }()
	cl, err := ctrlproto.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		ln.Close()
		<-done
	})
	return cl
}

func TestControlChecksFailOnBadReplies(t *testing.T) {
	p := smallPlant(t)
	attached := int32(0) // attached by the plant's initial population
	fresh := int32(len(p.initial))
	for _, tc := range []struct {
		lie string
		op  churnOp
	}{
		{"attach-station", churnOp{kind: kindAttach, ue: fresh, bs: 3}},
		{"attach-locip", churnOp{kind: kindAttach, ue: fresh + 1, bs: 4}},
		{"handoff", churnOp{kind: kindHandoff, ue: attached, bs: packet.BSID((p.initial[attached] + 1) % 20)}},
		{"path", churnOp{kind: kindPath, bs: 2, clause: p.clauses[0]}},
		{"", churnOp{kind: kindPath, bs: 5, clause: p.clauses[1]}},
	} {
		chk := &checker{}
		cd := &churnModel{p: p, chk: chk, busy: make([]atomic.Bool, len(p.imsis))}
		var st opStats
		tc.op.due, tc.op.measured = time.Now(), true
		cd.do(dialLiar(t, liar{p, tc.lie}), tc.op, &st, [numKinds]time.Duration{})
		if tc.lie == "" {
			if chk.failed() != 0 || st.failed != 0 {
				t.Errorf("honest reply failed a check: %v", chk.messages())
			}
			continue
		}
		if chk.failed() != 1 || st.failed != 1 {
			t.Errorf("%s: %d checks failed, %d operations failed; want 1 and 1", tc.lie, chk.failed(), st.failed)
		}
	}
}

func TestCheckInvariantFailureFailsChurn(t *testing.T) {
	chk := &checker{}
	churnE2E(newSheet(), &outcome{}, churnResult{invariant: errors.New("fake invariant violation")}, chk)
	if chk.failed() != 1 {
		t.Errorf("invariant violation recorded %d failures, want 1", chk.failed())
	}
}

func TestWalkEventsFoldsMiddleboxReturn(t *testing.T) {
	hops := []dataplane.Hop{{Node: 1, MB: core.NoMB}, {Node: 1, MB: 7}, {Node: 1, MB: core.NoMB}, {Node: 2, MB: core.NoMB}}
	got := walkEvents(hops)
	want := []core.TraceEvent{{Switch: 1, MB: core.NoMB}, {Switch: 1, MB: 7}, {Switch: 2, MB: core.NoMB}}
	if len(got) != len(want) {
		t.Fatalf("walkEvents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walkEvents = %v, want %v", got, want)
		}
	}
}

func smallTraffic(t *testing.T) (*trafficPlant, trafficConfig) {
	t.Helper()
	cfg := trafficConfig{K: 2, C: 3, UEsPerStation: 10, MobilePerStation: 1, Burst: 8,
		NewFlowsPerS: 200, HandoffsPerS: 100, ReleaseAfterMS: 20, FlowLifetimeMS: 50, HopCheckEvery: 1}
	tp, err := buildTrafficPlant(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.close)
	return tp, cfg
}

func TestTrafficChecks(t *testing.T) {
	tp, cfg := smallTraffic(t)
	chk := &checker{}
	r := runTrafficPhase(tp, cfg, 1, 50*time.Millisecond, 300*time.Millisecond, chk)
	if chk.failed() != 0 {
		t.Fatalf("honest traffic run failed checks: %v", chk.messages())
	}
	if r.newFlows == 0 || r.denied == 0 || r.handoffs == 0 || r.packets == 0 {
		t.Fatalf("run did too little: %+v", r)
	}

	// A first packet whose walk disagrees with the controller's trace.
	ue := tp.ues[0]
	orig := packet.Packet{Src: ue.perm, Dst: packet.AddrFrom4(151, 101, 1, 1), SrcPort: 4242, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
	p := orig
	wr, err := tp.net.SendUpstream(ue.bs, &p)
	if err != nil || wr.Disposition != dataplane.ExitedNet {
		t.Fatalf("first packet: %v, %v", wr.Disposition, err)
	}
	if err := tp.checkHops(ue, orig, wr.Hops); err != nil {
		t.Fatalf("honest walk failed the hop check: %v", err)
	}
	if err := tp.checkHops(ue, orig, wr.Hops[:len(wr.Hops)-1]); err == nil {
		t.Error("truncated walk passed the hop check")
	}

	// An established flow whose disposition is not the expected one.
	tp.want[0][0] = dataplane.DroppedAt
	chk = &checker{}
	runTrafficPhase(tp, cfg, 2, 0, 100*time.Millisecond, chk)
	if chk.failed() == 0 {
		t.Error("wrong established-flow disposition passed")
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	workloads["liar"] = func(*specT, int64, time.Duration, bool) (*outcome, error) {
		chk := &checker{}
		chk.failf("wrong answer")
		return &outcome{sheet: newSheet(), checks: chk, attempted: 1, failed: 1}, nil
	}
	defer delete(workloads, "liar")
	var out, errOut bytes.Buffer
	if rc := run([]string{"--workload", "liar", "--trace", "1"}, &out, &errOut); rc != 1 {
		t.Fatalf("exit code %d, want 1", rc)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Errorf("result line %q: correct must be false", lines[len(lines)-1])
	}
}

// TestControlPhasesOnSmallPlant drives churn and pathstorm briefly over a
// small plant with every goroutine they start, so the race detector sees
// the generator, the workers and the release bookkeeping together.
func TestControlPhasesOnSmallPlant(t *testing.T) {
	p := smallPlant(t)
	chk := &checker{}
	cfg := churnConfig{OfferedPerSec: 2000, WorkersPerConn: 4, ReleaseAfterSec: 1,
		SLOUS: map[string]float64{"path": 1000, "attach": 2000, "handoff": 2000}}
	r := runChurnPhase(p, cfg, 1, 100*time.Millisecond, 400*time.Millisecond, chk)
	if chk.failed() != 0 || r.invariant != nil {
		t.Fatalf("churn: %v, invariants: %v", chk.messages(), r.invariant)
	}
	if r.stats.done[kindPath] == 0 || r.stats.done[kindAttach]+r.stats.done[kindHandoff] == 0 || r.releases == 0 {
		t.Errorf("churn did too little: done %v, releases %d", r.stats.done, r.releases)
	}
	s := runStormPhase(p, stormConfig{DepthPerConn: 4, SliceMS: 50, LatencySliceEvery: 2}, 1, 100*time.Millisecond, 300*time.Millisecond, chk)
	if chk.failed() != 0 || len(s.storm) == 0 || len(s.single) == 0 || len(s.sliceRates) == 0 {
		t.Errorf("pathstorm: checks %v, %d storm and %d single samples, %d slices",
			chk.messages(), len(s.storm), len(s.single), len(s.sliceRates))
	}
}
