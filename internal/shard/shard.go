package shard

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// ErrShardDown marks a request that reached a shard after its failure was
// declared; the dispatcher retries against a fresh ring snapshot once, so
// callers only see this during the failover window itself.
var ErrShardDown = errors.New("shard: controller shard is down")

// opKind discriminates the work items a shard worker serves.
type opKind uint8

const (
	opPath opKind = iota
	opAttach
	opHandoff
	opDetach
	opResolve
	opExtract
	opAdopt
	opAbsorb
	opRecover
	opView
)

// work is one queued request plus its result slots. Items are pooled; the
// done channel is allocated once per item and reused across requests.
type work struct {
	kind    opKind
	bs      packet.BSID
	clause  int
	imsi    string
	perm    packet.Addr
	mig     core.MigratedUE
	ues     []core.UE
	reports []core.AgentLocationReport

	// sc is the request's span context (zero for the unsampled majority);
	// qspan times enqueue-to-dequeue, started by do and ended by the
	// dequeuing worker (the channel send orders the handoff).
	sc    obs.SpanContext
	qspan obs.Span

	tag  packet.Tag
	ue   core.UE
	cls  []core.Classifier
	hr   core.HandoffResult
	addr packet.Addr
	view core.AgentView
	err  error

	done chan struct{}
}

var workPool = sync.Pool{New: func() any { return &work{done: make(chan struct{}, 1)} }}

func getWork(kind opKind) *work {
	w := workPool.Get().(*work)
	w.kind = kind
	return w
}

func putWork(w *work) {
	w.imsi = ""
	w.ues, w.reports, w.cls = nil, nil, nil
	w.mig = core.MigratedUE{}
	w.hr = core.HandoffResult{}
	w.view = core.AgentView{}
	w.err = nil
	w.sc, w.qspan = obs.SpanContext{}, obs.Span{}
	workPool.Put(w)
}

// Shard is one partition of the control plane: a restricted controller
// owning a disjoint set of base stations, fed by a bounded work queue that
// its workers drain in batches. The controller synchronises internally
// with fine-grained domain locks (UE state, allocation, rule table) and a
// lock-free tag cache on the path-request fast path; per-shard queues mean
// even those narrow locks are only ever contended by this shard's few
// workers — never across shards.
type Shard struct {
	ID   int
	Ctrl *core.Controller
	// Stations is the disjoint base-station set this shard owned at
	// construction (failover may extend the live set; see Ctrl.Stations).
	Stations []packet.BSID

	queue  chan *work
	batch  int
	dead   atomic.Bool
	served atomic.Uint64
	wg     sync.WaitGroup
	obs    shardObs
	adm    *admission
}

// newShard wires the queue and workers around a restricted controller.
func newShard(id int, ctrl *core.Controller, stations []packet.BSID, queueLen, workers, batch int, so shardObs, adm *admission) *Shard {
	s := &Shard{
		ID:       id,
		Ctrl:     ctrl,
		Stations: stations,
		queue:    make(chan *work, queueLen),
		batch:    batch,
		obs:      so,
		adm:      adm,
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Served reports the number of requests this shard has completed.
func (s *Shard) Served() uint64 { return s.served.Load() }

// Down reports whether the shard has been declared failed.
func (s *Shard) Down() bool { return s.dead.Load() }

// do runs one work item through the shard's queue and waits for it. The
// admission pipeline (circuit breaker, class shedding against queue
// occupancy, per-station token bucket) runs before the item is enqueued;
// protected protocol-internal kinds bypass it. Every outcome — including a
// dead-shard refusal — feeds the breaker.
func (s *Shard) do(w *work) {
	isProtected := protectedOp(w.kind)
	if s.dead.Load() {
		w.err = ErrShardDown
		s.adm.result(ErrShardDown, isProtected)
		return
	}
	asp := s.obs.spAdmit.Start(w.sc)
	err := s.adm.admit(w.kind, w.bs, len(s.queue), cap(s.queue))
	asp.End()
	if err != nil {
		w.err = err
		return
	}
	s.obs.depth.Add(1)
	w.qspan = s.obs.spQueueWait.Start(w.sc)
	s.queue <- w
	<-w.done
	s.adm.result(w.err, isProtected)
}

// worker drains the queue in batches: one blocking receive, then as many
// non-blocking receives as the batch bound allows. Consecutive path
// requests inside a batch resolve through one core.RequestPathBatch call:
// cached tags come from a single tag-cache snapshot and only the misses
// pay a rule-table lock acquisition.
func (s *Shard) worker() {
	defer s.wg.Done()
	var (
		batch = make([]*work, 0, s.batch)
		qs    = make([]core.PathQuery, 0, s.batch)
		idx   = make([]int, 0, s.batch)
		ans   = make([]core.PathAnswer, 0, s.batch)
	)
	for {
		w, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], w)
	drain:
		for len(batch) < s.batch {
			select {
			case w2, ok := <-s.queue:
				if !ok {
					break drain
				}
				batch = append(batch, w2)
			default:
				break drain
			}
		}
		s.serve(batch, &qs, &idx, &ans)
	}
}

// serve answers one dequeued batch.
func (s *Shard) serve(batch []*work, qs *[]core.PathQuery, idx *[]int, ans *[]core.PathAnswer) {
	s.obs.depth.Add(-int64(len(batch)))
	s.obs.batchSize.Observe(int64(len(batch)))
	for _, w := range batch {
		w.qspan.End() // queue wait is over, whatever happens next
	}
	if s.dead.Load() {
		for _, w := range batch {
			w.err = ErrShardDown
			w.done <- struct{}{}
		}
		return
	}
	*qs, *idx = (*qs)[:0], (*idx)[:0]
	for i, w := range batch {
		// Sampled path requests resolve individually below so their
		// controller sections attach to the right trace; only the unsampled
		// majority joins the shared-snapshot batch.
		if w.kind == opPath && !w.sc.Sampled() {
			*qs = append(*qs, core.PathQuery{BS: w.bs, Clause: w.clause})
			*idx = append(*idx, i)
		}
	}
	if len(*qs) > 0 {
		*ans = s.Ctrl.RequestPathBatch(*qs, (*ans)[:0])
		for j, i := range *idx {
			batch[i].tag, batch[i].err = (*ans)[j].Tag, (*ans)[j].Err
		}
	}
	for _, w := range batch {
		switch w.kind {
		case opPath:
			if w.sc.Sampled() {
				w.tag, w.err = s.Ctrl.RequestPathCtx(w.sc, w.bs, w.clause)
			}
			// unsampled: answered by the batch above
		case opAttach:
			w.ue, w.cls, w.err = s.Ctrl.AttachCtx(w.sc, w.imsi, w.bs)
		case opHandoff:
			w.hr, w.err = s.Ctrl.HandoffCtx(w.sc, w.imsi, w.bs)
		case opDetach:
			w.err = s.Ctrl.Detach(w.imsi)
		case opResolve:
			w.addr, w.err = s.Ctrl.ResolveLocIP(w.perm)
		case opExtract:
			w.mig, w.err = s.Ctrl.ExtractUE(w.imsi)
		case opAdopt:
			w.ue, w.cls, w.err = s.Ctrl.AdoptUE(w.mig, w.bs)
		case opAbsorb:
			w.err = s.Ctrl.AbsorbStation(w.bs, w.ues)
		case opRecover:
			w.err = s.Ctrl.RecoverLocations(w.reports)
		case opView:
			w.view, w.err = s.Ctrl.AgentView(w.bs)
		}
		// Count before releasing: a caller that returns must already see
		// its own request in Served.
		s.served.Add(1)
		w.done <- struct{}{}
	}
}

// close shuts the queue down and waits for the workers to drain it.
func (s *Shard) close() {
	close(s.queue)
	s.wg.Wait()
}
