package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/mempool"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/query"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

// The node configuration is fixed, so results from different commits
// compare like for like; it is printed with every result.
const (
	reservedSeed = 7
	workers      = 2 // ParallelWorkers, AdmissionWorkers, CommitWorkers and PackWorkers
	commitDepth  = 2
	mempoolBatch = 128
	maxBlockTxs  = 128 // consensus.Config.MaxBlockTxs default
)

type nodeConfig struct {
	Workers       int    `json:"workers"`
	CommitDepth   int    `json:"commit_depth"`
	MempoolBatch  int    `json:"mempool_batch"`
	MaxBlockTxs   int    `json:"max_block_txs"`
	Packing       string `json:"packing"`
	Backend       string `json:"backend"`
	FsyncPerBlock bool   `json:"fsync_per_block"`
}

func configFor(s spec) nodeConfig {
	return nodeConfig{
		Workers: workers, CommitDepth: commitDepth, MempoolBatch: mempoolBatch,
		MaxBlockTxs: maxBlockTxs, Packing: "makespan", Backend: s.Backend,
		FsyncPerBlock: s.Backend == "disk",
	}
}

// wrec tracks one write through the pipeline. Client writes are
// transfers, bids and accepts; children are the nested RETURN and
// TRANSFER transactions an ACCEPT_BID's commit submits.
type wrec struct {
	id      int32 // per-phase trace id
	kind    opKind
	tx      *txn.Transaction
	auction int
	sched   time.Time // due (accept: sent; child: submitted)
	fired   time.Time
	failed  error

	admitStart, admitted time.Time
	packStart, packEnd   time.Time
	valStart, valEnd     time.Time
	queued               time.Time // CommitStart returned
	sealed               time.Time
	height               int64
}

// rrec tracks one read.
type rrec struct {
	id       int32
	op       readOp
	sched    time.Time
	fired    time.Time
	answered time.Time
	height   int64
	answer   string
	failed   error
}

// auctionRun follows one auction through a phase.
type auctionRun struct {
	bidsSealed     int
	accept         *wrec
	children       []*wrec
	childrenSealed int
	settled        time.Time
}

// phaseRun is one phase's records. Client records are allocated before
// the phase starts; each field is written by exactly one goroutine
// before it hands the record on over a channel, and read by the phase
// runner only after every goroutine has exited.
type phaseRun struct {
	ph       *phase
	start    time.Time
	end      time.Time // all work done, or the deadline
	deadline time.Time
	writes   []*wrec // scheduled client writes, phase op order
	reads    []*rrec
	auctions map[int]*auctionRun
	acceptOf map[string]int // ACCEPT_BID id -> auction
	nextID   int32          // joiner-owned after start

	outstanding atomic.Int64
	done        chan struct{}
	doneOnce    sync.Once

	spans []span // merged after the phase
}

func (r *phaseRun) finish(n int64) {
	if r.outstanding.Add(-n) == 0 {
		r.doneOnce.Do(func() { close(r.done) })
	}
}

// blockRec hands one committed block from the engine to the joiner.
type blockRec struct {
	height int64
	recs   []*wrec
	join   func()
	queued time.Time
}

// harness drives one server.Node through the calls a consensus node
// makes for a single validator, in the same order:
//
//	mempool.Pool.AdmitBatch (Check = Node.CheckTxBatch) -> Pool.Pack ->
//	Node.ValidateBlockFresh(block, Pool.Fresh(block)) ->
//	Pool.RemoveCommitted -> Node.CommitStart -> join
//
// An admitter goroutine admits arrivals (the mempool connection); a
// cutter goroutine cuts blocks back to back (ordering is instant with
// one validator); a joiner goroutine joins blocks in height order, so
// nested hooks run there and children re-enter admission through the
// node's child submitter.
type harness struct {
	p      *plan
	traced bool
	reg    *obs.Registry
	dir    string
	node   *server.Node
	pool   *mempool.Pool
	query  *query.Engine

	height int64
	blocks [][]*txn.Transaction // every committed block, height order

	run             *phaseRun // nil outside a phase
	inbox           chan *wrec
	preloadChildren []*txn.Transaction

	// admitter-owned span state (traced runs): the open AdmitBatch
	// span and the CheckTxBatch spans recorded inside it.
	admitSpan  int32
	checkSpans *[]span
	spanSeq    atomic.Int32
}

// openHarness opens a fresh node (a new data directory for the disk
// backend) and its mempool.
func openHarness(p *plan, reg *obs.Registry, traced bool, dataRoot string) (*harness, error) {
	h := &harness{p: p, reg: reg, traced: traced}
	cfg := server.Config{
		ReservedSeed:     reservedSeed,
		ParallelWorkers:  workers,
		AdmissionWorkers: workers,
		CommitWorkers:    workers,
		MempoolBatch:     mempoolBatch,
		CommitDepth:      commitDepth,
		Obs:              reg,
	}
	if p.spec.Backend == "disk" {
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return nil, fmt.Errorf("data root: %w", err)
		}
		dir, err := os.MkdirTemp(dataRoot, p.spec.Name+"-*")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		h.dir = dir
		cfg.DataDir = dir
	}
	node, err := server.OpenNode(cfg)
	if err != nil {
		return nil, fmt.Errorf("open node: %w", err)
	}
	h.node = node
	h.height = node.State().Height()
	h.pool = mempool.New(mempool.Config{
		BatchSize:   mempoolBatch,
		Policy:      mempool.PackMakespan,
		PackWorkers: workers,
		Check:       h.check,
		Obs:         reg,
	})
	node.SetChildSubmitter(h.submitChild)
	h.query = query.New(node.State())
	return h, nil
}

// close releases the node and removes its data directory.
func (h *harness) close() error {
	err := h.node.Close()
	if h.dir != "" {
		if rmErr := os.RemoveAll(h.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// commitSync commits one block through the node's pipeline and joins
// it (set-up only: preload blocks are not validated).
func (h *harness) commitSync(block []*txn.Transaction) {
	h.height++
	h.node.Commit(h.height, asConsensus(block))
	h.blocks = append(h.blocks, block)
}

// preload commits the plan's preload blocks, then settles the settled
// auctions: their accepts, then the children the accepts' commits
// submit.
func (h *harness) preload() {
	for _, b := range h.p.preload {
		h.commitSync(cloneTxs(b))
	}
	var accepts []*txn.Transaction
	for _, a := range h.p.settled {
		accepts = append(accepts, h.p.auctions[a].accept.Clone())
	}
	for len(accepts) > 0 {
		n := min(preloadBlockTxs, len(accepts))
		h.commitSync(accepts[:n])
		accepts = accepts[n:]
	}
	for len(h.preloadChildren) > 0 {
		n := min(preloadBlockTxs, len(h.preloadChildren))
		block := h.preloadChildren[:n]
		h.preloadChildren = h.preloadChildren[n:]
		h.commitSync(block)
	}
	h.preloadChildren = nil
}

func cloneTxs(txs []*txn.Transaction) []*txn.Transaction {
	out := make([]*txn.Transaction, len(txs))
	for i, t := range txs {
		out[i] = t.Clone()
	}
	return out
}

func asConsensus(txs []*txn.Transaction) []consensus.Tx {
	out := make([]consensus.Tx, len(txs))
	for i, t := range txs {
		out[i] = t
	}
	return out
}

// check is the pool's admission hook: Node.CheckTxBatch, as the
// consensus node wires it.
func (h *harness) check(txs []mempool.Tx) map[string]error {
	batch := make([]consensus.Tx, len(txs))
	for i, tx := range txs {
		batch[i] = tx.(consensus.Tx)
	}
	if !h.traced {
		return h.node.CheckTxBatch(batch)
	}
	t0 := time.Now()
	errs := h.node.CheckTxBatch(batch)
	*h.checkSpans = append(*h.checkSpans, h.newSpan("server.checktx", h.admitSpan, t0, time.Now(), nil))
	return errs
}

// submitChild is the node's child submitter: during preload children
// are collected into the next preload block; during a phase they
// re-enter admission. It runs inside join, on the joiner goroutine.
func (h *harness) submitChild(child *txn.Transaction) {
	r := h.run
	if r == nil {
		h.preloadChildren = append(h.preloadChildren, child)
		return
	}
	a, ok := r.acceptOf[child.Inputs[0].Fulfills.TxID]
	if !ok {
		a = -1
	}
	now := time.Now()
	r.nextID++
	w := &wrec{id: r.nextID, kind: opChild, tx: child, auction: a, sched: now, fired: now}
	if ar := r.auctions[a]; ar != nil {
		ar.children = append(ar.children, w)
	}
	h.inbox <- w
}

// runPhase offers one phase to the node and returns its records once
// every operation completed or the deadline passed.
func (h *harness) runPhase(ph *phase, grace time.Duration) *phaseRun {
	r := &phaseRun{ph: ph, auctions: map[int]*auctionRun{}, acceptOf: map[string]int{}, done: make(chan struct{})}
	var nWrites, nReads int
	for _, o := range ph.ops {
		if o.kind == opRead {
			nReads++
		} else {
			nWrites++
		}
	}
	r.writes = make([]*wrec, 0, nWrites)
	r.reads = make([]*rrec, 0, nReads)
	// Cold copies: every phase starts with no memoized canonical bytes
	// or signature verdicts, like transactions fresh off the wire.
	opRec := make([]any, len(ph.ops))
	for i, o := range ph.ops {
		r.nextID++
		if o.kind == opRead {
			rr := &rrec{id: r.nextID, op: o.read}
			r.reads = append(r.reads, rr)
			opRec[i] = rr
			continue
		}
		w := &wrec{id: r.nextID, kind: o.kind, tx: o.tx.Clone(), auction: o.auction}
		r.writes = append(r.writes, w)
		opRec[i] = w
	}
	for _, a := range ph.auctions {
		r.nextID++
		acc := h.p.auctions[a].accept.Clone()
		r.auctions[a] = &auctionRun{accept: &wrec{id: r.nextID, kind: opAccept, tx: acc, auction: a}}
		r.acceptOf[acc.ID] = a
	}
	// Every scheduled op, every accept and each accept's children.
	r.outstanding.Store(int64(len(ph.ops) + len(ph.auctions)*(1+bidders)))
	h.inbox = make(chan *wrec, nWrites+len(ph.auctions)*(1+bidders)) // never blocks a sender
	readCh := make(chan *rrec, nReads+1)                             // never blocks the pacer
	stop := make(chan struct{})
	joinCh := make(chan *blockRec, 4*commitDepth) // depth-bounded: CommitStart parks beyond it
	h.run = r

	pending := &pendingIndex{recs: make(map[string]*wrec)}
	wake := make(chan struct{}, 1)
	var wg sync.WaitGroup
	var admitSpans, cutSpans, joinerSpans, readerSpans []span
	wg.Add(4)
	go func() { defer wg.Done(); admitSpans = h.admitter(stop, pending, wake) }()
	go func() { defer wg.Done(); cutSpans = h.cutter(stop, pending, wake, joinCh) }()
	go func() { defer wg.Done(); joinerSpans = h.joiner(joinCh) }()
	go func() { defer wg.Done(); readerSpans = h.reader(readCh, stop) }()

	schedule := make([]time.Duration, len(ph.ops))
	for i, o := range ph.ops {
		schedule[i] = o.at
	}
	r.start = time.Now()
	r.deadline = r.start.Add(ph.span + grace)
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		defer close(readCh)
		pace(r.start, schedule, stop, func(i int, due, fired time.Time) {
			switch rec := opRec[i].(type) {
			case *rrec:
				rec.sched, rec.fired = due, fired
				readCh <- rec
			case *wrec:
				rec.sched, rec.fired = due, fired
				h.inbox <- rec
			}
		})
	}()
	timer := time.NewTimer(time.Until(r.deadline))
	select {
	case <-r.done:
	case <-timer.C:
	}
	timer.Stop()
	r.end = time.Now()
	close(stop)
	<-pacerDone
	wg.Wait()
	h.node.DrainCommits()
	h.run = nil
	for _, ss := range [][]span{admitSpans, cutSpans, joinerSpans, readerSpans} {
		r.spans = append(r.spans, ss...)
	}
	return r
}

// pace fires each scheduled arrival at its absolute deadline from
// start (never relative to the previous firing, so a late firing makes
// the next ones late instead of stretching the schedule), reporting
// when each actually fired. It stops early when stop closes.
func pace(start time.Time, schedule []time.Duration, stop <-chan struct{}, fire func(i int, due, fired time.Time)) {
	for i, off := range schedule {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		fire(i, due, time.Now())
	}
}

// pendingIndex maps admitted, not yet packed transactions to their
// records: the admitter adds a batch before admitting it (a pooled
// transaction may be packed before AdmitBatch returns), the cutter
// takes what it packs.
type pendingIndex struct {
	mu   sync.Mutex
	recs map[string]*wrec
}

func (p *pendingIndex) add(batch []*wrec) {
	p.mu.Lock()
	for _, w := range batch {
		p.recs[w.tx.ID] = w
	}
	p.mu.Unlock()
}

func (p *pendingIndex) take(id string) *wrec {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.recs[id]
	delete(p.recs, id)
	return w
}

// admitter is the node's mempool connection: it admits arrivals in
// batches of up to mempoolBatch, concurrently with block production,
// and wakes the cutter when the pool gains work.
func (h *harness) admitter(stop <-chan struct{}, pending *pendingIndex, wake chan<- struct{}) []span {
	var spans []span
	for {
		var batch []*wrec
		select {
		case w := <-h.inbox:
			batch = append(batch, w)
		case <-stop:
			return spans
		}
	fill:
		for len(batch) < mempoolBatch {
			select {
			case w := <-h.inbox:
				batch = append(batch, w)
			default:
				break fill
			}
		}
		spans = h.admit(batch, pending, spans)
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

func (h *harness) admit(batch []*wrec, pending *pendingIndex, spans []span) []span {
	txs := make([]mempool.Tx, len(batch))
	for i, w := range batch {
		txs[i] = w.tx
	}
	pending.add(batch)
	var checkSpans []span
	h.checkSpans = &checkSpans
	id := h.spanSeq.Add(1)
	h.admitSpan = id
	t0 := time.Now()
	res := h.pool.AdmitBatch(txs)
	t1 := time.Now()
	if h.traced {
		st := h.run.start
		spans = append(spans, span{ID: id, Name: "mempool.admit_batch",
			Start: t0.Sub(st).Nanoseconds(), End: t1.Sub(st).Nanoseconds(), Txs: traceIDs(batch)})
		spans = append(spans, checkSpans...)
	}
	admitted := make(map[string]bool, len(res.Admitted))
	for _, tx := range res.Admitted {
		admitted[tx.Hash()] = true
	}
	for _, w := range batch {
		w.admitStart, w.admitted = t0, t1
		if admitted[w.tx.ID] {
			continue
		}
		pending.take(w.tx.ID)
		if err, ok := res.Rejected[w.tx.ID]; ok {
			w.failed = fmt.Errorf("rejected at admission: %w", err)
		} else if err, ok := res.Skipped[w.tx.ID]; ok {
			w.failed = fmt.Errorf("skipped at admission: %w", err)
		} else {
			w.failed = errNotAdmitted
		}
		h.run.finish(1)
	}
	return spans
}

var errNotAdmitted = errors.New("not admitted")

// cutter is the validator's ordered consensus thread: whenever the
// pool holds work it cuts, validates and starts committing the next
// block — back to back, since ordering is instant with one validator.
// CommitStart parks it while CommitDepth-1 blocks are in flight.
func (h *harness) cutter(stop <-chan struct{}, pending *pendingIndex, wake <-chan struct{}, joinCh chan<- *blockRec) []span {
	defer close(joinCh)
	var spans []span
	for {
		select {
		case <-stop:
			return spans
		default:
		}
		if h.pool.PendingCount() == 0 {
			select {
			case <-wake:
			case <-stop:
				return spans
			}
			continue
		}
		spans = h.cutBlock(pending, joinCh, spans)
	}
}

// cutBlock packs, validates and starts committing one block.
func (h *harness) cutBlock(pending *pendingIndex, joinCh chan<- *blockRec, spans []span) []span {
	t0 := time.Now()
	picks := h.pool.Pack(maxBlockTxs, workers)
	t1 := time.Now()
	if len(picks) == 0 {
		return spans
	}
	block := make([]consensus.Tx, len(picks))
	for i, tx := range picks {
		block[i] = tx.(consensus.Tx)
	}
	fresh := h.pool.Fresh(picks)
	t2 := time.Now()
	bad := h.node.ValidateBlockFresh(block, fresh)
	t3 := time.Now()
	if len(bad) > 0 {
		// Evict, as the consensus node does; each is a failed op.
		evict := make([]mempool.Tx, len(bad))
		drop := make(map[string]bool, len(bad))
		for i, tx := range bad {
			evict[i] = tx
			drop[tx.Hash()] = true
			if w := pending.take(tx.Hash()); w != nil {
				w.failed = errors.New("rejected at block validation")
				h.run.finish(1)
			}
		}
		h.pool.Remove(evict)
		kept := block[:0]
		for _, tx := range block {
			if !drop[tx.Hash()] {
				kept = append(kept, tx)
			}
		}
		block = kept
		if len(block) == 0 {
			return spans
		}
	}
	committed := make([]mempool.Tx, len(block))
	txs := make([]*txn.Transaction, len(block))
	recs := make([]*wrec, len(block))
	for i, tx := range block {
		committed[i] = tx
		txs[i] = tx.(*txn.Transaction)
		recs[i] = pending.take(tx.Hash())
	}
	h.pool.RemoveCommitted(committed)
	h.height++
	join := h.node.CommitStart(h.height, block)
	t4 := time.Now()
	h.blocks = append(h.blocks, txs)
	for _, w := range recs {
		if w != nil {
			w.packStart, w.packEnd, w.valStart, w.valEnd, w.queued = t0, t1, t2, t3, t4
		}
	}
	if h.traced {
		ids := traceIDs(recs)
		spans = append(spans,
			h.newSpan("mempool.pack", 0, t0, t1, ids),
			h.newSpan("server.validate_block", 0, t2, t3, ids),
			h.newSpan("ledger.commit_queue", 0, t3, t4, ids))
	}
	joinCh <- &blockRec{height: h.height, recs: recs, join: join, queued: t4}
	return spans
}

func traceIDs(recs []*wrec) []int32 {
	ids := make([]int32, 0, len(recs))
	for _, w := range recs {
		if w != nil {
			ids = append(ids, w.id)
		}
	}
	return ids
}

func (h *harness) newSpan(name string, parent int32, t0, t1 time.Time, txs []int32) span {
	st := h.run.start
	return span{ID: h.spanSeq.Add(1), Parent: parent, Name: name,
		Start: t0.Sub(st).Nanoseconds(), End: t1.Sub(st).Nanoseconds(), Txs: txs}
}

// joiner joins blocks in height order and accounts for what sealed.
// Sending an accept when its auction's last bid seals happens here —
// the requester reacting to its bids' commit.
func (h *harness) joiner(joinCh <-chan *blockRec) []span {
	var spans []span
	for b := range joinCh {
		b.join()
		now := time.Now()
		r := h.run
		if h.traced {
			spans = append(spans, h.newSpan("ledger.commit", 0, b.queued, now, traceIDs(b.recs)))
		}
		sealed := 0
		for _, w := range b.recs {
			if w == nil {
				continue
			}
			w.sealed, w.height = now, b.height
			sealed++
			ar := r.auctions[w.auction]
			if ar == nil {
				continue
			}
			switch w.kind {
			case opBid:
				ar.bidsSealed++
				if ar.bidsSealed == bidders {
					ar.accept.sched, ar.accept.fired = now, now
					h.inbox <- ar.accept
				}
			case opChild:
				ar.childrenSealed++
				if ar.childrenSealed == bidders {
					ar.settled = now
				}
			}
		}
		r.finish(int64(sealed))
	}
	return spans
}

// reader serves reads in arrival order, each pinned to the newest
// sealed height when it starts.
func (h *harness) reader(readCh <-chan *rrec, stop <-chan struct{}) []span {
	var spans []span
	for {
		select {
		case <-stop:
			return spans
		case rr, ok := <-readCh:
			if !ok {
				return spans
			}
			t0 := time.Now()
			rr.height, rr.answer, rr.failed = h.execRead(rr.op)
			rr.answered = time.Now()
			if h.traced {
				spans = append(spans, h.newSpan("query."+rr.op.shape.String(), 0, t0, rr.answered, []int32{rr.id}))
			}
			h.run.finish(1)
		}
	}
}

// pinnedEngine returns a query engine pinned to the newest sealed height.
func (h *harness) pinnedEngine() (*query.Engine, int64, error) {
	hgt := h.node.State().View().Height()
	eng, err := h.query.AsOf(hgt)
	return eng, hgt, err
}

// state is a shorthand for the node's chain state.
func (h *harness) state() *ledger.State { return h.node.State() }
