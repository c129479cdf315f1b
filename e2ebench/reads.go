package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/query"
	"smartchaindb/internal/txn"
)

// readShape is one marketplace query through query.Engine.
type readShape uint8

const (
	readOpenByCap readShape = iota
	readRecentOpen
	readBidsForRequest
	readBidsInBand
	readOutcome
	readHolder
	readProvenance
	numShapes
)

var shapeNames = [numShapes]string{
	"open_by_capability", "recent_open", "bids_for_request", "bids_in_band",
	"auction_outcome", "holder_of", "provenance",
}

func (s readShape) String() string { return shapeNames[s] }

// recentLimit is RecentOpenRequests' page size.
const recentLimit = 10

type readOp struct {
	shape readShape
	arg   int // capability, auction, band or wallet index (by shape)
}

// zipfIndex draws a Zipf-skewed index in [0, n): P(k) ∝ (zipfV+k)^-1.1,
// so some arguments are hot and most are cold. The offset zipfV keeps
// the head from collapsing onto one argument, whose cost would then
// differ from seed to seed.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rand.NewZipf(rng, 1.1, zipfV, uint64(n-1)).Uint64())
}

const zipfV = 8

// drawRead picks a shape uniformly and a Zipf-skewed argument.
func (p *plan) drawRead(rng *rand.Rand) readOp {
	r := readOp{shape: readShape(rng.Intn(int(numShapes)))}
	switch r.shape {
	case readOpenByCap:
		r.arg = zipfIndex(rng, capabilities)
	case readBidsForRequest, readOutcome:
		r.arg = p.readAuctions[zipfIndex(rng, len(p.readAuctions))]
	case readBidsInBand:
		r.arg = 1 + bandWidth*zipfIndex(rng, maxPrice/bandWidth)
	case readHolder, readProvenance:
		r.arg = p.readWallets[zipfIndex(rng, len(p.readWallets))]
	}
	return r
}

// execRead runs one read pinned to the newest sealed height and
// renders its answer canonically.
func (h *harness) execRead(r readOp) (int64, string, error) {
	eng, hgt, err := h.pinnedEngine()
	if err != nil {
		return hgt, "", err
	}
	return hgt, h.answer(eng, r), nil
}

func (h *harness) answer(eng *query.Engine, r readOp) string {
	p := h.p
	switch r.shape {
	case readOpenByCap:
		return idSet(eng.OpenRequestsWithCapability(p.caps[r.arg]))
	case readRecentOpen:
		return idList(eng.RecentOpenRequests(recentLimit))
	case readBidsForRequest:
		return idSet(eng.BidsForRequest(p.auctions[r.arg].request.ID))
	case readBidsInBand:
		return idSet(eng.BidsInPriceBand(uint64(r.arg), uint64(r.arg+bandWidth-1)))
	case readOutcome:
		out, ok := eng.AuctionOutcome(p.auctions[r.arg].request.ID)
		if !ok {
			return "none"
		}
		return out.AcceptID + "|" + out.Winner
	case readHolder:
		var parts []string
		for pub, amt := range eng.HolderOf(p.wallets[r.arg].create.ID) {
			parts = append(parts, fmt.Sprintf("%s=%d", pub, amt))
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	case readProvenance:
		var parts []string
		for _, st := range eng.AssetProvenance(p.wallets[r.arg].create.ID) {
			parts = append(parts, st.TxID+":"+st.Operation)
		}
		return strings.Join(parts, ">")
	}
	panic("e2ebench: unknown read shape")
}

func idSet(txs []*txn.Transaction) string {
	ids := make([]string, len(txs))
	for i, t := range txs {
		ids[i] = t.ID
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

func idList(txs []*txn.Transaction) string {
	ids := make([]string, len(txs))
	for i, t := range txs {
		ids[i] = t.ID
	}
	return strings.Join(ids, ",")
}

// truth is the generator's ground truth: what each read must answer at
// a pinned height, given the height every transaction sealed at.
type truth struct {
	p        *plan
	sealedAt map[string]int64
	bids     []pricedBid // every bid of every auction, by price
}

type pricedBid struct {
	price uint64
	id    string
}

func newTruth(p *plan, blocks [][]*txn.Transaction) *truth {
	t := &truth{p: p, sealedAt: make(map[string]int64)}
	for i, b := range blocks {
		for _, tx := range b {
			if _, dup := t.sealedAt[tx.ID]; !dup {
				t.sealedAt[tx.ID] = int64(i + 1)
			}
		}
	}
	for _, a := range p.auctions {
		for i, b := range a.bids {
			t.bids = append(t.bids, pricedBid{price: a.prices[i], id: b.ID})
		}
	}
	sort.Slice(t.bids, func(i, j int) bool { return t.bids[i].price < t.bids[j].price })
	return t
}

func (t *truth) in(id string, h int64) bool {
	at, ok := t.sealedAt[id]
	return ok && at <= h
}

func (t *truth) open(a *auction, h int64) bool {
	return t.in(a.request.ID, h) && !t.in(a.accept.ID, h)
}

// expect renders the answer read r must give at height h.
func (t *truth) expect(r readOp, h int64) string {
	p := t.p
	switch r.shape {
	case readOpenByCap:
		var ids []string
		for _, a := range p.auctions {
			if t.open(a, h) && (a.caps[0] == p.caps[r.arg] || a.caps[1] == p.caps[r.arg]) {
				ids = append(ids, a.request.ID)
			}
		}
		sort.Strings(ids)
		return strings.Join(ids, ",")
	case readRecentOpen:
		// The REQUEST timestamp is its auction index.
		var ids []string
		for i := len(p.auctions) - 1; i >= 0 && len(ids) < recentLimit; i-- {
			if t.open(p.auctions[i], h) {
				ids = append(ids, p.auctions[i].request.ID)
			}
		}
		return strings.Join(ids, ",")
	case readBidsForRequest:
		var ids []string
		for _, b := range p.auctions[r.arg].bids {
			if t.in(b.ID, h) {
				ids = append(ids, b.ID)
			}
		}
		sort.Strings(ids)
		return strings.Join(ids, ",")
	case readBidsInBand:
		lo, hi := uint64(r.arg), uint64(r.arg+bandWidth-1)
		i := sort.Search(len(t.bids), func(i int) bool { return t.bids[i].price >= lo })
		var ids []string
		for ; i < len(t.bids) && t.bids[i].price <= hi; i++ {
			if t.in(t.bids[i].id, h) {
				ids = append(ids, t.bids[i].id)
			}
		}
		sort.Strings(ids)
		return strings.Join(ids, ",")
	case readOutcome:
		a := p.auctions[r.arg]
		if !t.in(a.accept.ID, h) {
			return "none"
		}
		return a.accept.ID + "|" + a.winner
	case readHolder:
		w := p.wallets[r.arg]
		holder := w.owner
		if w.transfer != nil && t.in(w.transfer.ID, h) {
			holder = w.recipient
		}
		return fmt.Sprintf("%s=%d", holder, p.spec.Inputs)
	case readProvenance:
		w := p.wallets[r.arg]
		s := w.create.ID + ":" + txn.OpCreate
		if w.transfer != nil && t.in(w.transfer.ID, h) {
			s += ">" + w.transfer.ID + ":" + txn.OpTransfer
		}
		return s
	}
	panic("e2ebench: unknown read shape")
}

// scanAnswer answers r by a forced full scan of the live collections
// (no planner, no index), for a quiesced node: the reference the
// planned answer must equal at the same height.
func (h *harness) scanAnswer(r readOp) (string, bool) {
	p := h.p
	store := h.state().Store()
	txs := store.Collection(ledger.ColTransactions)
	openFilter := func(extra ...docstore.Filter) docstore.Filter {
		var accepted []any
		for _, d := range txs.FindScan(docstore.Eq("operation", txn.OpAcceptBid)) {
			refs, _ := d["refs"].([]any)
			accepted = append(accepted, refs...)
		}
		return docstore.And(append([]docstore.Filter{
			docstore.Eq("operation", txn.OpRequest),
			docstore.Not(docstore.In("id", accepted...)),
		}, extra...)...)
	}
	ids := func(docs []map[string]any) []string {
		out := make([]string, 0, len(docs))
		for _, d := range docs {
			id, _ := d["id"].(string)
			out = append(out, id)
		}
		return out
	}
	sorted := func(ss []string) string {
		sort.Strings(ss)
		return strings.Join(ss, ",")
	}
	switch r.shape {
	case readOpenByCap:
		return sorted(ids(txs.FindScan(openFilter(docstore.Contains("asset.data.capabilities", p.caps[r.arg]))))), true
	case readRecentOpen:
		docs := txs.FindScan(openFilter())
		sort.Slice(docs, func(i, j int) bool { return timestamp(docs[i]) > timestamp(docs[j]) })
		if len(docs) > recentLimit {
			docs = docs[:recentLimit]
		}
		return strings.Join(ids(docs), ","), true
	case readBidsForRequest:
		return sorted(ids(txs.FindScan(docstore.And(
			docstore.Eq("operation", txn.OpBid),
			docstore.Contains("refs", p.auctions[r.arg].request.ID))))), true
	case readBidsInBand:
		return sorted(ids(txs.FindScan(docstore.And(
			docstore.Eq("operation", txn.OpBid),
			docstore.Gte("outputs.amount", uint64(r.arg)),
			docstore.Lte("outputs.amount", uint64(r.arg+bandWidth-1)))))), true
	case readHolder:
		held := map[string]uint64{}
		for _, d := range store.Collection(ledger.ColUTXOs).FindScan(docstore.And(
			docstore.Eq("asset_id", p.wallets[r.arg].create.ID),
			docstore.Eq("spent", false))) {
			owners, _ := d["owner"].([]any)
			amt, _ := d["amount"].(float64)
			for _, o := range owners {
				if pub, ok := o.(string); ok {
					held[pub] += uint64(amt)
				}
			}
		}
		var parts []string
		for pub, amt := range held {
			parts = append(parts, fmt.Sprintf("%s=%d", pub, amt))
		}
		return sorted(parts), true
	}
	// Outcome and provenance are point reads; ground truth covers them.
	return "", false
}

func timestamp(d map[string]any) float64 {
	meta, _ := d["metadata"].(map[string]any)
	ts, _ := meta["timestamp"].(float64)
	return ts
}
