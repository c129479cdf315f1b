package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"smartchaindb/internal/driver"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// Every input the benchmark offers is a pure function of the workload
// spec and --seed: keys are derived deterministically, every random
// draw comes from one seeded source in a fixed order, and ed25519
// signatures are deterministic, so the same seed yields byte-identical
// transactions and the same arrival schedule.

const (
	// bidders per REQUEST, as in workload.PaperMix (50,000 bids over
	// 5,000 requests).
	bidders = 10
	// capabilities is the size of the capability vocabulary REQUESTs
	// and assets draw from; each REQUEST demands two.
	capabilities = 24
	// bandWidth is the price width of one bids_in_band query.
	bandWidth = 5
	// maxPrice bounds bid prices (asset shares escrowed by a BID).
	maxPrice = 1000
	// preloadBlockTxs caps one preload block.
	preloadBlockTxs = 1024
	// fillerKeys owns the wallets no transfer spends: they exist to
	// size the state, and sharing their keys keeps set-up cheap.
	fillerKeys = 64
)

type opKind uint8

const (
	opTransfer opKind = iota
	opBid
	opAccept
	opChild
	opRead
)

func (k opKind) String() string {
	return [...]string{"transfer", "bid", "accept", "child", "read"}[k]
}

// op is one client operation of a phase: a write (transfer or bid) or
// a read, due at offset at from the phase start. Accepts are not
// scheduled: each is sent the moment its auction's last bid seals.
type op struct {
	kind    opKind
	at      time.Duration
	tx      *txn.Transaction
	auction int // index into plan.auctions for bids, -1 otherwise
	read    readOp
}

// auction is one reverse auction: REQUEST, bidders' backing CREATEs,
// BIDs and the closing ACCEPT_BID naming the generator's winner.
type auction struct {
	request *txn.Transaction
	creates []*txn.Transaction
	bids    []*txn.Transaction
	accept  *txn.Transaction
	winner  string // winning bidder's public key
	caps    []string
	prices  []uint64
}

// wallet is one funded wallet: a CREATE holding `inputs` unit outputs
// of one owner, and the transfer that spends all of them (nil for
// filler wallets no phase spends).
type wallet struct {
	create    *txn.Transaction
	transfer  *txn.Transaction
	owner     string
	recipient string
}

// phase is one stream of operations offered to the node.
type phase struct {
	name     string
	ops      []op // scheduled in at order
	auctions []int
	span     time.Duration // offered duration (0 for a burst)
}

// plan is a workload's complete, seed-determined input.
type plan struct {
	spec     spec
	escrow   *keys.KeyPair
	wallets  []*wallet
	auctions []*auction
	caps     []string

	// preload is committed block by block at set-up; auctions listed
	// in settled also commit their ACCEPT_BID (and the resulting
	// children) during preload.
	preload [][]*txn.Transaction
	settled []int

	// warm is the warm-up phase every set-up runs; timed and peaks
	// hold one timed phase and one peak burst per measured set-up.
	warm         *phase
	timed, peaks []*phase

	// Read-argument populations (read shapes draw from them, Zipf-skewed).
	readWallets  []int
	readAuctions []int
}

// parallelFor runs fn(i) for i in [0,n) on runtime.NumCPU() workers.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	var next sync.Mutex
	i := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				j := i
				i++
				next.Unlock()
				if j >= n {
					return
				}
				fn(j)
			}
		}()
	}
	wg.Wait()
}

func mustSign(t *txn.Transaction, signers ...*keys.KeyPair) *txn.Transaction {
	if err := txn.Sign(t, signers...); err != nil {
		// Every signer is generated locally; failure is a defect.
		panic(fmt.Sprintf("e2ebench: sign %s: %v", t.Operation, err))
	}
	return t
}

func anyStrings(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// keyRange derives n deterministic keypairs starting at base.
func keyRange(base int64, n int) []*keys.KeyPair {
	out := make([]*keys.KeyPair, n)
	parallelFor(n, func(i int) { out[i] = keys.DeterministicKeyPair(base + int64(i)) })
	return out
}

// writeMix counts the writes of one phase.
type writeMix struct {
	transfers int
	auctions  int
}

func (s spec) mix(seconds float64) writeMix {
	return writeMix{
		transfers: int(s.TransferRate*seconds + 0.5),
		auctions:  int(s.BidRate*seconds/bidders + 0.5),
	}
}

// buildPlan generates a workload's inputs from seed: seconds of timed
// load and the peak stream, each split into parts phases (one per
// measured set-up).
func buildPlan(s spec, seed int64, seconds float64, parts int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{spec: s, escrow: keys.NewReservedWithDefaults(reservedSeed).Escrow()}
	for i := 0; i < capabilities; i++ {
		p.caps = append(p.caps, fmt.Sprintf("cap-%02d", i))
	}
	warm, timed, peak := s.mix(s.WarmSeconds), s.mix(seconds), s.mix(s.PeakSeconds)

	// Wallets: history wallets (preloaded with their transfer already
	// committed), then one distinct user per transfer of each phase,
	// then fillers up to the spec's state size.
	spenders := s.HistoryWallets + warm.transfers + timed.transfers + peak.transfers
	nWallets := s.Wallets
	if nWallets < spenders {
		nWallets = spenders
	}
	keyBase := seed*1_000_003 + 1
	users := keyRange(keyBase, spenders)
	fill := keyRange(keyBase+int64(spenders), fillerKeys)
	recipients := make([]int, spenders)
	for i := range recipients {
		recipients[i] = rng.Intn(fillerKeys)
	}
	p.wallets = make([]*wallet, nWallets)
	parallelFor(nWallets, func(i int) {
		kp := fill[i%fillerKeys]
		if i < spenders {
			kp = users[i]
		}
		w := &wallet{owner: kp.PublicBase58()}
		create := txn.NewCreate(w.owner, map[string]any{"kind": "wallet", "seq": i}, uint64(s.Inputs), nil)
		outs := make([]*txn.Output, s.Inputs)
		for j := range outs {
			outs[j] = &txn.Output{PublicKeys: []string{w.owner}, Amount: 1}
		}
		create.Outputs = outs
		w.create = mustSign(create, kp)
		if i < spenders {
			w.recipient = fill[recipients[i]].PublicBase58()
			spends := make([]txn.Spend, s.Inputs)
			for j := range spends {
				spends[j] = txn.Spend{Ref: txn.OutputRef{TxID: w.create.ID, Index: j}, Owners: []string{w.owner}}
			}
			w.transfer = mustSign(txn.NewTransfer(w.create.ID, spends,
				[]*txn.Output{{PublicKeys: []string{w.recipient}, Amount: uint64(s.Inputs)}}, nil), kp)
		}
		p.wallets[i] = w
	})

	// Auctions: settled (complete at preload), open (bids committed,
	// never accepted), then the ones each phase runs.
	nAuctions := s.SettledAuctions + s.OpenAuctions + warm.auctions + timed.auctions + peak.auctions
	p.auctions = p.genAuctions(rng, seed, nAuctions)
	for i := 0; i < s.SettledAuctions; i++ {
		p.settled = append(p.settled, i)
	}

	// Preload blocks: wallets and auction set-up first, then the
	// committed bids, then the history transfers. Settled auctions'
	// accepts and children are committed by the harness at set-up.
	var setupTxs []*txn.Transaction
	for _, w := range p.wallets {
		setupTxs = append(setupTxs, w.create)
	}
	var bidTxs []*txn.Transaction
	for i, a := range p.auctions {
		setupTxs = append(setupTxs, a.request)
		setupTxs = append(setupTxs, a.creates...)
		if i < s.SettledAuctions+s.OpenAuctions {
			bidTxs = append(bidTxs, a.bids...)
		}
	}
	var historyTxs []*txn.Transaction
	for i := 0; i < s.HistoryWallets; i++ {
		historyTxs = append(historyTxs, p.wallets[i].transfer)
	}
	for _, group := range [][]*txn.Transaction{setupTxs, bidTxs, historyTxs} {
		for len(group) > 0 {
			n := min(preloadBlockTxs, len(group))
			p.preload = append(p.preload, group[:n])
			group = group[n:]
		}
	}

	// Phases.
	nextWallet := s.HistoryWallets
	nextAuction := s.SettledAuctions + s.OpenAuctions
	take := func(m writeMix) (ws, as []int) {
		for i := 0; i < m.transfers; i++ {
			ws = append(ws, nextWallet)
			nextWallet++
		}
		for i := 0; i < m.auctions; i++ {
			as = append(as, nextAuction)
			nextAuction++
		}
		return ws, as
	}
	wws, was := take(warm)
	tws, tas := take(timed)
	pws, pas := take(peak)
	rng.Shuffle(len(pws), func(i, j int) { pws[i], pws[j] = pws[j], pws[i] })

	// Read arguments: wallets the run spends plus preloaded history;
	// every auction (settled, open, run).
	p.readWallets = append(append([]int(nil), tws...), seqInts(0, s.HistoryWallets)...)
	p.readAuctions = seqInts(0, len(p.auctions))
	rng.Shuffle(len(p.readWallets), func(i, j int) { p.readWallets[i], p.readWallets[j] = p.readWallets[j], p.readWallets[i] })
	rng.Shuffle(len(p.readAuctions), func(i, j int) { p.readAuctions[i], p.readAuctions[j] = p.readAuctions[j], p.readAuctions[i] })

	p.warm = p.openLoopPhase("warmup", rng, s.WarmSeconds, wws, was)
	for b := 0; b < parts; b++ {
		name := fmt.Sprintf("timed-%d", b+1)
		p.timed = append(p.timed, p.openLoopPhase(name, rng, seconds/float64(parts), part(tws, b, parts), part(tas, b, parts)))
		p.peaks = append(p.peaks, p.burstPhase(rng, part(pws, b, parts), part(pas, b, parts)))
	}
	return p
}

// part is the b-th of n near-equal slices of xs.
func part(xs []int, b, n int) []int {
	return xs[len(xs)*b/n : len(xs)*(b+1)/n]
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// genAuctions builds n auctions with bidders per REQUEST. Requesters
// and bidders come from small key pools, as repeat market
// participants would.
func (p *plan) genAuctions(rng *rand.Rand, seed int64, n int) []*auction {
	requesters := keyRange(seed*1_000_003+500_000_000, 128)
	bidderKeys := keyRange(seed*1_000_003+600_000_000, 512)
	type draw struct {
		requester int
		bidders   []int
		prices    []uint64
		caps      []string
		winner    int
	}
	draws := make([]draw, n)
	for i := range draws {
		d := draw{requester: rng.Intn(len(requesters)), winner: rng.Intn(bidders)}
		c1 := rng.Intn(capabilities)
		c2 := (c1 + 1 + rng.Intn(capabilities-1)) % capabilities
		d.caps = []string{p.caps[c1], p.caps[c2]}
		for b := 0; b < bidders; b++ {
			d.bidders = append(d.bidders, rng.Intn(len(bidderKeys)))
			d.prices = append(d.prices, uint64(1+rng.Intn(maxPrice)))
		}
		draws[i] = d
	}
	escrowPub := p.escrow.PublicBase58()
	out := make([]*auction, n)
	parallelFor(n, func(i int) {
		d := draws[i]
		req := requesters[d.requester]
		a := &auction{caps: d.caps, prices: d.prices}
		// The timestamp orders RecentOpenRequests; auction index order
		// keeps it distinct per REQUEST.
		a.request = mustSign(txn.NewRequest(req.PublicBase58(),
			map[string]any{"capabilities": anyStrings(d.caps), "seq": i},
			map[string]any{"timestamp": i}), req)
		for b := 0; b < bidders; b++ {
			kp := bidderKeys[d.bidders[b]]
			pub := kp.PublicBase58()
			create := mustSign(txn.NewCreate(pub,
				map[string]any{"capabilities": anyStrings(d.caps), "seq": i*bidders + b},
				d.prices[b], nil), kp)
			bid := mustSign(txn.NewBid(pub, create.ID,
				txn.Spend{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{pub}},
				d.prices[b], escrowPub, a.request.ID, nil), kp)
			a.creates = append(a.creates, create)
			a.bids = append(a.bids, bid)
		}
		a.winner = bidderKeys[d.bidders[d.winner]].PublicBase58()
		var losing []*txn.Transaction
		for b, bid := range a.bids {
			if b != d.winner {
				losing = append(losing, bid)
			}
		}
		accept, err := txn.NewAcceptBid(req.PublicBase58(), escrowPub, a.request.ID, a.bids[d.winner], losing, nil)
		if err != nil {
			panic(fmt.Sprintf("e2ebench: accept: %v", err))
		}
		a.accept = mustSign(accept, p.escrow, req)
		out[i] = a
	})
	return out
}

// openLoopPhase schedules a phase's writes and reads as independent
// Poisson streams merged by arrival time. Bids are interleaved across
// auctions: each auction's bids land in a window about windowAuctions
// auctions wide, so auctions open and close steadily through the
// phase instead of all closing at its end.
func (p *plan) openLoopPhase(name string, rng *rand.Rand, seconds float64, ws, as []int) *phase {
	const windowAuctions = 30
	ph := &phase{name: name, auctions: as, span: time.Duration(seconds * float64(time.Second))}
	var ops []op
	for i, at := range driver.PoissonSchedule(len(ws), p.spec.TransferRate, rng) {
		ops = append(ops, op{kind: opTransfer, at: at, tx: p.wallets[ws[i]].transfer, auction: -1})
	}
	type keyed struct {
		key  float64
		a, b int
	}
	var bids []keyed
	for ai, a := range as {
		for b := 0; b < bidders; b++ {
			bids = append(bids, keyed{key: float64(ai) + rng.Float64()*windowAuctions, a: a, b: b})
		}
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i].key < bids[j].key })
	for i, at := range driver.PoissonSchedule(len(bids), p.spec.BidRate, rng) {
		k := bids[i]
		ops = append(ops, op{kind: opBid, at: at, tx: p.auctions[k.a].bids[k.b], auction: k.a})
	}
	nReads := int(p.spec.ReadRate*seconds + 0.5)
	for _, at := range driver.PoissonSchedule(nReads, p.spec.ReadRate, rng) {
		ops = append(ops, op{kind: opRead, at: at, auction: -1, read: p.drawRead(rng)})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	ph.ops = ops
	return ph
}

// burstPhase offers a share of the workload's write mix all at once
// (peak_tps): transfers and bids in random order, every one due at
// offset zero.
func (p *plan) burstPhase(rng *rand.Rand, ws, as []int) *phase {
	ph := &phase{name: "peak", auctions: as}
	for _, w := range ws {
		ph.ops = append(ph.ops, op{kind: opTransfer, tx: p.wallets[w].transfer, auction: -1})
	}
	for _, a := range as {
		for _, bid := range p.auctions[a].bids {
			ph.ops = append(ph.ops, op{kind: opBid, tx: bid, auction: a})
		}
	}
	rng.Shuffle(len(ph.ops), func(i, j int) { ph.ops[i], ph.ops[j] = ph.ops[j], ph.ops[i] })
	return ph
}
