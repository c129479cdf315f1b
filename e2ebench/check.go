package main

import (
	"fmt"
	"math"

	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

// replayFingerprint re-applies the sealed blocks, in height order, to a
// fresh in-memory node with a sequential commit (depth 1, one worker)
// and returns its state fingerprint: the reference the benchmarked
// node's final state must match byte for byte. Nested hooks run as in
// the benchmarked node; the children they submit are dropped because
// the recorded blocks already carry them.
func replayFingerprint(blocks [][]*txn.Transaction) string {
	n := server.NewNode(server.Config{ReservedSeed: reservedSeed, CommitDepth: 1})
	n.SetChildSubmitter(func(*txn.Transaction) {})
	// Retain every height: the retention floor never moves, so seals
	// skip the index floor sweep. The fingerprint reads only the
	// newest versions, which retention does not change.
	n.State().SetRetain(math.MaxInt64)
	for i, b := range blocks {
		n.Commit(int64(i+1), asConsensus(cloneTxs(b)))
	}
	fp := n.State().Fingerprint()
	_ = n.Close() // in-memory: nothing to flush
	return fp
}

const (
	// maxProblems caps the problems one gate reports.
	maxProblems = 20
	// scanChecks caps the distinct reads whose planned answer is
	// compared against a full scan (each scan reads whole collections).
	scanChecks = 24
)

// verify is the correctness gate over a quiesced node: every valid
// offered transaction committed exactly once, the final state equals a
// sequential replay of the sealed blocks (wantFP), every auction names
// the generator's winner with all children sealed, and every read
// answered what the generator's ground truth says at its pinned height
// (with planned answers also checked against a full-scan reference).
func (h *harness) verify(runs []*phaseRun, tr *truth, wantFP string) []string {
	var problems []string
	report := func(format string, args ...any) {
		if len(problems) < maxProblems {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	st := h.state()
	view := st.View()

	// Exactly once: no transaction sits in two blocks, every block
	// member is in the final state, and every offered write is in a
	// block.
	seen := make(map[string]int)
	for _, b := range h.blocks {
		for _, tx := range b {
			seen[tx.ID]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			report("tx %.12s committed in %d blocks", id, n)
		}
		if !view.IsCommitted(id) {
			report("tx %.12s sealed in a block but absent from state", id)
		}
	}
	for _, r := range runs {
		for _, w := range r.writes {
			if seen[w.tx.ID] != 1 {
				report("%s %s %.12s did not commit exactly once (%d): %v", r.ph.name, w.kind, w.tx.ID, seen[w.tx.ID], w.failed)
			}
		}
		for a, ar := range r.auctions {
			if ar.accept.sched.IsZero() {
				report("%s auction %d: accept never sent", r.ph.name, a)
				continue
			}
			if seen[ar.accept.tx.ID] != 1 {
				report("%s auction %d: accept did not commit exactly once: %v", r.ph.name, a, ar.accept.failed)
			}
			if len(ar.children) != bidders {
				report("%s auction %d: %d children submitted, want %d", r.ph.name, a, len(ar.children), bidders)
			}
			for _, c := range ar.children {
				if seen[c.tx.ID] != 1 {
					report("%s auction %d: child %.12s did not commit exactly once: %v", r.ph.name, a, c.tx.ID, c.failed)
				}
			}
		}
	}

	if got := st.Fingerprint(); got != wantFP {
		report("state fingerprint %.16s differs from sequential replay %.16s", got, wantFP)
	}

	// Auction outcomes: every auction settled so far names the
	// generator's winner and has every child sealed.
	eng := h.query
	checkAuction := func(a int) {
		auc := h.p.auctions[a]
		out, ok := eng.AuctionOutcome(auc.request.ID)
		switch {
		case !ok:
			report("auction %d: no outcome", a)
		case out.Winner != auc.winner || out.AcceptID != auc.accept.ID:
			report("auction %d: outcome names winner %.12s, generator chose %.12s", a, out.Winner, auc.winner)
		case !out.Settled:
			report("auction %d: children not all sealed", a)
		}
	}
	for _, a := range h.p.settled {
		checkAuction(a)
	}
	for _, r := range runs {
		for a := range r.auctions {
			checkAuction(a)
		}
	}

	// Reads: ground truth at the pinned height.
	for _, r := range runs {
		for _, rr := range r.reads {
			if rr.answered.IsZero() || rr.failed != nil {
				continue // counted as failed, not wrong
			}
			if want := tr.expect(rr.op, rr.height); rr.answer != want {
				rr.failed = fmt.Errorf("wrong answer at height %d", rr.height)
				report("%s read %s(%d) at height %d: answer differs from ground truth", r.ph.name, rr.op.shape, rr.op.arg, rr.height)
			}
		}
	}
	// Planned answers against a full-scan reference at the final
	// height, over the argument mix the timed reads used.
	final := view.Height()
	pinned, err := eng.AsOf(final)
	if err != nil {
		report("pin final height %d: %v", final, err)
		return problems
	}
	checked := make(map[readOp]bool)
	for _, r := range runs {
		for _, rr := range r.reads {
			if checked[rr.op] || len(checked) >= scanChecks {
				continue
			}
			checked[rr.op] = true
			planned := h.answer(pinned, rr.op)
			if want := tr.expect(rr.op, final); planned != want {
				report("read %s(%d) at final height: planned answer differs from ground truth", rr.op.shape, rr.op.arg)
			}
			if scan, ok := h.scanAnswer(rr.op); ok && scan != planned {
				report("read %s(%d) at final height: planned answer differs from scan reference", rr.op.shape, rr.op.arg)
			}
		}
	}
	return problems
}
