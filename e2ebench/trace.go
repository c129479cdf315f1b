package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"smartchaindb/internal/obs"
)

// span is one call the benchmark made into a layer, recorded from the
// outside: name, start and end (ns since the phase start), the span
// that caused it (0 for none) and the trace ids of the operations it
// served — one id per transaction or read, shared by all its spans.
type span struct {
	ID     int32   `json:"id"`
	Parent int32   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Txs    []int32 `json:"trace_ids,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// writeSpans writes a traced phase's spans, one JSON object a line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the mean duration and the mean
// self time (duration minus the part covered by child spans).
func selfTimes(spans []span) (total, self map[string]float64) {
	childMs := make(map[int32]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			childMs[s.Parent] += s.ms()
		}
	}
	sum := map[string]float64{}
	selfSum := map[string]float64{}
	n := map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += s.ms()
		selfSum[s.Name] += s.ms() - childMs[s.ID]
		n[s.Name]++
	}
	total, self = map[string]float64{}, map[string]float64{}
	for name := range n {
		total[name] = sum[name] / n[name]
		self[name] = selfSum[name] / n[name]
	}
	return total, self
}

// stageNames are the per-transaction stages along the blocking chain
// from scheduled arrival to seal. They tile the commit latency except
// for the residual: the Pool.Fresh call and bookkeeping between pack
// and validation.
var stageNames = []string{"inbox", "admit", "dwell", "pack", "validate", "commit_queue", "commit"}

func stagesOf(w *wrec) []time.Duration {
	return []time.Duration{
		w.admitStart.Sub(w.sched),
		w.admitted.Sub(w.admitStart),
		w.packStart.Sub(w.admitted),
		w.packEnd.Sub(w.packStart),
		w.valEnd.Sub(w.valStart),
		w.queued.Sub(w.valEnd),
		w.sealed.Sub(w.queued),
	}
}

// layerMetrics computes the per-layer metrics of a traced timed phase.
func layerMetrics(r *phaseRun, st phaseStats, node registryDelta, ledger obs.Snapshot, rt0, rt1 rtSample, cpu time.Duration) map[string]float64 {
	m := map[string]float64{}
	late := sortedCopy(st.late)
	m["driver.late_p99_ms"] = percentile(late, 99)
	m["driver.late_max_ms"] = percentile(late, 100)

	total, self := selfTimes(r.spans)
	m["mempool.admit_self_ms"] = self["mempool.admit_batch"]
	m["mempool.pack_ms"] = total["mempool.pack"]
	m["server.checktx_ms"] = total["server.checktx"]
	m["server.validate_ms"] = total["server.validate_block"]
	m["ledger.commit_queue_ms"] = total["ledger.commit_queue"]
	m["ledger.commit_ms"] = total["ledger.commit"]
	for sh := readShape(0); sh < numShapes; sh++ {
		m["query."+sh.String()+"_ms"] = total["query."+sh.String()]
	}

	// Per-transaction stages over committed client writes.
	var dwell []float64
	stageSum := make([]float64, len(stageNames))
	var resid, latency float64
	n := 0
	client := append([]*wrec(nil), r.writes...)
	for _, ar := range r.auctions {
		client = append(client, ar.accept)
	}
	for _, w := range client {
		if w.failed != nil || w.sealed.IsZero() {
			continue
		}
		n++
		lat := ms(w.sealed.Sub(w.sched))
		covered := 0.0
		for i, d := range stagesOf(w) {
			stageSum[i] += ms(d)
			covered += ms(d)
		}
		resid += lat - covered
		latency += lat
		dwell = append(dwell, ms(w.packStart.Sub(w.admitted)))
	}
	for i, name := range stageNames {
		m["stage."+name+"_ms"] = ratio(stageSum[i], float64(n))
	}
	m["trace.residual_ms"] = ratio(resid, float64(n))
	m["trace.residual_frac"] = ratio(resid, latency)
	m["mempool.dwell_p50_ms"] = percentile(sortedCopy(dwell), 50)

	var child []float64
	for _, ar := range r.auctions {
		for _, c := range ar.children {
			if c.failed == nil && !c.sealed.IsZero() {
				child = append(child, ms(c.sealed.Sub(c.sched)))
			}
		}
	}
	m["nested.child_ms"] = mean(child)
	m["nested.children"] = float64(len(child))

	hits, misses := node.counter("mempool.verdict_reuse_hits"), node.counter("mempool.verdict_reuse_misses")
	m["mempool.verdict_reuse_ratio"] = ratio(hits, hits+misses)
	m["mempool.screen_skips"] = node.counter("mempool.screen_reject_duplicate") + node.counter("mempool.screen_reject_spend_claimed")
	m["server.fence_wait_ms"] = node.histMean("server.fence.wait_ns") / 1e6
	tasks, dedup := node.counter("server.admit.sig_tasks"), node.counter("server.admit.sig_dedup_hits")
	m["server.sig_dedup_ratio"] = ratio(dedup, tasks)
	m["keys.verifies_per_tx"] = ratio(tasks-dedup, node.counter("mempool.admitted"))
	ch, cm := node.gauge("txn.canonical_cache.hits"), node.gauge("txn.canonical_cache.misses")
	m["txn.canonical_hit_ratio"] = ratio(ch, ch+cm)
	m["parallel.conflict_groups_mean"] = node.histMean("server.validate.conflict_groups")
	m["parallel.largest_group_mean"] = node.histMean("server.validate.largest_group")

	lh := ledger.Histograms
	m["ledger.plan_p50_ms"] = float64(lh["ledger.commit.plan_ns"].P50) / 1e6
	m["ledger.apply_p50_ms"] = float64(lh["ledger.commit.apply_ns"].P50) / 1e6
	m["ledger.seal_p50_ms"] = float64(lh["ledger.commit.seal_ns"].P50) / 1e6
	m["ledger.txs_per_block"] = lh["ledger.commit.batch_txs"].Mean()
	m["ledger.seal_stalls"] = float64(ledger.Counters["ledger.pipeline.seal_stalls"])
	ph, pm := float64(ledger.Counters["docstore.plan_cache.hits"]), float64(ledger.Counters["docstore.plan_cache.misses"])
	m["docstore.plan_cache_hit_ratio"] = ratio(ph, ph+pm)
	reads := 0
	for _, rr := range r.reads {
		if rr.failed == nil && !rr.answered.IsZero() {
			reads++
		}
	}
	m["docstore.index_probes_per_read"] = ratio(float64(ledger.Counters["docstore.index_probes"]), float64(reads))
	m["docstore.full_scans"] = float64(ledger.Counters["docstore.full_scans"])
	m["storage.wal_fsync_p50_ms"] = float64(lh["storage.wal.fsync_ns"].P50) / 1e6
	m["storage.wal_bytes_per_tx"] = ratio(float64(lh["storage.wal.group_bytes"].Sum), float64(ledger.Counters["ledger.commit.txs"]))
	m["storage.mvcc_chain_len_p99"] = float64(lh["storage.mvcc.chain_len"].P99)

	m["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, cpu.Seconds())
	m["runtime.alloc_mb_per_op"] = ratio(float64(rt1.allocBytes-rt0.allocBytes)/(1<<20), float64(st.completed))
	m["fail_frac"] = ratio(float64(st.failed), float64(st.attempted))
	return m
}

// spanSummary renders the traced phase's span counts, for the log.
func spanSummary(spans []span) string {
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf(" %s=%d", n, count[n])
	}
	return out
}
