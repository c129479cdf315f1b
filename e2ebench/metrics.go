package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"smartchaindb/internal/obs"
)

// percentile interpolates linearly between the closest ranks of a
// sorted sample (p in [0, 100]); NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample reads the Go runtime counters the runtime layer reports.
type rtSample struct {
	gcCPU      float64 // seconds
	allocBytes uint64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return rtSample{gcCPU: s[0].Value.Float64(), allocBytes: s[1].Value.Uint64()}
}

// heapLiveMiB forces a collection and reports the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// phaseStats is what one phase's records say about the end-to-end
// metrics. A failed or unfinished operation counts as missing every
// latency limit: it enters the percentiles at the phase deadline.
type phaseStats struct {
	commit, admit, settle, read []float64 // ms
	readByShape                 [numShapes][]float64
	late                        []float64 // ms, scheduled ops only
	attempted, failed           int
	completed                   int
	seals                       []time.Time // client writes, sealed
}

func (r *phaseRun) stats() phaseStats {
	var s phaseStats
	miss := func(from time.Time) float64 {
		if from.IsZero() {
			from = r.start
		}
		return ms(r.deadline.Sub(from))
	}
	client := append([]*wrec(nil), r.writes...)
	for _, ar := range r.auctions {
		client = append(client, ar.accept)
	}
	for _, w := range client {
		s.attempted++
		if w.kind != opAccept && !w.fired.IsZero() {
			s.late = append(s.late, ms(w.fired.Sub(w.sched)))
		}
		if w.failed != nil || w.sealed.IsZero() {
			s.failed++
			s.commit = append(s.commit, miss(w.sched))
			s.admit = append(s.admit, miss(w.sched))
			continue
		}
		s.completed++
		s.seals = append(s.seals, w.sealed)
		s.commit = append(s.commit, ms(w.sealed.Sub(w.sched)))
		s.admit = append(s.admit, ms(w.admitted.Sub(w.sched)))
	}
	for _, ar := range r.auctions {
		if ar.settled.IsZero() {
			s.settle = append(s.settle, miss(ar.accept.sched))
			if ar.accept.failed == nil && !ar.accept.sealed.IsZero() {
				// The accept sealed but its children did not all follow.
				s.failed++
				s.completed--
			}
			continue
		}
		s.settle = append(s.settle, ms(ar.settled.Sub(ar.accept.sched)))
	}
	for _, rr := range r.reads {
		s.attempted++
		if !rr.fired.IsZero() {
			s.late = append(s.late, ms(rr.fired.Sub(rr.sched)))
		}
		lat := miss(rr.sched)
		if rr.failed != nil || rr.answered.IsZero() {
			s.failed++
		} else {
			s.completed++
			lat = ms(rr.answered.Sub(rr.sched))
		}
		s.read = append(s.read, lat)
		s.readByShape[rr.op.shape] = append(s.readByShape[rr.op.shape], lat)
	}
	return s
}

// readP50 is the mean over read shapes of each shape's median latency.
// Shapes cost from tenths of a millisecond to tens, so the pooled
// median of a uniform mix sits on the boundary between two shapes'
// clusters and jumps between them from run to run; weighting every
// shape equally, as the mix draws them, does not.
func (s phaseStats) readP50() float64 {
	var p50s []float64
	for _, lat := range s.readByShape {
		if len(lat) > 0 {
			p50s = append(p50s, percentile(sortedCopy(lat), 50))
		}
	}
	if len(p50s) == 0 {
		return math.NaN()
	}
	return mean(p50s)
}

// throughput is the rate at which a burst's client writes sealed: the
// first 90% of the seals over the time from the burst's offer to the
// seal that completes them. The tail — the last accepts, which wait on
// their bids, and the drain — is left out.
func (r *phaseRun) throughput(st phaseStats) float64 {
	seals := append([]time.Time(nil), st.seals...)
	if len(seals) == 0 {
		return 0
	}
	sort.Slice(seals, func(i, j int) bool { return seals[i].Before(seals[j]) })
	hi := len(seals) - 1 - len(seals)/10
	return float64(hi+1) / seals[hi].Sub(r.start).Seconds()
}

// registryDelta differences a node registry across the timed phase:
// counters and histogram count/sum (means) cover that phase only.
type registryDelta struct {
	before, after obs.Snapshot
}

func (d registryDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d registryDelta) gauge(name string) float64 {
	return float64(d.after.Gauges[name] - d.before.Gauges[name])
}

// histMean is the mean of the observations made during the phase.
func (d registryDelta) histMean(name string) float64 {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	n := a.Count - b.Count
	if n == 0 {
		return 0
	}
	return float64(a.Sum-b.Sum) / float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
