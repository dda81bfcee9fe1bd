package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"dynopt"
)

// tally sums what the program reported about the queries of a loop.
type tally struct {
	simSeconds                                   float64
	reopts, pushdowns                            int64
	scanRows, shuffleBytes, buildRows, probeRows int64
	matWriteBytes, statsObserved                 int64
	pagesRead, pagesPruned, cacheHits, cacheMiss int64
	spillBytes, spillRebuilds                    int64
	memoHits, memoFallbacks                      int64
}

func (t *tally) add(m *dynopt.Metrics) {
	t.simSeconds += m.SimSeconds
	t.reopts += int64(m.Reopts)
	t.pushdowns += int64(m.PushDowns)
	c := m.Counters
	t.scanRows += c.ScanRows
	t.shuffleBytes += c.ShuffleBytes
	t.buildRows += c.BuildRows
	t.probeRows += c.ProbeRows
	t.matWriteBytes += c.MatWriteBytes
	t.statsObserved += c.StatsObserved
	t.spillBytes += c.SpillBytes
	t.spillRebuilds += m.SpillRebuilds
	t.pagesRead += m.PagesRead
	t.pagesPruned += m.PagesPruned
	t.cacheHits += m.PageCacheHits
	t.cacheMiss += m.PageCacheMiss
	if m.CacheHit {
		t.memoHits++
	}
	if m.ReplayFellBack {
		t.memoFallbacks++
	}
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU, totalCPU               float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// heapWatch samples the live heap (as marked by the last GC) every
// heapSampleEvery until stopped.
type heapWatch struct {
	begin   time.Time
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample
}

type heapSample struct {
	at    float64 // seconds since the watch began
	bytes uint64
}

const heapSampleEvery = 5 * time.Millisecond

func watchHeap(begin time.Time) *heapWatch {
	h := &heapWatch{begin: begin, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, heapSample{time.Since(h.begin).Seconds(), s[0].Value.Uint64()})
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the samples.
func (h *heapWatch) Stop() []heapSample {
	close(h.stop)
	<-h.done
	return h.samples
}

// sample is one completed query.
type sample struct {
	stmt  string  // the statement's name
	ms    float64 // wall time of the db.Query call
	at    float64 // when it returned, seconds into the loop
	sim   float64 // simulated-cluster seconds
	spill int64   // spill bytes
}

// loopResult is what one closed loop measured.
type loopResult struct {
	samples    []sample
	attempted  int
	failed     int // query errors plus wrong-row results
	mismatched int // wrong-row results alone
	firstErr   error
	elapsed    time.Duration
	tally      tally
	rtStart    runtimeSample
	rtEnd      runtimeSample
	heap       []heapSample
}

func (r *loopResult) completed() int { return len(r.samples) }

// windows is the number of equal time slices a loop's timings are taken
// over; the median slice is reported, so a burst of load from outside the
// process that spans less than half the run does not move them.
const windows = 6

// slice returns the time slice that the moment at seconds into the loop
// falls in. The loop's elapsed time runs until its last query returned, so
// only that moment needs clamping into the last slice.
func (r *loopResult) slice(at float64) int {
	return min(int(at/(r.elapsed.Seconds()/windows)), windows-1)
}

// heapPeak returns the largest live heap seen in each time slice, the
// median slice, in bytes.
func (r *loopResult) heapPeak() float64 {
	peaks := make([]float64, windows)
	for _, h := range r.heap {
		k := r.slice(h.at)
		peaks[k] = max(peaks[k], float64(h.bytes))
	}
	return median(peaks)
}

// byWindow splits the samples into the time slices they returned in.
func (r *loopResult) byWindow() [][]sample {
	win := make([][]sample, windows)
	for _, s := range r.samples {
		k := r.slice(s.at)
		win[k] = append(win[k], s)
	}
	return win
}

// timings returns the completed queries per second, the typical latency
// (stmtGeoMean), and the p95 latency, each the median over time slices.
func (r *loopResult) timings() (qps, p50, p95 float64) {
	width := r.elapsed.Seconds() / windows
	var rates, p50s, p95s []float64
	for _, w := range r.byWindow() {
		rates = append(rates, float64(len(w))/width)
		if len(w) > 0 {
			p50s = append(p50s, stmtGeoMean(w))
			p95s = append(p95s, percentile(latencies(w), latencyPercentile))
		}
	}
	return median(rates), median(p50s), median(p95s)
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// byStmt groups samples by statement name.
func byStmt(ss []sample) map[string][]sample {
	out := map[string][]sample{}
	for _, s := range ss {
		out[s.stmt] = append(out[s.stmt], s)
	}
	return out
}

// stmtGeoMean returns the geometric mean over statements of each
// statement's median latency, so a change to any one statement moves it.
// The pooled median of a mix that runs each statement equally often falls
// between two statements' distributions and reads the tail of one of them,
// so it jumps by the gap between them from run to run; a median over the
// statements' medians moves only with the middle ones.
func stmtGeoMean(ss []sample) float64 {
	groups := byStmt(ss)
	var logSum float64
	for _, g := range groups {
		logSum += math.Log(percentile(latencies(g), 0.5))
	}
	return math.Exp(logSum / float64(len(groups)))
}

// runLoop runs a closed loop: clients goroutines each issue the next query
// of seq (from offset start, shared cursor) as soon as their last one
// returns, until dur has passed. Every result is checked against exp. When
// tr is non-nil each query is traced: a root span around db.Query, then the
// layer walk over the same inputs.
func runLoop(db *dynopt.DB, seq []item, start, clients int, dur time.Duration, exp expected, tr *tracer) *loopResult {
	var next atomic.Int64
	next.Store(int64(start))
	runtime.GC()
	res := &loopResult{rtStart: readRuntime()}
	var mu sync.Mutex // guards res while the clients run
	fail := func(err error, mismatch bool) {
		mu.Lock()
		defer mu.Unlock()
		res.failed++
		if mismatch {
			res.mismatched++
		}
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	begin := time.Now()
	heap := watchHeap(begin)
	deadline := begin.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf *spanBuf
			if tr != nil {
				buf = tr.buffer()
			}
			for time.Now().Before(deadline) {
				qid := next.Add(1) - 1
				it := seq[int(qid)%len(seq)]
				t0 := time.Now()
				out, err := db.Query(it.sql, &dynopt.QueryOptions{Params: it.params})
				lat := time.Since(t0)
				mu.Lock()
				res.attempted++
				mu.Unlock()
				if err != nil {
					fail(err, false)
					continue
				}
				if err := exp.check(it.key, out.Rows); err != nil {
					fail(err, true)
					continue
				}
				mu.Lock()
				res.samples = append(res.samples, sample{
					stmt: it.name, ms: float64(lat.Nanoseconds()) / 1e6, at: time.Since(begin).Seconds(),
					sim: out.Metrics.SimSeconds, spill: out.Metrics.Counters.SpillBytes,
				})
				res.tally.add(&out.Metrics)
				mu.Unlock()
				if buf != nil {
					root := buf.add("query", 0, qid, t0, t0.Add(lat))
					if err := tr.walk.run(buf, root, qid, it); err != nil {
						fail(err, false)
					}
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(begin)
	res.heap = heap.Stop()
	res.rtEnd = readRuntime()
	return res
}
