package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"c3"
	"c3/internal/stable"
	"c3/internal/trace"
)

// options configure one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    float64 // per-round work as a fraction of the full size
	spanDir  string  // traced spans are written here at exit ("" = not written)
}

// outcome is the summary of one measured round. The round itself (its
// inputs and per-rank logs) is dropped once summarized, so a long run does
// not grow the process and peak_rss_mb stays a property of one world.
type outcome struct {
	res          *c3.Result
	err          error
	iters        int      // iterations of the fixed work
	failures     int      // injected failures
	finals       []uint64 // per-rank final checksums
	setupS, runS float64
	cpuS         float64

	lines, iterUs, recovers, launches []float64
	teardownMs                        float64
	waitMs                            float64 // rank 0's blocked time per iteration (traced)

	attempted, failed int

	// Traced rounds only.
	spans      []span
	hist       [3]histDelta // serialize, commit, restore
	allocBytes uint64
	gcPauseNs  uint64

	// Store counters after the round.
	written, replBytes, reassemblies, storedNow, replMsgs int64
}

type histDelta struct {
	count uint64
	sumNs int64
}

var histKinds = [3]trace.Kind{trace.KindSerialize, trace.KindCommit, trace.KindRestore}

func histograms() [3]trace.HistSnapshot {
	var out [3]trace.HistSnapshot
	for i, k := range histKinds {
		out[i] = trace.Default().Histogram(k)
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// doRound runs one world over freshly generated inputs. Set-up is the
// input generation, store construction and world launch up to the first
// iteration; run is the first iteration to the return of c3.Run.
func doRound(sp spec, seed uint64, direct, traced bool, ref []uint64) *outcome {
	// Each round starts from a collected heap, so no round pays for the
	// garbage of the one before.
	runtime.GC()
	origin := time.Now()
	in := genInputs(sp, seed)
	var store stable.Store
	var rs *stable.ReplicatedStore
	if direct {
		in.fails = nil
	} else {
		var err error
		if store, rs, err = in.newStore(); err != nil {
			return &outcome{err: err, failed: 1, attempted: 1}
		}
	}
	written, _ := store.(interface{ BytesWritten() int64 })
	var tr *tracer
	if traced {
		tr = newTracer(origin)
		store = &timedStore{inner: store, tr: tr}
	}
	rd := newRound(in, direct, tr, origin)
	o := &outcome{iters: in.iters, failures: len(in.fails)}
	var h0 [3]trace.HistSnapshot
	var m0, m1 runtime.MemStats
	if traced {
		h0 = histograms()
		runtime.ReadMemStats(&m0)
	}
	c0 := cpuSeconds()
	runEntry := rd.now()
	o.res, o.err = rd.run(store)
	runExit := rd.now()
	o.cpuS = cpuSeconds() - c0
	if traced {
		runtime.ReadMemStats(&m1)
		h1 := histograms()
		for i := range h1 {
			o.hist[i] = histDelta{count: h1[i].Count - h0[i].Count, sumNs: h1[i].Sum - h0[i].Sum}
		}
		o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		o.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
		o.spans = tr.snapshot()
	}
	if written != nil {
		o.written = written.BytesWritten()
	}
	if rs != nil {
		o.replBytes = rs.ReplicatedBytes()
		o.reassemblies = rs.Reassemblies()
		o.storedNow = rs.StoredBytes()
		o.replMsgs = int64(rs.NetworkStats().MessagesSent)
		rs.Close()
	}
	o.summarize(rd, runEntry, runExit)
	o.check(rd, ref)
	return o
}

// summarize extracts the round's timings from its logs.
func (o *outcome) summarize(rd *round, runEntry, runExit int64) {
	first := int64(-1)
	for _, lg := range rd.logs {
		o.finals = append(o.finals, lg.final)
		if len(lg.iters) > 0 && (first < 0 || lg.iters[0].start < first) {
			first = lg.iters[0].start
		}
	}
	if first < 0 {
		first = runEntry
	}
	o.setupS = float64(first) / 1e9
	o.runS = float64(runExit-first) / 1e9
	o.lines = lineSamples(rd)
	lg0 := rd.logs[0]
	for _, it := range lg0.iters {
		o.iterUs = append(o.iterUs, float64(it.end-it.start)/1e3)
	}
	o.waitMs = float64(lg0.waitNs) / 1e6 / float64(max(1, len(lg0.iters)))
	// Recovery: the victim entering the fatal pragma to the last rank's
	// Restore returning in the next attempt.
	for k, t := range rd.failAt {
		if k+1 < len(rd.restoreEnd) && rd.restoreEnd[k+1] > 0 {
			o.recovers = append(o.recovers, float64(rd.restoreEnd[k+1]-t)/1e6)
		}
	}
	// Launch: Run entry (first attempt) or the previous attempt's last app
	// return, to the last rank entering the app.
	for a, t := range rd.entryLast {
		from := runEntry
		if a > 0 {
			if a-1 >= len(rd.returnLast) {
				break
			}
			from = rd.returnLast[a-1]
		}
		o.launches = append(o.launches, float64(t-from)/1e6)
	}
	if rl := rd.returnLast; len(rl) > 0 {
		o.teardownMs = float64(runExit-rl[len(rl)-1]) / 1e6
	}
}

// lineSamples returns each complete recovery line's latency in ms: the
// first rank entering the pragma that took the checkpoint to the last rank
// leaving its Sync (forced lines) or that pragma (natural lines).
func lineSamples(rd *round) []float64 {
	type key struct {
		attempt int
		line    int64
	}
	type agg struct {
		n            int
		enter, leave int64
	}
	lines := map[key]*agg{}
	for _, lg := range rd.logs {
		for _, l := range lg.lines {
			k := key{l.attempt, l.line}
			a := lines[k]
			if a == nil {
				a = &agg{enter: l.enter, leave: l.leave}
				lines[k] = a
			}
			a.n++
			a.enter, a.leave = min(a.enter, l.enter), max(a.leave, l.leave)
		}
	}
	var out []float64
	for _, a := range lines {
		if a.n == len(rd.logs) {
			out = append(out, float64(a.leave-a.enter)/1e6)
		}
	}
	return out
}

// check applies the correctness gates to a round. Every gate is an
// attempted operation; a mismatch is a failed one.
//   - every rank's final checksum equals the failure-free Direct reference;
//   - a failure-free forced-line workload commits iterations × ranks lines;
//   - a failure workload launches failures+1 attempts and reassembles
//     exactly one line per failure from peer memory.
func (o *outcome) check(rd *round, ref []uint64) {
	sp := rd.in.spec
	attempted := o.iters + sp.ranks
	failed := 0
	for r, lg := range rd.logs {
		if !lg.done || (ref != nil && lg.final != ref[r]) {
			failed++
		}
	}
	if !rd.direct && o.res != nil {
		if sp.forced() && sp.failures == 0 {
			want := o.iters * sp.ranks
			attempted += want
			failed += min(want, absInt(want-int(o.sum(func(s c3.ProtocolStats) uint64 { return s.CheckpointsTaken }))))
		}
		if f := o.failures; f > 0 {
			attempted += 2 * f
			failed += min(f, absInt(o.res.Attempts-(f+1)))
			failed += min(f, absInt(int(o.reassemblies)-f))
		}
	}
	if o.err != nil {
		failed = attempted
	}
	o.attempted, o.failed = attempted, failed
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sum totals one protocol counter over the ranks of the final attempt.
func (o *outcome) sum(f func(c3.ProtocolStats) uint64) uint64 {
	var t uint64
	if o.res != nil {
		for _, rs := range o.res.Stats {
			t += f(rs.Stats)
		}
	}
	return t
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// collect gathers one value per outcome.
func collect(os []*outcome, f func(*outcome) float64) []float64 {
	out := make([]float64, 0, len(os))
	for _, o := range os {
		out = append(out, f(o))
	}
	return out
}

// pool concatenates per-outcome samples.
func pool(os []*outcome, f func(*outcome) []float64) []float64 {
	var out []float64
	for _, o := range os {
		out = append(out, f(o)...)
	}
	return out
}

// writeSpanFile writes the traced rounds' spans to dir/<workload>.spans.tsv.
func writeSpanFile(dir, workload string, traced []*outcome) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := fmt.Fprintln(f, "round\tid\tparent\tname\trank\tkey\tstart_ns\tend_ns"); err != nil {
		f.Close()
		return "", err
	}
	for i, o := range traced {
		if err := writeSpans(f, i, o.spans); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
