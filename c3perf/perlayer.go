package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"c3"
	"c3/internal/stable"
	"c3/internal/statesave"
)

// perLayer reports the per-layer metrics from the traced rounds, the
// tracing overhead (traced minus untraced run_s), the Direct comparison,
// and the kernel rates. It also gates the traced rounds' exact counts
// against the untraced ones: a wrapper that changed what the program does
// would show here.
func perLayer(rep *report, sp spec, o options, plain, traced, direct []*outcome) error {
	runS := func(group []*outcome) float64 {
		return median(collect(group, func(o *outcome) float64 { return o.runS }))
	}
	per := func(f func(*outcome) float64) float64 { return median(collect(traced, f)) }
	n := len(traced)
	gateCounts(rep, sp, plain, traced)

	// cluster
	launches := pool(traced, func(o *outcome) []float64 { return o.launches })
	rep.add("cluster.launch_ms", "ms", median(launches), len(launches))
	rep.add("cluster.teardown_ms", "ms", per(func(o *outcome) float64 { return o.teardownMs }), n)
	rep.add("cluster.attempts", "count", per(func(o *outcome) float64 { return float64(o.res.Attempts) }), n)
	rep.dist("cluster.recover_ms", "ms", pool(traced, func(o *outcome) []float64 { return o.recovers }), 0.9, "no injected failures")

	// ckpt: spans around the calls the application makes
	for _, c := range []struct{ name, why string }{
		{"ckpt.pragma", "no checkpoint-taking pragma"},
		{"ckpt.sync", "no forced lines"},
		{"ckpt.restore", "no restart attempts"},
	} {
		d := pool(traced, func(o *outcome) []float64 { return durations(o.spans, c.name) })
		rep.dist(c.name+"_ms", "ms", d, 0.9, c.why)
		self := pool(traced, func(o *outcome) []float64 { return selfTimes(o.spans, c.name) })
		if len(self) == 0 {
			rep.absent(c.name+"_self_ms", "ms", c.why)
		} else {
			rep.add(c.name+"_self_ms", "ms", median(self), len(self))
		}
	}
	// ckpt: the program's own flight-recorder histograms, diffed per round
	for i, name := range []string{"ckpt.serialize_ms", "ckpt.commit_ms", "ckpt.restore_hist_ms"} {
		var cnt uint64
		var sum int64
		for _, oc := range traced {
			cnt += oc.hist[i].count
			sum += oc.hist[i].sumNs
		}
		if cnt == 0 {
			rep.absent(name, "ms", "no observations in the flight recorder")
		} else {
			rep.add(name, "ms", float64(sum)/float64(cnt)/1e6, int(cnt))
		}
	}
	// ckpt: Result.Stats, summed over ranks, median over rounds
	stat := func(f func(c3.ProtocolStats) uint64) float64 {
		return per(func(o *outcome) float64 { return float64(o.sum(f)) })
	}
	if sp.async {
		rep.add("ckpt.stall_ms", "ms", stat(func(s c3.ProtocolStats) uint64 { return uint64(s.CommitStallLatency) })/1e6, n)
		rep.add("ckpt.async_write_ms", "ms", stat(func(s c3.ProtocolStats) uint64 { return uint64(s.AsyncWriteDuration) })/1e6, n)
	} else {
		rep.absent("ckpt.stall_ms", "ms", "synchronous commit")
		rep.absent("ckpt.async_write_ms", "ms", "synchronous commit")
	}
	for _, c := range []struct {
		name string
		f    func(c3.ProtocolStats) uint64
	}{
		{"ckpt.lines", func(s c3.ProtocolStats) uint64 { return s.CheckpointsTaken }},
		{"ckpt.piggyback_bytes", func(s c3.ProtocolStats) uint64 { return s.PiggybackBytes }},
		{"ckpt.control_msgs", func(s c3.ProtocolStats) uint64 { return s.ControlMessages }},
		{"ckpt.late_logged", func(s c3.ProtocolStats) uint64 { return s.LateLogged }},
		{"ckpt.early_recorded", func(s c3.ProtocolStats) uint64 { return s.EarlyRecorded }},
		{"ckpt.sig_logged", func(s c3.ProtocolStats) uint64 { return s.SigLogged }},
		{"ckpt.replayed_late", func(s c3.ProtocolStats) uint64 { return s.ReplayedLate }},
		{"ckpt.suppressed_sends", func(s c3.ProtocolStats) uint64 { return s.SuppressedSends }},
	} {
		rep.add(c.name, "count", stat(c.f), n)
	}
	rep.add("ckpt.overhead_s", "s", runS(plain)-runS(direct), len(plain))

	// mpi / transport
	rep.add("mpi.direct_run_s", "s", runS(direct), len(direct))
	rep.add("mpi.wait_ms", "ms", per(func(o *outcome) float64 { return o.waitMs }), n)
	allreduce := pool(traced, func(o *outcome) []float64 { return durations(o.spans, "mpi.allreduce") })
	if len(allreduce) == 0 {
		rep.absent("mpi.allreduce_us", "us", "no Allreduce")
	} else {
		rep.add("mpi.allreduce_us", "us", median(allreduce)*1e3, len(allreduce))
	}
	rep.add("transport.msgs", "count", per(func(o *outcome) float64 { return float64(o.res.Transport.MessagesSent) }), n)
	rep.add("transport.data_msgs", "count", per(func(o *outcome) float64 { return float64(o.res.Transport.DataMessages) }), n)
	rep.add("transport.control_msgs", "count", per(func(o *outcome) float64 { return float64(o.res.Transport.ControlMessages) }), n)
	rep.add("transport.payload_mb", "MiB", per(func(o *outcome) float64 { return float64(o.res.Transport.DeliveredPayload) / (1 << 20) }), n)

	// stable: the timing wrapper's spans, per call
	for _, c := range []struct {
		name, unit string
		scale      float64
	}{
		{"stable.begin", "us", 1e3},
		{"stable.write_section", "ms", 1},
		{"stable.commit", "ms", 1},
		{"stable.open", "ms", 1},
		{"stable.read_section", "ms", 1},
		{"stable.last_committed", "us", 1e3},
		{"stable.retire", "ms", 1},
	} {
		d := pool(traced, func(o *outcome) []float64 { return durations(o.spans, c.name) })
		name := c.name + "_" + c.unit
		if len(d) == 0 {
			rep.absent(name, c.unit, "no calls")
		} else {
			rep.add(name, c.unit, median(d)*c.scale, len(d))
		}
	}
	ckptBytes := stat(func(s c3.ProtocolStats) uint64 { return s.CheckpointBytes })
	stored := stat(func(s c3.ProtocolStats) uint64 { return s.StoredBytes })
	rep.add("stable.stored_bytes_per_ckpt_byte", "B/B", stored/ckptBytes, n)
	if sp.codec == "" {
		rep.absent("stable.wire_bytes_per_ckpt_byte", "B/B", "in-memory store has no replication")
		rep.absent("stable.reassemblies", "count", "in-memory store has no replication")
		rep.absent("stable.repl_msgs", "count", "in-memory store has no replication")
	} else {
		rep.add("stable.wire_bytes_per_ckpt_byte", "B/B", per(func(o *outcome) float64 { return float64(o.replBytes) / float64(o.written) }), n)
		rep.add("stable.reassemblies", "count", per(func(o *outcome) float64 { return float64(o.reassemblies) }), n)
		rep.add("stable.repl_msgs", "count", per(func(o *outcome) float64 { return float64(o.replMsgs) }), n)
	}
	// The program's encode/ship/ack/reassemble histograms are recorded only
	// by the multi-process DistStore, which these workloads do not use.
	for _, name := range []string{"encode", "ship", "ack", "reassemble"} {
		rep.metrics = append(rep.metrics, metric{name: "stable." + name + "_hist_ms", unit: "ms", extra: true,
			note: "absent: recorded only by DistStore; the stable.* spans and kernel rates stand in"})
	}
	lineBytes := int(ckptBytes / max(1, stat(func(s c3.ProtocolStats) uint64 { return s.CheckpointsTaken })))
	if sp.codec == "" {
		for _, name := range []string{"stable.encode_mb_s", "stable.decode_mb_s", "stable.sum_mb_s"} {
			rep.absent(name, "MB/s", "in-memory store runs no codec")
		}
	} else {
		k, err := kernelRates(sp, o.seed, lineBytes)
		if err != nil {
			return err
		}
		rep.add("stable.encode_mb_s", "MB/s", k.enc, kernelTrials)
		rep.add("stable.decode_mb_s", "MB/s", k.dec, kernelTrials)
		rep.add("stable.sum_mb_s", "MB/s", k.sum, kernelTrials)
		rep.notes = append(rep.notes, fmt.Sprintf("kernel rates: %s k=%d m=%d on a %d-byte seeded blob (one rank's line); %s",
			sp.codec, k.data, k.parity, lineBytes, cacheNote(lineBytes)))
	}

	// statesave
	save, load, err := statesaveTimes(sp, o.seed)
	if err != nil {
		return err
	}
	rep.add("statesave.save_ms", "ms", save, kernelTrials)
	rep.add("statesave.load_ms", "ms", load, kernelTrials)

	// Go runtime
	written := per(func(o *outcome) float64 { return float64(o.written) })
	rep.add("go.alloc_bytes_per_ckpt_byte", "B/B", per(func(o *outcome) float64 { return float64(o.allocBytes) })/written, n)
	rep.add("go.gc_pause_ms", "ms", per(func(o *outcome) float64 { return float64(o.gcPauseNs) / 1e6 }), n)

	rep.add("trace.overhead_s", "s", runS(traced)-runS(plain), n)
	return nil
}

// gateCounts checks that traced rounds did exactly what untraced rounds
// did: the same lines, reassemblies, stored bytes and final checksums.
// Stored bytes repeat exactly only with forced lines: a natural line saves
// the late and early message registries, whose size depends on timing.
func gateCounts(rep *report, sp spec, plain, traced []*outcome) {
	counts := func(o *outcome) []uint64 {
		c := []uint64{o.sum(func(s c3.ProtocolStats) uint64 { return s.CheckpointsTaken }), uint64(o.reassemblies)}
		if sp.forced() {
			c = append(c, uint64(o.storedNow), o.sum(func(s c3.ProtocolStats) uint64 { return s.StoredBytes }))
		}
		return append(c, o.finals...)
	}
	if len(plain) == 0 {
		return
	}
	want := counts(plain[0])
	for _, oc := range traced {
		rep.attempted++
		if got := counts(oc); fmt.Sprint(got) != fmt.Sprint(want) {
			rep.failed++
			rep.notes = append(rep.notes, fmt.Sprintf("traced round counts %v differ from untraced %v", got, want))
		}
	}
}

const kernelTrials = 5

// kernels are the codec geometry and its measured rates in MB/s.
type kernels struct {
	data, parity  int
	enc, dec, sum float64
}

// kernelRates times the store's codec and section checksum on a seeded
// blob of one line's size: encode, decode with m shards dropped, and
// SectionSum, each as the median of kernelTrials trials, in MB/s.
func kernelRates(sp spec, seed uint64, size int) (kernels, error) {
	codec, err := c3.NewCodec(sp.codec, sp.k, sp.m)
	if err != nil {
		return kernels{}, err
	}
	k := kernels{data: codec.DataShards(), parity: codec.ParityShards()}
	blob := make([]byte, size)
	rng := rand.New(rand.NewPCG(seed, 7))
	for i := range blob {
		blob[i] = byte(rng.Uint32())
	}
	shards, err := codec.Encode(blob)
	if err != nil {
		return k, err
	}
	var kerr error
	k.enc = rate(size, func() {
		if _, err := codec.Encode(blob); err != nil {
			kerr = err
		}
	})
	k.dec = rate(size, func() {
		in := append([][]byte(nil), shards...)
		for i := 0; i < codec.ParityShards(); i++ {
			in[i] = nil // drop data shards so decode reconstructs
		}
		if _, err := codec.Decode(in, size); err != nil {
			kerr = err
		}
	})
	k.sum = rate(size, func() { stable.SectionSum(blob) })
	return k, kerr
}

// rate runs f repeatedly for about 40 ms per trial and returns the median
// throughput over kernelTrials trials in MB/s.
func rate(bytes int, f func()) float64 {
	var rates []float64
	for t := 0; t < kernelTrials; t++ {
		reps, start := 0, time.Now()
		for reps == 0 || time.Since(start) < 40*time.Millisecond {
			f()
			reps++
		}
		rates = append(rates, float64(bytes)*float64(reps)/time.Since(start).Seconds()/1e6)
	}
	return median(rates)
}

// statesaveTimes times Registry.Save and Registry.Load on a registry of
// the workload's shape, medians in ms.
func statesaveTimes(sp spec, seed uint64) (save, load float64, err error) {
	reg := statesave.NewRegistry()
	reg.Int("it").Set(1)
	reg.Float64("acc").Set(0.5)
	reg.Register(statesave.NewHeap().Section())
	copy(reg.Float64s("data", sp.words).Data(), genInputs(spec{ranks: 1, words: sp.words}, seed).base[0])
	var saves, loads []float64
	var img []byte
	for t := 0; t < kernelTrials; t++ {
		start := time.Now()
		img = reg.Save()
		saves = append(saves, float64(time.Since(start))/1e6)
		start = time.Now()
		if err := reg.Load(img); err != nil {
			return 0, 0, err
		}
		loads = append(loads, float64(time.Since(start))/1e6)
	}
	return median(saves), median(loads), nil
}

// machineInfo is the metadata printed with every result.
func machineInfo(commit string, o options) [][2]string {
	info := [][2]string{
		{"workload", o.workload},
		{"seed", fmt.Sprint(o.seed)},
		{"trace", fmt.Sprint(o.traced)},
		{"seconds", fmt.Sprint(o.seconds)},
		{"commit", commit},
		{"go", runtime.Version()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"cpu", cpuModel()},
	}
	return append(info, cacheSizes()...)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's unified and data caches as the kernel reports
// them ("2048K").
func cacheSizes() [][2]string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out [][2]string
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if t := read("type"); t == "Instruction" {
			continue
		}
		out = append(out, [2]string{"L" + read("level") + "_cache", read("size")})
	}
	return out
}

// cacheNote says whether a kernel's blob fits the largest cache, so its
// rates are labelled cache-resident or not.
func cacheNote(size int) string {
	llc := 0
	for _, c := range cacheSizes() {
		var n int
		var unit string
		if _, err := fmt.Sscanf(c[1], "%d%s", &n, &unit); err == nil {
			llc = max(llc, n<<map[string]int{"K": 10, "M": 20, "G": 30}[unit])
		}
	}
	blob := float64(size) / (1 << 20)
	switch {
	case llc == 0:
		return fmt.Sprintf("%.1f MiB blob; cache sizes unknown", blob)
	case size <= llc:
		return fmt.Sprintf("cache-resident: the %.1f MiB blob fits the %d MiB last-level cache", blob, llc>>20)
	default:
		return fmt.Sprintf("not cache-resident: the %.1f MiB blob exceeds the %d MiB last-level cache", blob, llc>>20)
	}
}
