// Command c3perf is the C3 benchmark. It drives the public c3 API over
// three seeded closed-loop workloads and checks every output. From the
// root of the source tree:
//
//	python3 c3perf/run.py --workload commit-rs --seed 1 --seconds 36 --trace 0
//
// or, inside c3perf, go run . with the same flags.
//
// With --trace 0 it measures the end-to-end metrics with no timing
// wrappers. With --trace 1 it alternates untraced and traced rounds: the
// traced ones time every call into the cluster, ckpt, mpi and stable
// layers from the benchmark side and produce the per-layer metrics. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it print every metric
// with its unit and sample count, and the machine and build metadata.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	// A hung world fails the run instead of hanging its caller.
	time.AfterFunc(160*time.Second, func() {
		fmt.Fprintln(os.Stderr, "c3perf: watchdog: run exceeded 160 s")
		os.Exit(3)
	})
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("c3perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = per-layer (traced) run, 0 = end-to-end run")
	fs.Float64Var(&o.scale, "scale", 1, "per-round work as a fraction of the full size")
	fs.StringVar(&o.spanDir, "span-dir", "", "directory for the traced run's span file")
	commit := fs.String("commit", "unknown", "git commit of the measured tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := specs[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 || o.scale <= 0 || o.scale > 1 {
		fmt.Fprintf(stderr, "c3perf: need --workload (%s), --trace 0|1, --seconds > 0 and 0 < --scale <= 1\n",
			strings.Join(workloadNames, ", "))
		return 2
	}
	o.traced = trace == 1
	for _, kv := range machineInfo(*commit, o) {
		fmt.Fprintf(stdout, "# %s: %s\n", kv[0], kv[1])
	}
	rep, err := bench(o)
	if err != nil {
		fmt.Fprintf(stderr, "c3perf: %v\n", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	fmt.Fprintf(stdout, "%-36s %14s  %-6s %7s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%-36s %14.6g  %-6s %7d  %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
	fmt.Fprintf(stdout, "fail_ratio %.6g (%d failed of %d attempted)\n",
		float64(rep.failed)/float64(max(1, rep.attempted)), rep.failed, rep.attempted)
	line, err := rep.json()
	if err != nil {
		fmt.Fprintf(stderr, "c3perf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported number. A metric with no samples on a workload
// is absent: it is reported as 0 with the reason in note.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
	extra bool // printed in the table only: not defined on every workload
}

type report struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

// absent reports a metric the workload does not exercise.
func (r *report) absent(name, unit, why string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, note: "absent: " + why})
}

// dist adds name_p50 and name_p<q> over samples, or marks them absent.
func (r *report) dist(name, unit string, xs []float64, hi float64, why string) {
	names := []string{name + "_p50", fmt.Sprintf("%s_p%.0f", name, hi*100)}
	for i, q := range []float64{0.5, hi} {
		if len(xs) == 0 {
			r.absent(names[i], unit, why)
		} else {
			r.add(names[i], unit, quantile(xs, q), len(xs))
		}
	}
}

// json renders the result line. Its metrics are the ones a run of this
// kind defines: end-to-end with --trace 0, per-layer with --trace 1.
func (r *report) json() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, m := range r.metrics {
		if !m.extra {
			out.Metrics[m.name] = val{Value: m.value, Unit: m.unit}
		}
	}
	return json.Marshal(out)
}

// bench runs one invocation: the failure-free Direct reference, a warm-up
// round, then measured rounds until the time budget is spent.
func bench(o options) (*report, error) {
	sp := specs[o.workload]
	if o.scale < 1 {
		sp = sp.scaled(o.scale)
	}
	ref := doRound(sp, o.seed, true, false, nil)
	if ref.err != nil || ref.failed > 0 {
		return nil, fmt.Errorf("direct reference failed: %v", ref.err)
	}
	refSums := ref.finals
	// The first world in a process runs slower (page faults, lazy runtime
	// set-up); a reduced-size round absorbs that before anything is timed.
	if w := doRound(sp.scaled(0.25), o.seed, false, false, nil); w.err != nil || w.failed > 0 {
		return nil, fmt.Errorf("warm-up round failed: %v", w.err)
	}

	var plain, traced, direct []*outcome
	start := time.Now()
	last := 0.0
	for k := 0; k == 0 || time.Since(start).Seconds()+last <= o.seconds; k++ {
		t := time.Now()
		if !o.traced {
			plain = append(plain, doRound(sp, o.seed, false, false, refSums))
		} else {
			// Alternate which kind goes first so neither always runs on a
			// warmer heap.
			for i := 0; i < 2; i++ {
				if (i+k)%2 == 0 {
					plain = append(plain, doRound(sp, o.seed, false, false, refSums))
				} else {
					traced = append(traced, doRound(sp, o.seed, false, true, refSums))
				}
			}
			direct = append(direct, doRound(sp, o.seed, true, false, refSums))
		}
		last = time.Since(t).Seconds()
	}

	rep := &report{}
	for _, group := range [][]*outcome{plain, traced, direct} {
		for _, oc := range group {
			rep.attempted += oc.attempted
			rep.failed += oc.failed
			if oc.err != nil {
				rep.notes = append(rep.notes, "round error: "+oc.err.Error())
			}
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("rounds: %d untraced, %d traced, %d direct; %d iterations/round",
		len(plain), len(traced), len(direct), ref.iters))
	rep.notes = append(rep.notes, fmt.Sprintf("run_s per untraced round: %.4g",
		collect(plain, func(o *outcome) float64 { return o.runS })))
	if !o.traced {
		endToEnd(rep, plain)
		return rep, nil
	}
	if err := perLayer(rep, sp, o, plain, traced, direct); err != nil {
		return nil, err
	}
	if o.spanDir != "" {
		path, err := writeSpanFile(o.spanDir, o.workload, traced)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.notes = append(rep.notes, "spans: "+path)
	}
	return rep, nil
}

// endToEnd reports the metrics a user of the system sees.
func endToEnd(rep *report, rounds []*outcome) {
	n := len(rounds)
	rep.add("run_s", "s", median(collect(rounds, func(o *outcome) float64 { return o.runS })), n)
	rep.add("setup_s", "s", median(collect(rounds, func(o *outcome) float64 { return o.setupS })), n)
	rep.add("cpu_s", "s", median(collect(rounds, func(o *outcome) float64 { return o.cpuS })), n)
	rep.add("peak_rss_mb", "MiB", peakRSSMiB(), 1)
	rep.dist("line_ms", "ms", pool(rounds, func(o *outcome) []float64 { return o.lines }), 0.9, "no recovery lines")
	// p90, not p99: commit-rs and recover-dup run a few hundred iterations
	// a run, too few for a steady p99; msg-proto's checkpoint-start
	// interference shows in its line_ms instead.
	rep.dist("iter_us", "us", pool(rounds, func(o *outcome) []float64 { return o.iterUs }), 0.9, "no iterations")
	rec := pool(rounds, func(o *outcome) []float64 { return o.recovers })
	for _, q := range []float64{0.5, 0.9} {
		name := fmt.Sprintf("recover_ms_p%.0f", q*100)
		if len(rec) == 0 {
			rep.metrics = append(rep.metrics, metric{name: name, unit: "ms", note: "absent: no injected failures", extra: true})
		} else {
			rep.metrics = append(rep.metrics, metric{name: name, unit: "ms", value: quantile(rec, q), n: len(rec), extra: true})
		}
	}
}
