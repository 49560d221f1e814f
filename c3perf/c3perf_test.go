package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"c3"
	"c3/internal/stable"
)

// TestTimedStoreForwardsOptionalInterfaces pins the two optional
// interfaces the runtime type-asserts: FailNode reaches the wrapped store,
// and a handle reports StoredSize exactly when the wrapped handle does.
func TestTimedStoreForwardsOptionalInterfaces(t *testing.T) {
	rs := c3.NewReplicatedStore(3)
	defer rs.Close()
	ts := &timedStore{inner: rs, tr: newTracer(time.Now())}
	ck, err := ts.Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("app", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	sz, ok := ck.(stable.StoredSizer)
	if !ok || sz.StoredSize() == 0 {
		t.Fatalf("replicated handle lost StoredSizer (ok=%v)", ok)
	}
	var st stable.Store = ts
	nf, ok := st.(stable.NodeFailer)
	if !ok {
		t.Fatal("timed store does not implement NodeFailer")
	}
	nf.FailNode(0)
	if _, err := ts.Open(0, 1); err != nil {
		t.Fatal(err)
	}
	if rs.Reassemblies() != 1 {
		t.Fatalf("FailNode did not reach the store: reassemblies=%d, want 1", rs.Reassemblies())
	}

	mem := &timedStore{inner: c3.NewMemStore(), tr: newTracer(time.Now())}
	mck, err := mem.Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mck.(stable.StoredSizer); ok {
		t.Fatal("memory-store handle must not report StoredSize")
	}
}

// TestTracedRoundMatchesUntraced runs one seed traced and untraced and
// requires the same lines, reassemblies, stored bytes and checksums, all
// equal to the failure-free Direct reference.
func TestTracedRoundMatchesUntraced(t *testing.T) {
	for _, name := range []string{"commit-rs", "recover-dup"} {
		t.Run(name, func(t *testing.T) {
			sp := specs[name].scaled(0.1)
			ref := doRound(sp, 5, true, false, nil)
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			plain := doRound(sp, 5, false, false, ref.finals)
			traced := doRound(sp, 5, false, true, ref.finals)
			for _, o := range []*outcome{plain, traced} {
				if o.err != nil || o.failed != 0 {
					t.Fatalf("round failed %d/%d: %v", o.failed, o.attempted, o.err)
				}
			}
			lines := func(s c3.ProtocolStats) uint64 { return s.CheckpointsTaken }
			stored := func(s c3.ProtocolStats) uint64 { return s.StoredBytes }
			if plain.sum(lines) != traced.sum(lines) || plain.reassemblies != traced.reassemblies ||
				plain.storedNow != traced.storedNow || plain.sum(stored) != traced.sum(stored) {
				t.Fatalf("traced run differs: lines %d/%d reassemblies %d/%d stored %d/%d sum-stored %d/%d",
					plain.sum(lines), traced.sum(lines), plain.reassemblies, traced.reassemblies,
					plain.storedNow, traced.storedNow, plain.sum(stored), traced.sum(stored))
			}
			if f := traced.failures; f == 0 && name == "recover-dup" || int(traced.reassemblies) != f {
				t.Fatalf("reassemblies %d, want one per failure (%d)", traced.reassemblies, f)
			}
			if len(traced.spans) == 0 {
				t.Fatal("traced round recorded no spans")
			}
		})
	}
}

// TestSmokeEveryMetricEmitted runs all three workloads at reduced size,
// end-to-end and traced, and checks that the result line names exactly the
// metrics BENCHMARK.json declares and that every gate passed.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--scale", "0.05",
				"--trace", []string{"0", "1"}[trace]}
			var out, errb bytes.Buffer
			if code := cli(args, &out, &errb); code != 0 {
				t.Fatalf("%v: exit %d: %s\n%s", args, code, errb.String(), out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%v: correct=%v failed=%d attempted=%d", args, res.Correct, res.Failed, res.Attempted)
			}
			var got, exp []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Fatalf("%v: metrics\n got %v\nwant %v", args, got, exp)
			}
			if trace == 0 {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%v: end-to-end metric %s = %v, want > 0", args, name, m.Value)
					}
				}
			}
		}
	}
}
