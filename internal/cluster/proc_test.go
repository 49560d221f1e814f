package cluster_test

// The multi-process end-to-end tests: the test binary re-executes itself
// as per-rank worker processes (TestMain intercepts the worker role before
// any tests run), a worker's failure spec freezes it at an exact protocol
// point and the launcher SIGKILLs it there, and the survivors must detect
// the death, agree on the next epoch, and recover over real TCP — the
// re-executed rank reassembling its checkpoints from its +1/+2 neighbors
// through the distributed replicated store — converging to the
// failure-free checksums.

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/sched"
)

const procWorkerEnv = "C3_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(procWorkerEnv) == "1" {
		runProcWorker()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// procIters is the stress workload length shared by workers and reference.
const procIters = 12

// runProcWorker is the body of a re-executed worker process.
func runProcWorker() {
	fs := flag.NewFlagSet("proc-worker", flag.ExitOnError)
	var (
		rank      = fs.Int("rank", 0, "")
		ranks     = fs.Int("ranks", 0, "")
		peers     = fs.String("peers", "", "")
		replPeers = fs.String("repl-peers", "", "")
		every     = fs.Int("every", 4, "")
		async     = fs.Bool("async", false, "")
		killAt    = fs.Int("kill-at", 0, "")
		killAfter = fs.Int("kill-after", 0, "")
		killWith  = fs.String("kill-with", "", "")
		codec     = fs.String("codec", "", "")
		shards    = fs.Int("shards", 0, "")
		parity    = fs.Int("parity", 0, "")
		groupSz   = fs.Int("group-size", 0, "")
		heartbeat = fs.Duration("heartbeat", 15*time.Millisecond, "")
		phi       = fs.Float64("phi", 6, "")
		ackTO     = fs.Duration("ack-timeout", 0, "")
		queryTO   = fs.Duration("query-timeout", 0, "")
		queryN    = fs.Int("query-retries", 0, "")
		capacity  = fs.Int("capacity", 0, "")
		opsAddr   = fs.String("ops-addr", "", "")
		traceDir  = fs.String("trace-dir", "", "")
		app       = fs.String("app", "stress", "")
		iters     = fs.Int("iters", procIters, "")
		pace      = fs.Duration("pace", 0, "")
	)
	_ = fs.Parse(os.Args[1:])

	var sums sync.Map
	workload := sched.StressApp(procIters, &sums)
	if *app == "elastic" {
		workload = elasticApp(*iters, *pace, &sums)
	}
	nc := cluster.NodeConfig{
		Rank:      *rank,
		Ranks:     *ranks,
		Capacity:  *capacity,
		OpsAddr:   *opsAddr,
		TraceDir:  *traceDir,
		MPIAddrs:  strings.Split(*peers, ","),
		ReplAddrs: strings.Split(*replPeers, ","),
		App:       workload,
		Policy:    ckpt.Policy{EveryNthPragma: *every, AsyncCommit: *async},
		SelfHeal:  cluster.SelfHealConfig{HeartbeatInterval: *heartbeat, PhiThreshold: *phi},
		In:        os.Stdin,
		Out:       os.Stdout,
		Result: func() string {
			v, ok := sums.Load(*rank)
			if !ok {
				return "?"
			}
			return strconv.Itoa(v.(int))
		},
	}
	nc.AckTimeout, nc.QueryTimeout, nc.QueryRetries = *ackTO, *queryTO, *queryN
	nc.Codec, nc.DataShards, nc.ParityShards = *codec, *shards, *parity
	nc.GroupSize = *groupSz
	if os.Getenv("C3_TEST_TRACE") != "" {
		start := time.Now()
		nc.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker[r%d t=%7dus] "+format+"\n",
				append([]any{*rank, time.Since(start).Microseconds()}, args...)...)
		}
	}
	if *killAt > 0 {
		nc.Kill = &cluster.FailureSpec{Rank: *rank, AtPragma: *killAt, AfterCheckpoints: *killAfter}
		if *killWith != "" {
			with, err := cluster.ParseGroup(*killWith)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proc worker rank %d: -kill-with: %v\n", *rank, err)
				os.Exit(1)
			}
			nc.Kill.Correlated = with
		}
	}
	if err := cluster.RunNode(nc); err != nil {
		fmt.Fprintf(os.Stderr, "proc worker rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
}

// procReference computes the failure-free per-rank checksums in-process.
func procReference(t *testing.T, ranks int) map[int]int {
	t.Helper()
	var sums sync.Map
	if _, err := cluster.Run(cluster.Config{
		Ranks: ranks,
		App:   sched.StressApp(procIters, &sums),
		Seed:  1,
	}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	ref := make(map[int]int, ranks)
	for r := 0; r < ranks; r++ {
		v, ok := sums.Load(r)
		if !ok {
			t.Fatalf("reference run produced no sum for rank %d", r)
		}
		ref[r] = v.(int)
	}
	return ref
}

// launchProcs runs a multi-process world from the test binary's worker
// mode. fault selects the injected failure: nil (failure-free), a
// *cluster.FailureSpec (fired inside the victim worker at an exact pragma;
// the launcher SIGKILLs it and its Correlated ranks), a
// *cluster.ExternalKillSpec (an operator SIGKILL with no spec inside any
// worker), or a *cluster.ExternalPartitionSpec (a split healed later).
// extra worker flags follow the detector and store tuning, so they win.
func launchProcs(t *testing.T, ranks int, fault any, extra ...string) *cluster.LaunchResult {
	t.Helper()
	cfg := cluster.LaunchConfig{
		Ranks:   ranks,
		Exe:     os.Args[0],
		Env:     []string{procWorkerEnv + "=1", "GOTRACEBACK=all"},
		Timeout: 90 * time.Second,
		Log:     t.Logf,
	}
	var kill *cluster.FailureSpec
	switch f := fault.(type) {
	case nil:
	case *cluster.FailureSpec:
		kill = f
	case *cluster.ExternalKillSpec:
		cfg.ExternalKill = f
	case *cluster.ExternalPartitionSpec:
		cfg.ExternalPartition = f
	default:
		t.Fatalf("launchProcs: unknown fault %T", fault)
	}
	cfg.Args = func(rank int, mpiAddrs, replAddrs []string) []string {
		args := []string{
			"-rank", strconv.Itoa(rank),
			"-ranks", strconv.Itoa(ranks),
			"-peers", strings.Join(mpiAddrs, ","),
			"-repl-peers", strings.Join(replAddrs, ","),
			"-heartbeat", "15ms",
			"-phi", "6",
			// Tuned with the suspicion threshold: recovery reads give a
			// still-rejoining peer a second sweep instead of one long wait.
			"-query-timeout", "1s",
			"-query-retries", "2",
		}
		if kill != nil && kill.Rank == rank {
			args = append(args,
				"-kill-at", strconv.Itoa(kill.AtPragma),
				"-kill-after", strconv.Itoa(kill.AfterCheckpoints))
			if len(kill.Correlated) > 0 {
				args = append(args, "-kill-with", cluster.FormatGroup(kill.Correlated))
			}
		}
		return append(args, extra...)
	}
	res, err := cluster.Launch(cfg)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	return res
}

func checkProcSums(t *testing.T, res *cluster.LaunchResult, ref map[int]int) {
	t.Helper()
	for r, want := range ref {
		got, err := strconv.Atoi(res.Results[r])
		if err != nil {
			t.Fatalf("rank %d reported %q: %v", r, res.Results[r], err)
		}
		if got != want {
			t.Errorf("rank %d checksum = %d, want %d (failure-free reference)", r, got, want)
		}
	}
}

// TestMultiProcessFailureFree runs a 4-process world over TCP with no
// failures and checks the checksums against the in-process reference.
func TestMultiProcessFailureFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	res := launchProcs(t, 4, nil)
	if res.Attempts != 1 || res.Restarts != 0 {
		t.Fatalf("attempts=%d restarts=%d, want 1/0", res.Attempts, res.Restarts)
	}
	checkProcSums(t, res, ref)
}

// TestMultiProcessSIGKILLRecovery is the headline acceptance scenario: a
// 4-process localhost world survives a real SIGKILL of one rank
// mid-logging-phase — the survivors detect it, agree on epoch 2 and ask
// for a respawn — re-executes it, reassembles its checkpoints from +1/+2
// neighbors over TCP (diskless), and converges to the failure-free
// checksums.
func TestMultiProcessSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	// every=4: line 2 starts at pragma 8; the victim freezes at pragma 9 —
	// inside or just past line 2's logging phase — and is SIGKILLed there.
	// Line 1, committed and replicated long before, guarantees a recovery
	// line exists whether or not line 2's commit raced the kill.
	res := launchProcs(t, 4, &cluster.FailureSpec{Rank: 1, AtPragma: 9, AfterCheckpoints: 2}, "-every", "4")
	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want exactly 1 re-executed process", res.Restarts)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (one failure, one recovery)", res.Attempts)
	}
	checkProcSums(t, res, ref)

	// Recovery provenance: every rank must have restored from the recovery
	// line (not re-run from scratch), and the re-executed rank must have
	// rebuilt at least one checkpoint from peer fragments over the wire.
	for r := 0; r < 4; r++ {
		stat := res.Stats[r]
		if !strings.Contains(stat, "restores=1") {
			t.Errorf("rank %d stat %q: world did not restore from the recovery line", r, stat)
		}
	}
	if stat := res.Stats[1]; !strings.Contains(stat, "reassemblies=") ||
		strings.Contains(stat, "reassemblies=0") {
		t.Errorf("re-executed rank reported %q: checkpoint was not reassembled from peers", stat)
	}
}

// TestMultiProcessSIGKILLRecoveryAsync drives the same scenario through
// the asynchronous commit pipeline.
func TestMultiProcessSIGKILLRecoveryAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	res := launchProcs(t, 4, &cluster.FailureSpec{Rank: 2, AtPragma: 9, AfterCheckpoints: 2}, "-every", "4", "-async")
	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", res.Restarts)
	}
	checkProcSums(t, res, ref)
}

// TestMultiProcessDualSIGKILLRS is the erasure-coding acceptance scenario:
// a 6-process world runs the diskless store under -codec=rs (k=3, m=2 —
// every line lives only as five shards on five distinct ring successors,
// no full copies anywhere), two ranks are SIGKILLed at the same instant as
// one correlated fault domain (rank 3 dies with rank 1 when rank 1's spec
// fires), both are re-executed, reassemble their checkpoints from the
// surviving three-of-five shards over TCP, and the world converges to the
// failure-free checksums.
func TestMultiProcessDualSIGKILLRS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 6)
	res := launchProcs(t, 6,
		&cluster.FailureSpec{Rank: 1, AtPragma: 9, AfterCheckpoints: 2, Correlated: []int{3}},
		"-every", "4",
		"-codec", "rs", "-shards", "3", "-parity", "2",
		"-query-retries", "3")
	if res.Restarts != 2 {
		t.Fatalf("restarts=%d, want 2 re-executed processes", res.Restarts)
	}
	checkProcSums(t, res, ref)
	// Both replacements must have rebuilt state from peer shards; with an
	// erasure codec even the survivors reassemble their own lines over the
	// wire (no full local copies exist).
	for _, r := range []int{1, 3} {
		stat := res.Stats[r]
		if !strings.Contains(stat, "restores=1") {
			t.Errorf("rank %d stat %q: did not restore from the recovery line", r, stat)
		}
		if !strings.Contains(stat, "reassemblies=") || strings.Contains(stat, "reassemblies=0") {
			t.Errorf("rank %d stat %q: checkpoint was not reassembled from shards", r, stat)
		}
	}
}

// TestMultiProcessSIGKILLRecoveryXOR drives the single-kill headline
// scenario through the xor codec (k=4 data + 1 parity on five distinct
// successors, tolerates exactly the one loss this test injects).
func TestMultiProcessSIGKILLRecoveryXOR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 6)
	res := launchProcs(t, 6,
		&cluster.FailureSpec{Rank: 2, AtPragma: 9, AfterCheckpoints: 2},
		"-every", "4",
		"-codec", "xor", "-shards", "4",
		"-query-retries", "3")
	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", res.Restarts)
	}
	checkProcSums(t, res, ref)
}
