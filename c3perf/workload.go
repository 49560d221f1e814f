package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"c3"
	"c3/internal/stable"
	"c3/internal/statesave"
)

// spec is the shape of one workload. All three are closed loops: one
// application world per round, and each rank starts its next iteration
// only when the previous one has finished.
type spec struct {
	name     string
	ranks    int
	words    int // registered float64 state words per rank
	iters    int // iterations per round (recover-dup: derived from its failures)
	failures int // recover-dup: injected fail-stop failures per round
	window   int // msg-proto: Isend/Irecv pairs per iteration
	every    int // natural checkpoint period; 0 forces a line every iteration
	async    bool
	codec    string // "" selects the in-memory store
	k, m     int
}

// forced reports whether every iteration ends in a forced recovery line
// (CheckpointNow + Layer.Sync).
func (sp spec) forced() bool { return sp.every == 0 }

// specs are the workloads at full size.
//
//   - commit-rs: the commit path (serialize, checksum, rs encode, ship, ack)
//     is nearly the whole run; the message path is almost idle.
//   - recover-dup: world relaunch, Restore, the victim's reassembly from
//     peer replicas and the async committer dominate, under the default
//     dup codec.
//   - msg-proto: the per-message protocol path and the mpi/transport
//     substrate dominate; checkpoint bytes are tiny.
var specs = map[string]spec{
	"commit-rs":   {name: "commit-rs", ranks: 8, words: 1 << 17, iters: 40, codec: "rs", k: 4, m: 2},
	"recover-dup": {name: "recover-dup", ranks: 4, words: 1 << 18, failures: 24, async: true, codec: "dup"},
	"msg-proto":   {name: "msg-proto", ranks: 4, words: 1 << 13, iters: 4000, window: 16, every: 25},
}

var workloadNames = []string{"commit-rs", "recover-dup", "msg-proto"}

// scaled shrinks the per-round work (iterations and failures) to frac of
// the full size, keeping the world shape and state size.
func (sp spec) scaled(frac float64) spec {
	sp.iters = max(2, int(float64(sp.iters)*frac))
	if sp.failures > 0 {
		sp.failures = max(2, int(float64(sp.failures)*frac))
	}
	return sp
}

const (
	ringFloats = 128 // commit-rs/recover-dup ring message: 1 KiB
	anyTag     = 99  // msg-proto wildcard-receive tag
	ringTag    = 1
)

// inputs are everything the seed generates: state contents, message sizes
// and the failure schedule. The program receives only these.
type inputs struct {
	spec  spec
	iters int
	base  [][]float64        // per-rank seeded state
	sizes [][]int            // msg-proto: message bytes per iteration and window slot
	fails [][]c3.FailureSpec // recover-dup: one victim per attempt
}

func genInputs(sp spec, seed uint64) *inputs {
	in := &inputs{spec: sp, iters: sp.iters}
	for r := 0; r < sp.ranks; r++ {
		rng := rand.New(rand.NewPCG(seed, uint64(r)))
		b := make([]float64, sp.words)
		for j := range b {
			b[j] = rng.Float64()
		}
		in.base = append(in.base, b)
	}
	// The seed orders the message sizes and failure points but never
	// changes their totals, so every seed asks for the same amount of work.
	rng := rand.New(rand.NewPCG(seed, math.MaxUint32))
	if sp.window > 0 {
		in.sizes = make([][]int, sp.iters)
		for i := range in.sizes {
			row := make([]int, sp.window)
			for k := range row {
				row[k] = 64 + k*(1024-64)/max(1, sp.window-1)/8*8 // 64..1024 bytes
			}
			rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
			in.sizes[i] = row
		}
	}
	if sp.failures > 0 {
		// The victim dies at its 2nd, 3rd or 4th pragma of the attempt, so
		// every attempt commits at least one line first and the run
		// progresses; each point is used equally often.
		ats := make([]int, sp.failures)
		progress := 0
		for f := range ats {
			ats[f] = 2 + f%3
			progress += ats[f] - 1
		}
		rng.Shuffle(len(ats), func(a, b int) { ats[a], ats[b] = ats[b], ats[a] })
		for _, at := range ats {
			in.fails = append(in.fails, []c3.FailureSpec{{Rank: rng.IntN(sp.ranks), AtPragma: at}})
		}
		in.iters = progress + 3
	}
	return in
}

// newStore builds the workload's stable store.
func (in *inputs) newStore() (stable.Store, *stable.ReplicatedStore, error) {
	sp := in.spec
	if sp.codec == "" {
		return c3.NewMemStore(), nil, nil
	}
	codec, err := c3.NewCodec(sp.codec, sp.k, sp.m)
	if err != nil {
		return nil, nil, err
	}
	rs := c3.NewReplicatedStore(sp.ranks, c3.WithCodec(codec))
	return rs, rs, nil
}

// iterRec is one completed iteration of a rank.
type iterRec struct{ start, end int64 }

// lineRec is one rank's part of a recovery line: entering the pragma that
// took the checkpoint, and leaving its Sync (forced lines) or the pragma
// (natural lines).
type lineRec struct {
	attempt      int
	line         int64
	enter, leave int64
}

// rankLog is written only by its rank's goroutine; attempts run one after
// another, so the main goroutine reads it after Run returns.
type rankLog struct {
	iters  []iterRec
	lines  []lineRec
	waitNs int64 // time blocked in Waitall/Recv/Sendrecv (traced rounds)
	final  uint64
	done   bool
}

// round is one closed-loop world: a c3.Run over the generated inputs.
type round struct {
	in     *inputs
	direct bool
	tr     *tracer
	origin time.Time
	logs   []*rankLog

	attempt atomic.Int32 // attempts launched so far minus one (= failures injected)

	mu         sync.Mutex
	failAt     []int64 // per injected failure: victim's pragma entry
	entryLast  []int64 // per attempt: last rank entering the app
	returnLast []int64 // per attempt: last rank returning from the app
	restoreEnd []int64 // per attempt: last rank's Restore returning
}

func newRound(in *inputs, direct bool, tr *tracer, origin time.Time) *round {
	rd := &round{in: in, direct: direct, tr: tr, origin: origin}
	for r := 0; r < in.spec.ranks; r++ {
		rd.logs = append(rd.logs, &rankLog{})
	}
	return rd
}

func (rd *round) now() int64 { return int64(time.Since(rd.origin)) }

// stamp records the latest of several ranks' timestamps for an attempt.
func (rd *round) stamp(dst *[]int64, attempt int, t int64) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	for len(*dst) <= attempt {
		*dst = append(*dst, 0)
	}
	(*dst)[attempt] = max((*dst)[attempt], t)
}

// config is the c3.Config of this round.
func (rd *round) config(store stable.Store) c3.Config {
	sp := rd.in.spec
	return c3.Config{
		Ranks:           sp.ranks,
		App:             rd.app,
		Store:           store,
		Direct:          rd.direct,
		Policy:          c3.Policy{EveryNthPragma: sp.every, AsyncCommit: sp.async},
		AttemptFailures: rd.in.fails,
	}
}

func (rd *round) app(env c3.Env) error {
	r := env.Rank()
	lg := rd.logs[r]
	att := int(rd.attempt.Load())
	appID := rd.tr.open()
	entry := rd.now()
	rd.stamp(&rd.entryLast, att, entry)
	err := rd.body(env, lg, att, appID)
	ret := rd.now()
	rd.tr.add(span{id: appID, name: "cluster.app", rank: r, key: int64(att), start: entry, end: ret})
	rd.stamp(&rd.returnLast, att, ret)
	return err
}

func (rd *round) body(env c3.Env, lg *rankLog, att int, appID int32) error {
	sp := rd.in.spec
	r := env.Rank()
	st := env.State()
	it := st.Int("it")
	acc := st.Float64("acc")
	data := st.Float64s("data", sp.words)
	layer := c3.LayerOf(env)

	// Only restart attempts restore; the first attempt's Restore is a no-op
	// and is not timed.
	t0 := rd.now()
	restored, err := env.Restore()
	if att > 0 {
		t := rd.now()
		rd.stamp(&rd.restoreEnd, att, t)
		rd.tr.add(span{parent: appID, name: "ckpt.restore", rank: r, key: int64(att), start: t0, end: t})
	}
	if err != nil {
		return err
	}
	if !restored {
		copy(data.Data(), rd.in.base[r])
	}
	w := env.World()
	right, left := (r+1)%sp.ranks, (r+sp.ranks-1)%sp.ranks
	var m msgBufs
	if sp.window > 0 {
		m = newMsgBufs(sp.window)
	}
	for it.Get() < rd.in.iters {
		i := it.Get()
		iterID := rd.tr.open()
		start := rd.now()
		var err error
		if sp.window > 0 {
			err = rd.msgStep(w, lg, r, iterID, i, data.Data(), acc, right, left, &m)
		} else {
			err = rd.ringStep(w, lg, r, iterID, i, data.Data(), acc, right, left)
		}
		if err != nil {
			return err
		}
		it.Add(1)
		enter := rd.now()
		epoch := uint64(0)
		if layer != nil {
			epoch = layer.Epoch()
		}
		pragma := env.Checkpoint
		if sp.forced() {
			pragma = env.CheckpointNow
		}
		pragmaID := rd.tr.open()
		err = pragma()
		if rd.tr != nil {
			// Pragmas that take no checkpoint (24 of 25 on msg-proto) are
			// kept apart so ckpt.pragma times checkpoint-taking pragmas.
			name := "ckpt.pragma"
			if err == nil && layer != nil && layer.Epoch() == epoch {
				name = "ckpt.pragma_idle"
			}
			rd.tr.add(span{id: pragmaID, parent: iterID, name: name, rank: r, key: int64(i), start: enter, end: rd.now()})
		}
		if err != nil {
			if errors.Is(err, c3.ErrInjectedFailure) {
				rd.mu.Lock()
				rd.failAt = append(rd.failAt, enter)
				rd.mu.Unlock()
				rd.attempt.Add(1)
			}
			return err
		}
		if layer != nil && sp.forced() {
			if err := rd.tr.call("ckpt.sync", r, iterID, int64(i), layer.Sync); err != nil {
				return err
			}
		}
		end := rd.now()
		if layer != nil && (sp.forced() || layer.Epoch() != epoch) {
			lg.lines = append(lg.lines, lineRec{attempt: att, line: int64(layer.Epoch()), enter: enter, leave: end})
		}
		lg.iters = append(lg.iters, iterRec{start: start, end: end})
		rd.tr.add(span{id: iterID, parent: appID, name: "app.iter", rank: r, key: int64(i), start: start, end: end})
	}
	lg.final = checksum(it.Get(), acc.Get(), data.Data())
	lg.done = true
	return nil
}

// wait runs one blocking message-passing call, timed as an mpi span and
// counted towards the rank's wait time when the round is traced.
func (rd *round) wait(lg *rankLog, name string, r int, parent int32, i int, f func() error) error {
	if rd.tr == nil {
		return f()
	}
	t0 := rd.now()
	err := f()
	t1 := rd.now()
	rd.tr.add(span{parent: parent, name: name, rank: r, key: int64(i), start: t0, end: t1})
	if name != "mpi.allreduce" {
		lg.waitNs += t1 - t0
	}
	return err
}

// ringStep is one commit-rs/recover-dup iteration: rewrite the state from
// the seed, then one 1 KiB ring Sendrecv folded into the accumulator.
func (rd *round) ringStep(w c3.Comm, lg *rankLog, r int, iterID int32, i int, d []float64, acc *statesave.Float64, right, left int) error {
	base := rd.in.base[r]
	inv := 1 / float64(i+1)
	for j := range d {
		d[j] += base[j] * inv
	}
	out := c3.Float64Bytes(d[:ringFloats])
	in := make([]byte, len(out))
	if err := rd.wait(lg, "mpi.sendrecv", r, iterID, i, func() error {
		_, err := w.Sendrecv(out, len(out), c3.TypeByte, right, ringTag, in, len(in), c3.TypeByte, left, ringTag)
		return err
	}); err != nil {
		return err
	}
	s := 0.0
	for _, x := range c3.BytesFloat64s(in) {
		s += x
	}
	acc.Set(acc.Get() + s/ringFloats)
	return nil
}

// msgBufs are a msg-proto rank's window buffers.
type msgBufs struct {
	recv [][]byte
	ids  []int
}

func newMsgBufs(window int) msgBufs {
	m := msgBufs{recv: make([][]byte, window), ids: make([]int, 0, 2*window)}
	for k := range m.recv {
		m.recv[k] = make([]byte, 1024)
	}
	return m
}

// msgStep is one msg-proto iteration: a window of Isend/Irecv pairs to the
// ring neighbours with seeded sizes, one AnySource receive, and an 8-byte
// Allreduce every 10th iteration.
func (rd *round) msgStep(w c3.Comm, lg *rankLog, r int, iterID int32, i int, d []float64, acc *statesave.Float64, right, left int, m *msgBufs) error {
	sizes := rd.in.sizes[i]
	words := len(d)
	m.ids = m.ids[:0]
	for k, sz := range sizes {
		id, err := w.Irecv(m.recv[k][:sz], sz, c3.TypeByte, left, 10+k)
		if err != nil {
			return err
		}
		m.ids = append(m.ids, id)
	}
	for k, sz := range sizes {
		off := (i*31 + k*257) % (words - 128)
		id, err := w.Isend(c3.Float64Bytes(d[off:off+sz/8]), sz, c3.TypeByte, right, 10+k)
		if err != nil {
			return err
		}
		m.ids = append(m.ids, id)
	}
	if err := rd.wait(lg, "mpi.waitall", r, iterID, i, func() error {
		_, err := w.Waitall(m.ids)
		return err
	}); err != nil {
		return err
	}
	base := (i * 97) % words
	s := 0.0
	for k, sz := range sizes {
		for t, x := range c3.BytesFloat64s(m.recv[k][:sz]) {
			d[(base+k*128+t)%words] += 1e-3 * x
			s += x
		}
	}
	// The wildcard receive: only the left neighbour sends on anyTag, but
	// the protocol must log the receive's signature.
	sid, err := w.Isend(c3.Float64Bytes([]float64{s}), 8, c3.TypeByte, right, anyTag)
	if err != nil {
		return err
	}
	var one [8]byte
	if err := rd.wait(lg, "mpi.recv", r, iterID, i, func() error {
		_, err := w.Recv(one[:], 8, c3.TypeByte, c3.AnySource, anyTag)
		return err
	}); err != nil {
		return err
	}
	if _, err := w.Wait(sid); err != nil {
		return err
	}
	got := c3.BytesFloat64s(one[:])[0]
	total := acc.Get() + 1e-6*got
	if i%10 == 9 {
		sum := make([]byte, 8)
		if err := rd.wait(lg, "mpi.allreduce", r, iterID, i, func() error {
			return w.Allreduce(c3.Float64Bytes([]float64{total}), sum, 1, c3.TypeFloat64, c3.OpSum)
		}); err != nil {
			return err
		}
		total = c3.BytesFloat64s(sum)[0] / float64(len(rd.logs))
	}
	acc.Set(total)
	return nil
}

// checksum folds a rank's final state into 64 bits (FNV-1a over words).
func checksum(it int, acc float64, data []float64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(w uint64) {
		h ^= w
		h *= 1099511628211
	}
	mix(uint64(it))
	mix(math.Float64bits(acc))
	for _, x := range data {
		mix(math.Float64bits(x))
	}
	return h
}

// runRound executes one round with the given store and returns c3.Run's
// result; it is a helper so the c3.Run error carries the workload name.
func (rd *round) run(store stable.Store) (*c3.Result, error) {
	res, err := c3.Run(rd.config(store))
	if err != nil {
		return res, fmt.Errorf("%s: %w", rd.in.spec.name, err)
	}
	return res, nil
}
