package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/stable"
)

// span is one benchmark-side timing interval around a call into a layer.
// Times are nanoseconds since the round started; key is the line, attempt
// or iteration number the call belongs to.
type span struct {
	id, parent int32
	name       string
	rank       int
	key        int64
	start, end int64
}

func (s span) ms() float64 { return float64(s.end-s.start) / 1e6 }

// tracer keeps the spans of one traced round in memory. A nil tracer is
// an untraced round: every method is a no-op, so end-to-end rounds run the
// program without any of the timing wrappers.
type tracer struct {
	origin time.Time
	next   atomic.Int32
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open reserves a span id, so children can name their parent before the
// parent span is closed.
func (t *tracer) open() int32 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.open()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times f as a span when the round is traced and just calls it
// otherwise.
func (t *tracer) call(name string, rank int, parent int32, key int64, f func() error) error {
	if t == nil {
		return f()
	}
	s := span{name: name, rank: rank, parent: parent, key: key, start: t.now()}
	err := f()
	s.end = t.now()
	t.add(s)
	return err
}

// snapshot returns the spans sorted by start time, with every stable-store
// span attached to the ckpt span of the same rank that was open when it
// started. The store cannot see its caller, and with the async committer
// the store call runs on another goroutine, so the parent is found by
// time containment.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	open := map[int][]span{} // rank -> ckpt spans, by start
	for _, s := range out {
		if layerOf(s.name) == "ckpt" {
			open[s.rank] = append(open[s.rank], s)
		}
	}
	for i, s := range out {
		if layerOf(s.name) != "stable" || s.parent != 0 {
			continue
		}
		cands := open[s.rank]
		k := sort.Search(len(cands), func(j int) bool { return cands[j].start > s.start }) - 1
		if k >= 0 && cands[k].end >= s.start {
			out[i].parent = cands[k].id
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval that its child spans cover.
func selfTimes(spans []span, name string) []float64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.name != name {
			continue
		}
		covered, reach := int64(0), s.start
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(s.end-s.start-covered)/1e6)
	}
	return out
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// durations returns the durations in ms of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// timedStore wraps a stable.Store and records a span for every public call.
// It forwards the optional interfaces the runtime type-asserts —
// stable.NodeFailer on the store and stable.StoredSizer on checkpoint
// handles — so a traced run wipes node memory and accounts stored bytes
// exactly as an untraced one does.
type timedStore struct {
	inner stable.Store
	tr    *tracer
}

var _ stable.NodeFailer = (*timedStore)(nil)

func (s *timedStore) Begin(rank, version int) (stable.Checkpoint, error) {
	var ck stable.Checkpoint
	err := s.tr.call("stable.begin", rank, 0, int64(version), func() (err error) {
		ck, err = s.inner.Begin(rank, version)
		return err
	})
	if err != nil {
		return nil, err
	}
	h := &timedCkpt{inner: ck, tr: s.tr, rank: rank, version: version}
	if _, ok := ck.(stable.StoredSizer); ok {
		return &timedSizedCkpt{h}, nil
	}
	return h, nil
}

func (s *timedStore) LastCommitted(rank int) (version int, ok bool, err error) {
	err = s.tr.call("stable.last_committed", rank, 0, -1, func() (err error) {
		version, ok, err = s.inner.LastCommitted(rank)
		return err
	})
	return version, ok, err
}

func (s *timedStore) Open(rank, version int) (stable.Snapshot, error) {
	var snap stable.Snapshot
	err := s.tr.call("stable.open", rank, 0, int64(version), func() (err error) {
		snap, err = s.inner.Open(rank, version)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &timedSnap{inner: snap, tr: s.tr, rank: rank, version: version}, nil
}

func (s *timedStore) Retire(rank, version int) error {
	return s.tr.call("stable.retire", rank, 0, int64(version), func() error { return s.inner.Retire(rank, version) })
}

func (s *timedStore) Truncate(rank, version int) error {
	return s.tr.call("stable.truncate", rank, 0, int64(version), func() error { return s.inner.Truncate(rank, version) })
}

// FailNode forwards the node-memory wipe when the wrapped store holds
// checkpoint data on the compute nodes.
func (s *timedStore) FailNode(rank int) {
	if nf, ok := s.inner.(stable.NodeFailer); ok {
		nf.FailNode(rank)
	}
}

type timedCkpt struct {
	inner   stable.Checkpoint
	tr      *tracer
	rank    int
	version int
}

func (c *timedCkpt) WriteSection(name string, data []byte) error {
	return c.tr.call("stable.write_section", c.rank, 0, int64(c.version), func() error { return c.inner.WriteSection(name, data) })
}

func (c *timedCkpt) Commit() error {
	return c.tr.call("stable.commit", c.rank, 0, int64(c.version), c.inner.Commit)
}

func (c *timedCkpt) Abort() error {
	return c.tr.call("stable.abort", c.rank, 0, int64(c.version), c.inner.Abort)
}

// timedSizedCkpt is a timedCkpt whose wrapped handle reports its stored
// size; only such handles may implement stable.StoredSizer, or the ckpt
// layer would stop falling back to the raw section bytes.
type timedSizedCkpt struct{ *timedCkpt }

var _ stable.StoredSizer = timedSizedCkpt{}

func (c timedSizedCkpt) StoredSize() int64 { return c.inner.(stable.StoredSizer).StoredSize() }

type timedSnap struct {
	inner   stable.Snapshot
	tr      *tracer
	rank    int
	version int
}

func (s *timedSnap) ReadSection(name string) ([]byte, error) {
	var b []byte
	err := s.tr.call("stable.read_section", s.rank, 0, int64(s.version), func() (err error) {
		b, err = s.inner.ReadSection(name)
		return err
	})
	return b, err
}

func (s *timedSnap) Sections() ([]string, error) { return s.inner.Sections() }
func (s *timedSnap) Close() error                { return s.inner.Close() }

// writeSpans writes one traced round's spans as tab-separated lines.
func writeSpans(w io.Writer, round int, spans []span) error {
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
			round, s.id, s.parent, s.name, s.rank, s.key, s.start, s.end); err != nil {
			return err
		}
	}
	return nil
}
