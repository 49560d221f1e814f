package stable

import (
	"fmt"
	"sort"
	"sync"

	"c3/internal/member"
	"c3/internal/transport"
	"c3/internal/wire"
)

// ReplicatedStore is the diskless, ReStore-style stable store of an
// in-process world: n DistStores, one per rank's node memory, on one
// in-memory transport.Network (so replication traffic has FIFO ordering,
// latency modeling and delivery counters like any other interconnect in
// the reproduction). Begin, LastCommitted, Open, Retire and Truncate route
// to the rank's own store, so every in-process run exercises the same
// commit, acknowledgment, query and reassembly protocol a multi-process
// deployment runs over TCP.
//
// Commit is synchronous-replicated: it returns once every live holder has
// acknowledged the shards and the commit marker, so a line reported
// committed is immediately recoverable from peers. Combined with the ckpt
// layer's asynchronous commit pipeline, the acknowledgment wait happens on
// the background committer, off the application's critical path.
//
// Two pieces of logic exist only in-process. FailNode models a fail-stop
// node loss: the rank's memory (its own checkpoints and the shards it held
// for peers) is replaced by an empty DistStore, replication traffic still
// in flight to the dead incarnation is dropped, and every survivor's
// in-flight commit stops waiting for it. The restarted rank's recovery
// then finds no local copy and reassembles its last committed line from
// the shards surviving on peers. SetMembership re-partitions committed
// lines actively across the n node memories, where a DistStore over TCP
// re-partitions lazily.
type ReplicatedStore struct {
	n    int
	opts []Option
	net  *transport.Network

	mu         sync.Mutex
	stores     []*DistStore
	gone       storeCounters // counters of the stores FailNode discarded
	migrations int64
}

// storeCounters are the per-store counters ReplicatedStore sums.
type storeCounters struct {
	written, replicated, reassemblies int64
}

func (st *DistStore) counters() storeCounters {
	st.mu.Lock()
	defer st.mu.Unlock()
	return storeCounters{st.bytesWritten, st.replicatedBytes, st.reassemblies}
}

func (c *storeCounters) add(o storeCounters) {
	c.written += o.written
	c.replicated += o.replicated
	c.reassemblies += o.reassemblies
}

// sharedNet is one rank's view of a network shared with other stores:
// closing that rank's store must not shut the others' endpoints down.
type sharedNet struct{ transport.Interconnect }

func (sharedNet) Shutdown() {}

// NewReplicatedStore creates a replicated in-memory store for a world of n
// ranks. It takes the DistStore options; WithReplicationLatency applies to
// its replication network. The store owns n replication daemons (one per
// node); call Close when done with it.
func NewReplicatedStore(n int, opts ...Option) *ReplicatedStore {
	if n <= 0 {
		panic("stable: replicated store needs a positive world size")
	}
	// Peers acknowledge prunes, so StoredBytes is exact after Retire/Truncate.
	opts = append(opts[:len(opts):len(opts)], func(c *storeConfig) { c.syncPrune = true })
	cfg := newStoreConfig(n, opts)
	s := &ReplicatedStore{
		n:      n,
		opts:   opts,
		net:    transport.NewNetwork(n, cfg.netOpts...),
		stores: make([]*DistStore, n),
	}
	for r := range s.stores {
		s.stores[r] = NewDistStore(r, n, sharedNet{s.net}, opts...)
	}
	return s
}

// Close shuts the replication fabric and daemons down. Outstanding commits
// unblock with their current acknowledgment state.
func (s *ReplicatedStore) Close() {
	s.net.Shutdown()
	s.mu.Lock()
	stores := append([]*DistStore(nil), s.stores...)
	s.mu.Unlock()
	for _, st := range stores {
		st.Close()
	}
}

// store returns the rank's current node memory.
func (s *ReplicatedStore) store(rank int) *DistStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stores[rank]
}

// Begin implements Store.
func (s *ReplicatedStore) Begin(rank, version int) (Checkpoint, error) {
	return s.store(rank).Begin(rank, version)
}

// LastCommitted implements Store: the newest version committed locally or,
// when the local memory was lost, the newest version whose shards and
// commit marker survive on peers.
func (s *ReplicatedStore) LastCommitted(rank int) (int, bool, error) {
	return s.store(rank).LastCommitted(rank)
}

// Open implements Store: a line missing from the owner's memory is
// reassembled from peer shards and re-installed there.
func (s *ReplicatedStore) Open(rank, version int) (Snapshot, error) {
	return s.store(rank).Open(rank, version)
}

// Retire implements Store: it prunes the rank's old versions everywhere.
func (s *ReplicatedStore) Retire(rank, version int) error {
	return s.store(rank).Retire(rank, version)
}

// Truncate implements Store: it drops the rank's versions above the
// recovery line everywhere, so a dead generation's lines cannot resurface.
func (s *ReplicatedStore) Truncate(rank, version int) error {
	return s.store(rank).Truncate(rank, version)
}

// FailNode implements NodeFailer: the node's memory is lost. The rank's
// endpoint restarts, so replication traffic still in flight to the dead
// incarnation is dropped, and a fresh, empty store takes its place; every
// survivor's in-flight commit stops waiting for the rank and counts the
// shards it sent there as lost.
func (s *ReplicatedStore) FailNode(rank int) {
	s.mu.Lock()
	old := s.stores[rank]
	s.net.Restart(rank)
	s.gone.add(old.counters())
	fresh := NewDistStore(rank, s.n, sharedNet{s.net}, s.opts...)
	fresh.SetMembership(old.Members())
	s.stores[rank] = fresh
	survivors := append([]*DistStore(nil), s.stores...)
	s.mu.Unlock()
	old.Close() // releases the dead incarnation's own in-flight commits
	for r, st := range survivors {
		if r != rank {
			st.excuse(rank)
		}
	}
}

// totals sums the counters of every store, including discarded ones.
func (s *ReplicatedStore) totals() storeCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.gone
	for _, st := range s.stores {
		t.add(st.counters())
	}
	return t
}

// BytesWritten returns the section bytes written to node-local memory.
func (s *ReplicatedStore) BytesWritten() int64 { return s.totals().written }

// ReplicatedBytes returns the fragment bytes shipped to peer nodes.
func (s *ReplicatedStore) ReplicatedBytes() int64 { return s.totals().replicated }

// Reassemblies reports how many checkpoints were rebuilt from peer
// fragments because the owner's local copy was gone — the disk-free
// recovery path.
func (s *ReplicatedStore) Reassemblies() int64 { return s.totals().reassemblies }

// StoredBytes returns the checkpoint bytes currently resident across all
// node memories: full local copies plus replica shards. Divided by the
// world size it is the per-rank memory tax the codec ablation measures.
func (s *ReplicatedStore) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, st := range s.stores {
		t += st.StoredBytes()
	}
	return t
}

// NetworkStats returns the replication interconnect's delivery counters.
func (s *ReplicatedStore) NetworkStats() transport.Stats { return s.net.Stats() }

// Members returns the membership current placement runs against.
func (s *ReplicatedStore) Members() member.Set { return s.store(0).Members() }

// Topology returns the checkpoint-group topology placement runs against.
func (s *ReplicatedStore) Topology() member.Topology { return s.store(0).Topology() }

// Migrations reports how many committed lines were re-placed by
// SetMembership.
func (s *ReplicatedStore) Migrations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.migrations
}

// lockNodes locks the store and every rank's DistStore and returns their
// node memories, for work that spans all of them; unlock releases
// everything. Holding s.mu throughout means no other caller locks two
// DistStores at once.
func (s *ReplicatedStore) lockNodes() (nodes []*replNode, unlock func()) {
	s.mu.Lock()
	nodes = make([]*replNode, len(s.stores))
	for r, st := range s.stores {
		st.mu.Lock()
		nodes[r] = st.node
	}
	return nodes, func() {
		for _, st := range s.stores {
			st.mu.Unlock()
		}
		s.mu.Unlock()
	}
}

// SetMembership installs a new member ring and actively re-partitions the
// committed lines of every member owner onto it: each line's shards are
// recomputed against the new ring (reconstructing lost ones through the
// codec when at least k survive) and installed on the new holders, and
// holdings on ranks the new plan no longer assigns are dropped. After it
// returns, every line that was reconstructible before the change is again
// reconstructible with the full ≤m loss tolerance under the new ring —
// the in-memory analogue of ReStore's re-distribution. Lines owned by
// ranks outside the new membership are left where they are: a drained
// owner's lines are retired with it, not rebalanced.
func (s *ReplicatedStore) SetMembership(m member.Set) {
	nodes, unlock := s.lockNodes()
	defer unlock()
	same := m.SameMembers(s.stores[0].members)
	for _, st := range s.stores {
		st.members = m
	}
	if same {
		return
	}
	// Collect every committed line (marker may survive on several holders;
	// they are identical for one (owner, version)).
	lines := make(map[replCommitKey]replCommitRec)
	for _, node := range nodes {
		for key, rec := range node.commits {
			lines[key] = rec
		}
	}
	topo := member.NewTopology(m, s.stores[0].groupSize)
	for key, rec := range lines {
		if !m.Contains(key.owner) {
			continue
		}
		codec, err := rec.codecOf()
		if err != nil {
			continue
		}
		sendPlan, holders, _, parity := commitPlan(codec, key.owner, rec.frags, topo)
		shards, blob := gatherShards(nodes, key.owner, key.version, rec, parity >= 0)
		if shards == nil {
			continue // already below k survivors; nothing to re-place
		}
		oldFrags := rec.frags
		rec.cross = parity + 1
		held := make(map[int]bool, len(holders))
		for _, h := range holders {
			held[h] = true
		}
		for _, nb := range holders {
			nodes[nb].commits[key] = rec
			for _, idx := range sendPlan[nb] {
				frag := blob // the cross-group parity shard is the blob itself
				if idx < rec.frags {
					frag = shards[idx]
				}
				if frag == nil {
					continue // incomplete dup line: move what survives
				}
				nodes[nb].frags[replFragKey{owner: key.owner, version: key.version, idx: idx}] =
					append([]byte(nil), frag...)
			}
		}
		for r, node := range nodes {
			if held[r] {
				continue
			}
			delete(node.commits, key)
			for idx := 0; idx <= oldFrags; idx++ {
				delete(node.frags, replFragKey{owner: key.owner, version: key.version, idx: idx})
			}
		}
		s.migrations++
	}
}

// gatherShards assembles the full digest-valid shard set of one line,
// reconstructing missing shards through the codec — or from a surviving
// cross-group parity shard — when possible. It also returns the whole
// blob when a surviving parity shard supplies it or wantBlob forces a
// rebuild (the new plan needs a parity shard to install). Returns
// (nil, nil) when the line is unreconstructible; a reconstruction failure
// falls back to the surviving shards (nil gaps), which still carry
// everything the old ring held.
func gatherShards(nodes []*replNode, owner, version int, rec replCommitRec, wantBlob bool) ([][]byte, []byte) {
	shards := make([][]byte, rec.frags)
	valid := 0
	for idx := range shards {
		if frag, ok := findFrag(nodes, owner, version, idx, rec); ok {
			shards[idx] = frag
			valid++
		}
	}
	var blob []byte
	if _, ok := rec.crossHolder(); ok {
		if g, found := findFrag(nodes, owner, version, rec.frags, rec); found {
			blob = g
		}
	}
	if valid < rec.need() && blob == nil {
		return nil, nil
	}
	if valid == rec.frags && (blob != nil || !wantBlob) {
		return shards, blob
	}
	// Rebuild the missing pieces so the new ring starts at full parity.
	all := shards
	if blob != nil {
		all = append(append(make([][]byte, 0, rec.frags+1), shards...), blob)
	}
	if sections, err := reassembleSections(rec, all); err == nil {
		if codec, err := rec.codecOf(); err == nil {
			b := encodeReplSections(sections)
			if full, err := codec.Encode(b); err == nil && len(full) == rec.frags {
				return full, b
			}
		}
	}
	return shards, blob
}

// findFrag locates a digest-valid copy of one shard; a corrupt copy on one
// node is skipped in favor of a valid copy elsewhere.
func findFrag(nodes []*replNode, owner, version, idx int, rec replCommitRec) ([]byte, bool) {
	for _, node := range nodes {
		if frag, ok := node.frags[replFragKey{owner: owner, version: version, idx: idx}]; ok && rec.shardValid(idx, frag) {
			return frag, true
		}
	}
	return nil, false
}

// --- Shared commit-marker, placement and blob helpers ---

// replCommitRec is the commit marker replicated alongside the fragments:
// the shard geometry and digests recovery validates reassembly against.
type replCommitRec struct {
	codec uint8    // CodecDup, CodecXOR, CodecRS
	frags int      // total shard count (k+m; k for dup)
	data  int      // shards required to reconstruct (k)
	total int      // original blob length
	sum   uint64   // FNV digest of the whole blob
	sums  []uint64 // per-shard FNV digests (corrupt shards count as lost)
	// cross is the cross-group parity holder's rank plus one (0: no
	// cross-group shard — flat topology or single group). Under a grouped
	// topology every codec shard lands inside the owner's group, so a
	// whole-group loss destroys all k+m of them; the cross-group shard is
	// one whole-blob redundancy unit at index frags, held one group over,
	// that keeps the line recoverable through exactly that failure.
	cross int
}

// crossHolder returns the cross-group parity holder and whether one exists.
func (rec replCommitRec) crossHolder() (int, bool) {
	return rec.cross - 1, rec.cross > 0
}

// need is the number of distinct valid shards reassembly requires.
func (rec replCommitRec) need() int {
	if rec.data > 0 {
		return rec.data
	}
	return rec.frags
}

// maxWireShards bounds the shard count a wire-supplied commit marker may
// claim. Recovery loops and allocations scale with rec.frags, and the
// marker arrives off a socket — an insane value must be rejected at
// decode, not trusted.
const maxWireShards = 4096

// sane validates marker geometry read off the wire.
func (rec replCommitRec) sane() bool {
	if rec.frags < 1 || rec.frags > maxWireShards {
		return false
	}
	if rec.data < 0 || rec.data > rec.frags {
		return false
	}
	if rec.total < 0 || rec.total > wire.MaxLen {
		return false
	}
	if len(rec.sums) != 0 && len(rec.sums) != rec.frags {
		return false
	}
	if rec.cross < 0 || rec.cross > maxWireShards {
		return false
	}
	return true
}

// codecOf reconstructs the codec that produced the marker's shards.
func (rec replCommitRec) codecOf() (Codec, error) {
	return codecFor(rec.codec, rec.need(), rec.frags-rec.need())
}

// shardValid reports whether a held fragment matches the marker's per-shard
// digest; markers from the pre-digest era (empty sums) accept any bytes and
// rely on the whole-blob digest alone. Index frags is the cross-group
// parity shard (when the marker records one): the full blob, validated
// against the whole-blob digest.
func (rec replCommitRec) shardValid(idx int, frag []byte) bool {
	if _, ok := rec.crossHolder(); ok && idx == rec.frags {
		return len(frag) == rec.total && replSum(frag) == rec.sum
	}
	if idx < 0 || idx >= rec.frags {
		return false
	}
	if len(rec.sums) != rec.frags {
		return true
	}
	return replSum(frag) == rec.sums[idx]
}

// Replication message kinds.
const (
	replMsgFrag uint8 = iota + 1
	replMsgCommit
	replMsgAck
)

// replPayload lets the transport count and delay replication bytes.
type replPayload []byte

// TransportSize implements transport.Sizer.
func (p replPayload) TransportSize() int { return len(p) }

// WireKind implements transport.WirePayload, so replication traffic can
// cross the TCP mesh in multi-process deployments unchanged.
func (p replPayload) WireKind() uint8 { return transport.WireKindRepl }

// MarshalWire implements transport.WirePayload: the payload already is its
// own wire encoding.
func (p replPayload) MarshalWire() []byte { return p }

func init() {
	transport.RegisterWireDecoder(transport.WireKindRepl, func(data []byte) (any, error) {
		return replPayload(append([]byte(nil), data...)), nil
	})
}

// shardSums digests every shard for the commit marker, so recovery can
// reject a corrupt shard and repair it from parity instead of failing the
// whole-blob digest check.
func shardSums(shards [][]byte) []uint64 {
	sums := make([]uint64, len(shards))
	for i, s := range shards {
		sums[i] = replSum(s)
	}
	return sums
}

// shardHolder is the fixed-world placement formula kept for reference and
// regression tests: member.Set.ShardHolder reduces to it exactly when the
// members are 0..n-1 (pinned by internal/member's tests), so committed
// lines keep their holders across the membership refactor.
func shardHolder(owner, idx, shards, n int) int {
	span := shards
	if span > n-1 {
		span = n - 1
	}
	pos := (idx + owner) % shards % span
	return (owner + 1 + pos) % n
}

// shardPlan maps every shard index of one commit to its holder rank and
// returns the distinct holder set (ascending ring order from owner+1).
func shardPlan(owner, shards, n int) (holderOf []int, holders []int) {
	holderOf = make([]int, shards)
	seen := make(map[int]bool, shards)
	for idx := 0; idx < shards; idx++ {
		h := shardHolder(owner, idx, shards, n)
		holderOf[idx] = h
		if !seen[h] {
			seen[h] = true
			holders = append(holders, h)
		}
	}
	return holderOf, holders
}

// commitPlan is the shared placement decision of both diskless stores,
// computed over the current topology. On a flat (single-group) topology
// the ring is the whole membership: for the dup codec every shard goes to
// both ring successors and the owner keeps a full local copy; for an
// erasure codec each shard goes to exactly one distinct ring successor
// (rotated placement) and no local copy is kept — the memory saving that
// is the codec's point. With members 0..n-1 the plan is identical to the
// fixed-world plan, so existing lines keep their holders until the
// membership actually changes.
//
// Under a grouped topology the same formulas run over the owner's
// group-local ring (so commit traffic never leaves the group), and one
// additional cross-group parity shard — the whole blob, at index shards —
// is assigned to topo.ParityHolder(owner) in the next group, keeping the
// line recoverable through a whole-group loss. parity is that holder's
// rank, or -1 when the topology has a single group.
func commitPlan(codec Codec, owner, shards int, topo member.Topology) (sendPlan map[int][]int, holders []int, keepLocal bool, parity int) {
	ring := topo.Set()
	if !topo.Flat() {
		ring = topo.GroupSetOf(owner)
	}
	if codec.ParityShards() == 0 {
		holders = ring.Successors(owner, 2)
		all := make([]int, shards)
		for i := range all {
			all[i] = i
		}
		sendPlan = make(map[int][]int, len(holders)+1)
		for _, nb := range holders {
			sendPlan[nb] = all
		}
		keepLocal = true
	} else {
		holderOf, hs := ring.ShardPlan(owner, shards)
		holders = hs
		sendPlan = make(map[int][]int, len(holders)+1)
		for idx, hr := range holderOf {
			sendPlan[hr] = append(sendPlan[hr], idx)
		}
	}
	parity = topo.ParityHolder(owner)
	if parity == owner {
		parity = -1
	}
	if parity >= 0 {
		sendPlan[parity] = append(sendPlan[parity], shards)
		holders = append(holders, parity)
	}
	return sendPlan, holders, keepLocal, parity
}

// sectionsBytes sums a checkpoint's raw section sizes.
func sectionsBytes(sections map[string][]byte) int64 {
	var t int64
	for _, d := range sections {
		t += int64(len(d))
	}
	return t
}

// reassembleSections decodes a shard set against its commit marker: codec
// reconstruction, whole-blob digest validation, section decode. The slice
// may carry the cross-group parity shard at index rec.frags; a valid one
// is the blob itself and short-circuits the codec — the whole-group-loss
// path, where zero group-local shards survive. Decode-around of up to m
// lost or corrupt group-local shards is unchanged when no parity shard
// was fetched.
func reassembleSections(rec replCommitRec, shards [][]byte) (map[string][]byte, error) {
	if len(shards) > rec.frags {
		if g := shards[rec.frags]; g != nil && rec.shardValid(rec.frags, g) {
			return decodeReplSections(g)
		}
		shards = shards[:rec.frags]
	}
	codec, err := rec.codecOf()
	if err != nil {
		return nil, err
	}
	blob, err := codec.Decode(shards, rec.total)
	if err != nil {
		return nil, err
	}
	if len(blob) != rec.total || replSum(blob) != rec.sum {
		return nil, fmt.Errorf("stable: reassembly digest mismatch (%d/%d bytes)", len(blob), rec.total)
	}
	return decodeReplSections(blob)
}

// --- Blob and message codecs ---

// encodeReplSections flattens a section map into one replication blob.
func encodeReplSections(sections map[string][]byte) []byte {
	names := make([]string, 0, len(sections))
	size := 0
	for n, d := range sections {
		names = append(names, n)
		size += len(n) + len(d) + 16
	}
	sort.Strings(names)
	w := wire.NewWriter(16 + size)
	w.U32(uint32(len(names)))
	for _, n := range names {
		w.String(n)
		w.Bytes32(sections[n])
	}
	return w.Bytes()
}

func decodeReplSections(blob []byte) (map[string][]byte, error) {
	r := wire.NewReader(blob)
	n := r.Count(8) // minimum bytes per serialized section
	sections := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := r.String()
		data := r.Bytes32()
		if r.Err() != nil {
			break
		}
		sections[name] = append([]byte(nil), data...)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("corrupt replication blob: %w", err)
	}
	return sections, nil
}

// splitFragments cuts the blob into k nearly equal pieces (fewer when the
// blob is shorter than k bytes; always at least one, possibly empty). Each
// fragment is an independent copy: a sub-slice would keep the entire blob
// reachable for as long as ANY fragment is retained anywhere, so pruning a
// line's other fragments (Retire/Truncate) would reclaim no memory.
func splitFragments(blob []byte, k int) [][]byte {
	if k > len(blob) {
		k = len(blob)
	}
	if k < 1 {
		k = 1
	}
	frags := make([][]byte, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(blob)/k, (i+1)*len(blob)/k
		frags = append(frags, append(make([]byte, 0, hi-lo), blob[lo:hi]...))
	}
	return frags
}

// replSum is a simple FNV-1a digest for reassembly validation.
func replSum(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	sum := uint64(offset)
	for _, c := range b {
		sum = (sum ^ uint64(c)) * prime
	}
	return sum
}

// The fragment header names the codec and shard geometry so a holder can
// attribute a shard without its marker; the marker remains the
// authoritative record reassembly validates against.
func encodeReplFrag(owner, version int, codecID uint8, shards, idx int, frag []byte) replPayload {
	w := wire.NewWriter(32 + len(frag))
	w.U8(replMsgFrag)
	w.Int(owner)
	w.Int(version)
	w.U8(codecID)
	w.Int(shards)
	w.Int(idx)
	w.Bytes32(frag)
	return replPayload(w.Bytes())
}

func decodeReplFrag(data replPayload) (owner, version int, codecID uint8, shards, idx int, frag []byte, err error) {
	r := wire.NewReader(data[1:])
	owner, version = r.Int(), r.Int()
	codecID = r.U8()
	shards = r.Int()
	idx = r.Int()
	frag = append([]byte(nil), r.Bytes32()...)
	return owner, version, codecID, shards, idx, frag, r.Err()
}

// writeReplRec and readReplRec (de)serialize a commit marker's record; the
// same layout is embedded in the distributed store's query responses.
func writeReplRec(w *wire.Writer, rec replCommitRec) {
	w.U8(rec.codec)
	w.Int(rec.frags)
	w.Int(rec.data)
	w.Int(rec.total)
	w.U64(rec.sum)
	w.U64s(rec.sums)
	w.Int(rec.cross)
}

func readReplRec(r *wire.Reader) replCommitRec {
	return replCommitRec{
		codec: r.U8(),
		frags: r.Int(),
		data:  r.Int(),
		total: r.Int(),
		sum:   r.U64(),
		sums:  r.U64s(),
		cross: r.Int(),
	}
}

// replRecWireMin is the minimum serialized size of a replCommitRec, for
// count clamping in repeated decoders.
const replRecWireMin = 1 + 8 + 8 + 8 + 8 + 4 + 8

func encodeReplCommit(owner, version int, rec replCommitRec) replPayload {
	w := wire.NewWriter(56 + 8*len(rec.sums))
	w.U8(replMsgCommit)
	w.Int(owner)
	w.Int(version)
	writeReplRec(w, rec)
	return replPayload(w.Bytes())
}

func decodeReplCommit(data replPayload) (owner, version int, rec replCommitRec, err error) {
	r := wire.NewReader(data[1:])
	owner, version = r.Int(), r.Int()
	rec = readReplRec(r)
	if err := r.Err(); err != nil {
		return owner, version, rec, err
	}
	if !rec.sane() {
		return owner, version, rec, fmt.Errorf("stable: insane commit marker geometry (frags=%d data=%d total=%d)", rec.frags, rec.data, rec.total)
	}
	return owner, version, rec, nil
}

func encodeReplAck(owner, version, from int) replPayload {
	w := wire.NewWriter(24)
	w.U8(replMsgAck)
	w.Int(owner)
	w.Int(version)
	w.Int(from)
	return replPayload(w.Bytes())
}

func decodeReplAck(data replPayload) (owner, version, from int, err error) {
	r := wire.NewReader(data[1:])
	owner, version, from = r.Int(), r.Int(), r.Int()
	return owner, version, from, r.Err()
}
