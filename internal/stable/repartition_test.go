package stable

import (
	"bytes"
	"fmt"
	"testing"

	"c3/internal/member"
)

// repartitionCodecs is the codec-geometry sweep of the elastic re-partition
// matrix: the default dup scheme plus one representative of every erasure
// family/parity budget the store supports.
func repartitionCodecs(t *testing.T) []Codec {
	t.Helper()
	specs := []struct {
		name string
		k, m int
	}{
		{"dup", 2, 0},
		{"xor", 2, 1},
		{"xor", 4, 1},
		{"rs", 2, 2},
		{"rs", 4, 2},
	}
	codecs := make([]Codec, 0, len(specs))
	for _, sp := range specs {
		c, err := NewCodec(sp.name, sp.k, sp.m)
		if err != nil {
			t.Fatalf("codec %s(%d,%d): %v", sp.name, sp.k, sp.m, err)
		}
		codecs = append(codecs, c)
	}
	return codecs
}

// lossCombos enumerates every subset of at most m shard indexes out of
// shards — the loss patterns a codec with m parity shards must tolerate.
func lossCombos(shards, m int) [][]int {
	combos := [][]int{nil}
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		for i := start; i < shards; i++ {
			next := append(append([]int(nil), cur...), i)
			combos = append(combos, next)
			if len(next) < m {
				rec(i+1, next)
			}
		}
	}
	if m > 0 {
		rec(0, nil)
	}
	return combos
}

// dropLine removes the owner's local copy and every node's copy of the
// given shard indexes for (owner, version), returning an undo closure.
func dropLine(s *ReplicatedStore, owner, version int, lost []int) func() {
	nodes, unlock := s.lockNodes()
	defer unlock()
	savedLocal := nodes[owner].local[version]
	delete(nodes[owner].local, version)
	type stash struct {
		node int
		key  replFragKey
		frag []byte
	}
	var saved []stash
	for _, idx := range lost {
		key := replFragKey{owner: owner, version: version, idx: idx}
		for r, node := range nodes {
			if frag, ok := node.frags[key]; ok {
				saved = append(saved, stash{node: r, key: key, frag: frag})
				delete(node.frags, key)
			}
		}
	}
	return func() {
		nodes, unlock := s.lockNodes()
		defer unlock()
		// Open re-installs a reassembled local copy; discard it so the next
		// loss pattern exercises reassembly again, then restore the stash.
		delete(nodes[owner].local, version)
		if savedLocal != nil {
			nodes[owner].local[version] = savedLocal
		}
		for _, st := range saved {
			nodes[st.node].frags[st.key] = st.frag
		}
	}
}

// assertPlacement checks that every shard of (owner, version) sits on the
// holder the current member ring assigns it.
func assertPlacement(t *testing.T, s *ReplicatedStore, m member.Set, owner, version int) {
	t.Helper()
	nodes, unlock := s.lockNodes()
	defer unlock()
	rec, ok := func() (replCommitRec, bool) {
		for _, node := range nodes {
			if rec, ok := node.commits[replCommitKey{owner: owner, version: version}]; ok {
				return rec, true
			}
		}
		return replCommitRec{}, false
	}()
	if !ok {
		t.Fatalf("owner %d version %d: no commit marker after re-partition", owner, version)
	}
	codec, err := rec.codecOf()
	if err != nil {
		t.Fatalf("owner %d: marker codec: %v", owner, err)
	}
	sendPlan, holders, _, _ := commitPlan(codec, owner, rec.frags, member.NewTopology(m, 0))
	for _, h := range holders {
		if _, ok := nodes[h].commits[replCommitKey{owner: owner, version: version}]; !ok {
			t.Fatalf("owner %d: holder %d missing commit marker under %s", owner, h, m)
		}
		for _, idx := range sendPlan[h] {
			key := replFragKey{owner: owner, version: version, idx: idx}
			if frag, ok := nodes[h].frags[key]; !ok || !rec.shardValid(idx, frag) {
				t.Fatalf("owner %d: holder %d missing shard %d under %s", owner, h, idx, m)
			}
		}
	}
}

// TestRepartitionMatrix is the exhaustive elastic re-placement sweep: for
// every world size N=3..8, every grow/shrink of 1-2 slots, and every codec
// geometry, each member commits a line under the old ring, the membership
// changes, and every surviving owner's line must (a) sit exactly where the
// new ring places it and (b) stay reconstructible under every loss pattern
// of at most m shards.
func TestRepartitionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive matrix; skipped in -short")
	}
	for n := 3; n <= 8; n++ {
		for _, delta := range []int{+1, +2, -1, -2} {
			if n+delta < 2 {
				continue // a one-member world has no replication ring
			}
			for _, codec := range repartitionCodecs(t) {
				name := fmt.Sprintf("n=%d/delta=%+d/%s", n, delta, codecName(codec))
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runRepartition(t, n, delta, codec)
				})
			}
		}
	}
}

func codecName(c Codec) string {
	return fmt.Sprintf("codec%d-k%d-m%d", c.ID(), c.DataShards(), c.ParityShards())
}

func runRepartition(t *testing.T, n, delta int, codec Codec) {
	capacity := n + 2
	s := NewReplicatedStore(capacity, WithCodec(codec))
	defer s.Close()
	boot := member.New(1, member.Launch(n).Members())
	s.SetMembership(boot)

	sections := func(owner int) map[string][]byte {
		pay := bytes.Repeat([]byte{byte(owner + 1)}, 257) // not shard-aligned
		return map[string][]byte{"app": pay, "rank": {byte(owner)}}
	}
	for _, owner := range boot.Members() {
		writeCommitted(t, s, owner, 1, sections(owner))
	}

	var next member.Set
	if delta > 0 {
		joins := make([]int, delta)
		for i := range joins {
			joins[i] = n + i
		}
		next = boot.WithJoined(2, joins...)
	} else {
		drops := make([]int, -delta)
		for i := range drops {
			drops[i] = n - 1 - i
		}
		next = boot.WithRemoved(2, drops...)
	}
	s.SetMembership(next)

	m := codec.ParityShards()
	shards := codec.DataShards() + m
	for _, owner := range next.Members() {
		if !boot.Contains(owner) {
			continue // joined after the line committed; owns nothing yet
		}
		assertPlacement(t, s, next, owner, 1)
		for _, lost := range lossCombos(shards, m) {
			undo := dropLine(s, owner, 1, lost)
			snap, err := s.Open(owner, 1)
			if err != nil {
				undo()
				t.Fatalf("owner %d lost=%v: Open: %v", owner, lost, err)
			}
			got, err := snap.ReadSection("app")
			if err != nil || !bytes.Equal(got, sections(owner)["app"]) {
				undo()
				t.Fatalf("owner %d lost=%v: bad app section (err=%v)", owner, lost, err)
			}
			undo()
		}
	}
	if got := s.Migrations(); got < int64(min(n, n+delta)) {
		t.Fatalf("migrations = %d, want >= %d (one per surviving owner)", got, min(n, n+delta))
	}
}
