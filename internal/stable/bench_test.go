package stable

import "testing"

// benchPayload is one rank's 1 MiB checkpoint section.
func benchPayload() []byte {
	p := make([]byte, 1<<20)
	for i := range p {
		p[i] = byte(i * 2654435761)
	}
	return p
}

// forgetLocal drops the owner's in-memory copy of a line, so the next Open
// reassembles it from peer shards.
func forgetLocal(s *ReplicatedStore, rank, version int) {
	nodes, unlock := s.lockNodes()
	delete(nodes[rank].local, version)
	unlock()
}

// BenchmarkReplicatedCommit prices one rank's synchronous-replicated
// 1 MiB commit in an 8-rank world: encode, ship every shard and marker,
// collect the holders' acknowledgments. Ranks commit round-robin; each
// completed world round retires the previous line (untimed), so resident
// memory stays at one line.
func BenchmarkReplicatedCommit(b *testing.B) {
	const ranks = 8
	for _, spec := range []struct {
		name, codec string
		k, m        int
	}{{"dup", "dup", 2, 0}, {"rs4+2", "rs", 4, 2}} {
		b.Run(spec.name, func(b *testing.B) {
			codec, err := NewCodec(spec.codec, spec.k, spec.m)
			if err != nil {
				b.Fatal(err)
			}
			s := NewReplicatedStore(ranks, WithCodec(codec))
			defer s.Close()
			payload := benchPayload()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rank, version := i%ranks, i/ranks+1
				ck, err := s.Begin(rank, version)
				if err != nil {
					b.Fatal(err)
				}
				if err := ck.WriteSection("app", payload); err != nil {
					b.Fatal(err)
				}
				if err := ck.Commit(); err != nil {
					b.Fatal(err)
				}
				if rank == ranks-1 {
					b.StopTimer()
					for r := 0; r < ranks; r++ {
						if err := s.Retire(r, version); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkReplicatedReassemble prices rebuilding a lost rank's 1 MiB
// rs(4,2) line from peer shards in an 8-rank world — the disk-free
// recovery read.
func BenchmarkReplicatedReassemble(b *testing.B) {
	const ranks = 8
	codec, err := NewCodec("rs", 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	s := NewReplicatedStore(ranks, WithCodec(codec))
	defer s.Close()
	payload := benchPayload()
	ck, err := s.Begin(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := ck.WriteSection("app", payload); err != nil {
		b.Fatal(err)
	}
	if err := ck.Commit(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		forgetLocal(s, 0, 1)
		b.StartTimer()
		snap, err := s.Open(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if got, err := snap.ReadSection("app"); err != nil || len(got) != len(payload) {
			b.Fatalf("reassembled %d bytes: %v", len(got), err)
		}
		snap.Close()
	}
}
