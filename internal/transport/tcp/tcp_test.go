package tcp

import (
	"fmt"
	"testing"
	"time"

	"c3/internal/transport"
	"c3/internal/wire"
)

// testPayload is a minimal wire payload for transport tests.
type testPayload []byte

func (p testPayload) TransportSize() int { return len(p) }
func (p testPayload) WireKind() uint8    { return 0xEE }
func (p testPayload) MarshalWire() []byte {
	w := wire.NewWriter(len(p))
	w.Bytes32(p)
	return w.Bytes()
}

func init() {
	transport.RegisterWireDecoder(0xEE, func(data []byte) (any, error) {
		r := wire.NewReader(data)
		b := r.Bytes32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return testPayload(b), nil
	})
}

// newTestMeshes brings up an n-rank mesh world on ephemeral ports.
func newTestMeshes(t *testing.T, n int, opts ...Option) []*Mesh {
	t.Helper()
	addrs := make([]string, n)
	meshes := make([]*Mesh, n)
	// Two passes: bind rank 0..n-1 with :0, collecting real addresses as we
	// go; later ranks get the earlier ranks' real addresses, and earlier
	// meshes learn later addresses lazily via the full list rebuild below.
	for i := 0; i < n; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < n; i++ {
		m, err := New(i, addrs, opts...)
		if err != nil {
			t.Fatalf("mesh %d: %v", i, err)
		}
		addrs[i] = m.Addr()
		meshes[i] = m
	}
	// Rebind every mesh's view of peer addresses to the real ones.
	for _, m := range meshes {
		copy(m.addrs, addrs)
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return meshes
}

func recvOne(t *testing.T, m *Mesh, timeout time.Duration) (transport.Message, bool) {
	t.Helper()
	done := make(chan transport.Message, 1)
	go func() {
		msg, err := m.Endpoint(m.Self()).Recv()
		if err == nil {
			done <- msg
		}
	}()
	select {
	case msg := <-done:
		return msg, true
	case <-time.After(timeout):
		return transport.Message{}, false
	}
}

func TestMeshDeliveryAndFIFO(t *testing.T) {
	meshes := newTestMeshes(t, 3)
	const k = 50
	for i := 0; i < k; i++ {
		p := testPayload(fmt.Sprintf("msg-%03d", i))
		if err := meshes[0].Send(transport.Message{From: 0, To: 1, Class: transport.Data, Payload: p}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < k; i++ {
		msg, ok := recvOne(t, meshes[1], 5*time.Second)
		if !ok {
			t.Fatalf("timed out waiting for message %d", i)
		}
		want := fmt.Sprintf("msg-%03d", i)
		if got := string(msg.Payload.(testPayload)); got != want {
			t.Fatalf("message %d: got %q, want %q (FIFO violated)", i, got, want)
		}
		if msg.From != 0 || msg.To != 1 {
			t.Fatalf("message %d: bad addressing %d->%d", i, msg.From, msg.To)
		}
	}
}

func TestMeshLoopback(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	if err := meshes[1].Send(transport.Message{From: 1, To: 1, Payload: testPayload("self")}); err != nil {
		t.Fatalf("self send: %v", err)
	}
	msg, ok := recvOne(t, meshes[1], time.Second)
	if !ok || string(msg.Payload.(testPayload)) != "self" {
		t.Fatalf("loopback failed: %v %v", msg, ok)
	}
}

func TestMeshGenerationFilter(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	m0, err := New(0, addrs, WithGeneration(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	addrs[0] = m0.Addr()
	m1, err := New(1, addrs, WithGeneration(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	addrs[1] = m1.Addr()
	copy(m0.addrs, addrs)
	copy(m1.addrs, addrs)

	if err := m0.Send(transport.Message{From: 0, To: 1, Payload: testPayload("stale")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, m1, 300*time.Millisecond); ok {
		t.Fatal("frame from generation 1 delivered into generation 2")
	}
}

// TestMeshReconnectAfterRestart is the reconnect-on-restart contract: a
// peer dies (its mesh closes, as a SIGKILLed process's kernel would), a
// replacement binds the same address, and the next sends reach it without
// any lost-frame window — the half-open probe must catch the dead cached
// connection before TCP swallows the first write.
func TestMeshReconnectAfterRestart(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	addrs := append([]string(nil), meshes[0].addrs...)

	// Warm the 0->1 connection.
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("warm")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, meshes[1], 2*time.Second); !ok {
		t.Fatal("warm-up message lost")
	}

	// Rank 1 "dies" and is re-executed on the same address.
	meshes[1].Close()
	time.Sleep(50 * time.Millisecond)
	replacement, err := New(1, addrs, WithDialWindow(2*time.Second))
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	defer replacement.Close()

	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("after-restart")}); err != nil {
		t.Fatal(err)
	}
	msg, ok := recvOne(t, replacement, 5*time.Second)
	if !ok {
		t.Fatal("message to restarted peer lost")
	}
	if got := string(msg.Payload.(testPayload)); got != "after-restart" {
		t.Fatalf("restarted peer got %q", got)
	}
}

func TestMeshDropsToDeadPeerWithoutError(t *testing.T) {
	meshes := newTestMeshes(t, 2, WithDialWindow(500*time.Millisecond))
	meshes[1].Close()
	time.Sleep(20 * time.Millisecond)
	// No replacement listens: sends must drop, not error or hang.
	start := time.Now()
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("x")}); err != nil {
		t.Fatalf("send to dead peer errored: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("send to dead peer blocked %v", d)
	}
	if meshes[0].Stats().MessagesDropped == 0 {
		t.Fatal("drop not counted")
	}
}

// TestMeshRestartedPeerLiftsBackoff: a re-dial toward a dead peer fails and
// arms the drop-fast backoff. The peer's replacement then speaks first (a
// rejoin hello); that frame proves it is listening, so the answer must
// reach it rather than be dropped for the rest of the backoff — a
// replacement that hears nothing from a live rank for that long declares
// it dead.
func TestMeshRestartedPeerLiftsBackoff(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	addrs := append([]string(nil), meshes[0].addrs...)
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("warm")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, meshes[1], 2*time.Second); !ok {
		t.Fatal("warm-up message lost")
	}

	// Rank 1 dies; the next send re-dials for the short window, fails, and
	// arms the backoff.
	meshes[1].Close()
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("lost")}); err != nil {
		t.Fatal(err)
	}
	if meshes[0].Stats().MessagesDropped == 0 {
		t.Fatal("send to the dead peer was not dropped: no backoff armed")
	}

	replacement, err := New(1, addrs)
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	defer replacement.Close()
	if err := replacement.Send(transport.Message{From: 1, To: 0, Payload: testPayload("hello")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, meshes[0], 2*time.Second); !ok {
		t.Fatal("replacement's hello lost")
	}
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("answer")}); err != nil {
		t.Fatal(err)
	}
	msg, ok := recvOne(t, replacement, 2*time.Second)
	if !ok {
		t.Fatal("answer to the replacement was dropped by the backoff")
	}
	if got := string(msg.Payload.(testPayload)); got != "answer" {
		t.Fatalf("replacement got %q, want answer", got)
	}
}
