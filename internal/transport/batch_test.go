package transport

import (
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestTCPBatchCoalescing bursts messages at a peer and verifies they all
// arrive exactly once while the writer ships multi-message frames.
func TestTCPBatchCoalescing(t *testing.T) {
	const n = 400
	var mu sync.Mutex
	seen := make(map[uint64]int)
	server, err := ListenTCP("127.0.0.1:0", func(m Message) {
		mu.Lock()
		seen[m.Seq]++
		mu.Unlock()
	}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := ListenTCP("127.0.0.1:0", func(Message) {},
		fastOpts(WithQueueDepth(n), WithMaxBatch(32))...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for i := 0; i < n; i++ {
		if err := client.Send(client.Addr(), server.Addr(), Message{Kind: KindYieldReport, Task: "cpu", Reduction: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == n
	}, "all messages")
	mu.Lock()
	for seq, c := range seen {
		if c != 1 {
			t.Errorf("seq %d delivered %d times", seq, c)
		}
	}
	mu.Unlock()
	// The burst outruns the writer's dial, so at least some frames must
	// have coalesced.
	if st := client.Stats(); st.FramesBatched == 0 {
		t.Errorf("no batched frames in a %d-message burst, stats %+v", n, st)
	} else if st.BytesSent == 0 {
		t.Errorf("BytesSent not counted, stats %+v", st)
	}
	if st := server.Stats(); st.BytesRecv == 0 {
		t.Errorf("BytesRecv not counted, stats %+v", st)
	}
}

// TestTCPBatchWindowCoalesces: with a batch window, messages sent one at
// a time (each enqueued after the writer wakes) still share frames.
func TestTCPBatchWindowCoalesces(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	got := 0
	server, err := ListenTCP("127.0.0.1:0", func(Message) {
		mu.Lock()
		got++
		mu.Unlock()
	}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := ListenTCP("127.0.0.1:0", func(Message) {},
		fastOpts(WithBatchWindow(50*time.Millisecond), WithMaxBatch(n))...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for i := 0; i < n; i++ {
		if err := client.Send(client.Addr(), server.Addr(), Message{Kind: KindHeartbeat}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == n
	}, "all messages")
	if st := client.Stats(); st.FramesBatched == 0 {
		t.Errorf("batch window coalesced nothing, stats %+v", st)
	}
}

// TestTCPBinarySenderRoundTrip: the new→new direction, with every field
// class exercised, end to end through a real connection.
func TestTCPBinarySenderRoundTrip(t *testing.T) {
	recv := make(chan Message, 8)
	server, err := ListenTCP("127.0.0.1:0", func(m Message) { recv <- m }, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := ListenTCP("127.0.0.1:0", func(Message) {}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want := Message{
		Kind: KindSnapshot, Task: "cpu", Time: 42 * time.Second,
		Value: 0.5, Epoch: 9, Payload: []byte{1, 2, 3, 4},
	}
	if err := client.Send(client.Addr(), server.Addr(), want); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-recv:
		if m.Kind != want.Kind || m.Task != want.Task || m.Time != want.Time ||
			m.Value != want.Value || m.Epoch != want.Epoch || string(m.Payload) != string(want.Payload) {
			t.Errorf("binary round trip corrupted: %+v", m)
		}
		if m.From != client.Addr() || m.Seq == 0 {
			t.Errorf("stamping lost: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("binary message never arrived")
	}
}

// TestTCPBatchedSoak is the -race smoke CI runs: several nodes bursting
// batched traffic at each other concurrently, with one peer restart in
// the middle. Exactly-once delivery per surviving message is not
// asserted (drops are legal when a peer is down); no duplicates ever is.
func TestTCPBatchedSoak(t *testing.T) {
	const (
		nodes   = 3
		perNode = 300
	)
	type rec struct {
		mu   sync.Mutex
		seen map[string]map[uint64]int
	}
	records := make([]*rec, nodes)
	tnodes := make([]*TCPNode, nodes)
	for i := 0; i < nodes; i++ {
		r := &rec{seen: make(map[string]map[uint64]int)}
		records[i] = r
		n, err := ListenTCP("127.0.0.1:0", func(m Message) {
			r.mu.Lock()
			if r.seen[m.From] == nil {
				r.seen[m.From] = make(map[uint64]int)
			}
			r.seen[m.From][m.Seq]++
			r.mu.Unlock()
		}, fastOpts(WithQueueDepth(4*perNode), WithMaxBatch(16))...)
		if err != nil {
			t.Fatal(err)
		}
		tnodes[i] = n
	}
	defer func() {
		for _, n := range tnodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			self := tnodes[i]
			for s := 0; s < perNode; s++ {
				for j := 0; j < nodes; j++ {
					if j == i {
						continue
					}
					_ = self.Send(self.Addr(), tnodes[j].Addr(), Message{
						Kind: KindYieldReport, Task: "cpu", Reduction: float64(s),
					})
				}
				if s%50 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()

	// Let writers drain, then check the invariant: no sequence delivered
	// twice anywhere.
	time.Sleep(500 * time.Millisecond)
	var batched uint64
	for i, r := range records {
		r.mu.Lock()
		for from, seqs := range r.seen {
			for seq, c := range seqs {
				if c != 1 {
					t.Errorf("node %d: message %s/%d delivered %d times", i, from, seq, c)
				}
			}
		}
		r.mu.Unlock()
		batched += tnodes[i].Stats().FramesBatched
	}
	if batched == 0 {
		t.Error("soak shipped no batched frames")
	}
}

// --- Memory-transport batching ---

// TestMemoryBatchingFlush: with batching on, sends sit pending until
// Flush, then deliver in order.
func TestMemoryBatchingFlush(t *testing.T) {
	m := NewMemory()
	var got []float64
	if err := m.Register("coord", func(msg Message) { got = append(got, msg.Value) }); err != nil {
		t.Fatal(err)
	}
	m.SetBatching(16)
	for i := 0; i < 5; i++ {
		if err := m.Send("mon", "coord", Message{Kind: KindPollResponse, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatalf("messages delivered before Flush: %v", got)
	}
	m.Flush()
	if len(got) != 5 {
		t.Fatalf("delivered %d after Flush, want 5", len(got))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
	if st := m.Stats(); st.FramesBatched != 1 {
		t.Errorf("FramesBatched = %d, want 1", st.FramesBatched)
	}
}

// TestMemoryBatchingFullBatchDelivers: a link reaching maxBatch delivers
// immediately, without waiting for Flush.
func TestMemoryBatchingFullBatchDelivers(t *testing.T) {
	m := NewMemory()
	got := 0
	if err := m.Register("coord", func(Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	m.SetBatching(3)
	for i := 0; i < 3; i++ {
		if err := m.Send("mon", "coord", Message{Kind: KindHeartbeat}); err != nil {
			t.Fatal(err)
		}
	}
	if got != 3 {
		t.Fatalf("full batch delivered %d, want 3", got)
	}
}

// TestMemoryBatchingDisableFlushes: turning batching off delivers what
// was pending.
func TestMemoryBatchingDisableFlushes(t *testing.T) {
	m := NewMemory()
	got := 0
	if err := m.Register("coord", func(Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	m.SetBatching(16)
	for i := 0; i < 4; i++ {
		if err := m.Send("mon", "coord", Message{Kind: KindHeartbeat}); err != nil {
			t.Fatal(err)
		}
	}
	m.SetBatching(0)
	if got != 4 {
		t.Fatalf("disable flushed %d, want 4", got)
	}
	// Back to synchronous delivery.
	if err := m.Send("mon", "coord", Message{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("unbatched send after disable delivered %d, want 5", got)
	}
}

// TestMemoryBatchingCascade: a handler that sends during Flush has its
// messages delivered within the same Flush — the batched analogue of the
// synchronous request/response cascade the coordinator relies on.
func TestMemoryBatchingCascade(t *testing.T) {
	m := NewMemory()
	var resp []Message
	if err := m.Register("coord", func(msg Message) {
		if msg.Kind == KindLocalViolation {
			_ = m.Send("coord", "mon", Message{Kind: KindPollRequest, Task: msg.Task})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("mon", func(msg Message) { resp = append(resp, msg) }); err != nil {
		t.Fatal(err)
	}
	m.SetBatching(16)
	if err := m.Send("mon", "coord", Message{Kind: KindLocalViolation, Task: "cpu"}); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if len(resp) != 1 || resp[0].Kind != KindPollRequest || resp[0].Task != "cpu" {
		t.Fatalf("cascade did not complete within Flush: %+v", resp)
	}
}

// TestMemoryBatchingWholeBatchLoss: loss cuts whole batches, the frame
// analogue of losing a TCP segment carrying the batch.
func TestMemoryBatchingWholeBatchLoss(t *testing.T) {
	m := NewMemory(WithLoss(1.0, 1))
	got := 0
	if err := m.Register("coord", func(Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	m.SetBatching(16)
	for i := 0; i < 6; i++ {
		if err := m.Send("mon", "coord", Message{Kind: KindHeartbeat}); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	if got != 0 {
		t.Fatalf("loss=1 delivered %d messages", got)
	}
	if st := m.Stats(); st.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", st.Dropped)
	}
}

// TestMemoryBatchingPartitionCutsPending: a partition raised after
// enqueue but before Flush drops the in-flight batch, like a frame on a
// severed link.
func TestMemoryBatchingPartitionCutsPending(t *testing.T) {
	m := NewMemory()
	got := 0
	if err := m.Register("coord", func(Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	m.SetBatching(16)
	if err := m.Send("mon", "coord", Message{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	m.Partition([]string{"mon"}, []string{"coord"})
	m.Flush()
	if got != 0 {
		t.Fatalf("partitioned batch delivered %d messages", got)
	}
	m.Heal()
	if err := m.Send("mon", "coord", Message{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if got != 1 {
		t.Fatalf("healed link delivered %d, want 1", got)
	}
}

// TestMemoryBatchingFilterPerMessage: the fault filter keeps per-message
// granularity inside a batch.
func TestMemoryBatchingFilterPerMessage(t *testing.T) {
	m := NewMemory()
	var got []float64
	if err := m.Register("coord", func(msg Message) { got = append(got, msg.Value) }); err != nil {
		t.Fatal(err)
	}
	m.SetFilter(func(_, _ string, msg Message) bool { return msg.Value == 1 })
	m.SetBatching(16)
	for i := 0; i < 3; i++ {
		if err := m.Send("mon", "coord", Message{Kind: KindPollResponse, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("filter inside batch delivered %v, want [0 2]", got)
	}
}

// TestMemoryBatchingDuplicationWholeBatch: duplication replays the whole
// batch, like a retransmitted frame.
func TestMemoryBatchingDuplicationWholeBatch(t *testing.T) {
	m := NewMemory(WithDuplication(1.0, 1))
	got := 0
	if err := m.Register("coord", func(Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	m.SetBatching(16)
	for i := 0; i < 3; i++ {
		if err := m.Send("mon", "coord", Message{Kind: KindHeartbeat}); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	if got != 6 {
		t.Fatalf("dup=1 delivered %d, want 6 (batch replayed whole)", got)
	}
}
