package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"volley/internal/timesim"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindLocalViolation, "local-violation"},
		{KindPollRequest, "poll-request"},
		{KindPollResponse, "poll-response"},
		{KindYieldReport, "yield-report"},
		{KindErrAssignment, "err-assignment"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestMemoryRegisterValidation(t *testing.T) {
	m := NewMemory()
	if err := m.Register("a", nil); err == nil {
		t.Error("nil handler accepted, want error")
	}
	if err := m.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a", func(Message) {}); err == nil {
		t.Error("duplicate registration accepted, want error")
	}
}

func TestMemorySendSynchronous(t *testing.T) {
	m := NewMemory()
	var got []Message
	if err := m.Register("coord", func(msg Message) { got = append(got, msg) }); err != nil {
		t.Fatal(err)
	}
	msg := Message{Kind: KindLocalViolation, Task: "t1", Value: 42}
	if err := m.Send("mon-1", "coord", msg); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].From != "mon-1" {
		t.Errorf("From = %q, want mon-1", got[0].From)
	}
	if got[0].Value != 42 || got[0].Task != "t1" {
		t.Errorf("payload corrupted: %+v", got[0])
	}
	if got[0].Seq == 0 {
		t.Error("sequence number not stamped")
	}
	stats := m.Stats()
	if stats.Sent != 1 || stats.Delivered != 1 || stats.Dropped != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMemorySendUnknownAddress(t *testing.T) {
	m := NewMemory()
	if err := m.Send("a", "nowhere", Message{}); err == nil {
		t.Error("send to unknown address accepted, want error")
	}
}

func TestMemoryLoss(t *testing.T) {
	m := NewMemory(WithLoss(1.0, 1))
	delivered := 0
	if err := m.Register("x", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := m.Send("a", "x", Message{}); err != nil {
			t.Fatal(err)
		}
	}
	if delivered != 0 {
		t.Errorf("%d messages delivered with loss=1", delivered)
	}
	stats := m.Stats()
	if stats.Dropped != 100 {
		t.Errorf("Dropped = %d, want 100", stats.Dropped)
	}
}

func TestMemoryPartialLoss(t *testing.T) {
	m := NewMemory(WithLoss(0.5, 2))
	delivered := 0
	if err := m.Register("x", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := m.Send("a", "x", Message{}); err != nil {
			t.Fatal(err)
		}
	}
	if delivered < n/3 || delivered > 2*n/3 {
		t.Errorf("delivered %d of %d with loss=0.5", delivered, n)
	}
}

func TestMemoryWithSimulatedDelay(t *testing.T) {
	sim := timesim.New()
	m := NewMemory(WithScheduler(100*time.Millisecond, func(d time.Duration, f func()) error {
		_, err := sim.After(d, func(time.Duration) { f() })
		return err
	}))
	var deliveredAt time.Duration
	if err := m.Register("x", func(Message) { deliveredAt = sim.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := m.Send("a", "x", Message{}); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != 0 {
		t.Error("message delivered before simulation ran")
	}
	sim.RunUntil(time.Second)
	if deliveredAt != 100*time.Millisecond {
		t.Errorf("delivered at %v, want 100ms", deliveredAt)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	done := make(chan struct{}, 1)
	server, err := ListenTCP("127.0.0.1:0", func(msg Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		done <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := ListenTCP("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	msg := Message{Kind: KindPollResponse, Task: "t", Value: 7.5, Seq: 3}
	if err := client.Send(client.Addr(), server.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for delivery")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("got %d messages, want 1", len(got))
	}
	if got[0].Value != 7.5 || got[0].Kind != KindPollResponse || got[0].From != client.Addr() {
		t.Errorf("message corrupted: %+v", got[0])
	}
}

func TestTCPBidirectional(t *testing.T) {
	aDone := make(chan Message, 1)
	bDone := make(chan Message, 1)
	a, err := ListenTCP("127.0.0.1:0", func(m Message) { aDone <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", func(m Message) { bDone <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(a.Addr(), b.Addr(), Message{Kind: KindPollRequest, Value: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-bDone:
		if err := b.Send(b.Addr(), m.From, Message{Kind: KindPollResponse, Value: 2}); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout a→b")
	}
	select {
	case m := <-aDone:
		if m.Value != 2 {
			t.Errorf("reply value = %v, want 2", m.Value)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout b→a")
	}
}

func TestTCPManyMessages(t *testing.T) {
	const n = 500
	var mu sync.Mutex
	received := 0
	allDone := make(chan struct{})
	server, err := ListenTCP("127.0.0.1:0", func(Message) {
		mu.Lock()
		received++
		if received == n {
			close(allDone)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	// The burst outruns the writer while it dials, so give the outbound
	// queue room for the whole batch.
	client, err := ListenTCP("127.0.0.1:0", func(Message) {}, WithQueueDepth(n))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < n; i++ {
		if err := client.Send(client.Addr(), server.Addr(), Message{Kind: KindHeartbeat, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-allDone:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("received %d of %d messages", received, n)
	}
	if stats := client.Stats(); stats.Sent != n {
		t.Errorf("client Sent = %d, want %d", stats.Sent, n)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	n, err := ListenTCP("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(n.Addr(), "127.0.0.1:1", Message{}); err == nil {
		t.Error("send after close accepted, want error")
	}
	// Double close is a no-op.
	if err := n.Close(); err != nil {
		t.Errorf("double close error: %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	n, err := ListenTCP("127.0.0.1:0", func(Message) {},
		WithReconnectBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Port 1 is almost certainly closed. Sending is asynchronous, so the
	// enqueue succeeds; the writer exhausts its dial retries in the
	// background and drops the message.
	if err := n.Send(n.Addr(), "127.0.0.1:1", Message{Kind: KindHeartbeat}); err != nil {
		t.Fatalf("async send errored synchronously: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Stats().Dropped >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("message to closed port never dropped: %+v", n.Stats())
}

// TestTCPSendRejectsUnknownKind: the binary wire has a fixed vocabulary,
// so Send fails fast on an out-of-vocabulary kind instead of letting the
// writer drop it silently.
func TestTCPSendRejectsUnknownKind(t *testing.T) {
	bin, err := ListenTCP("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	if err := bin.Send(bin.Addr(), bin.Addr(), Message{}); err == nil {
		t.Error("binary codec: zero-Kind send succeeded, want vocabulary error")
	}
	if err := bin.Send(bin.Addr(), bin.Addr(), Message{Kind: KindSnapshotAck + 1}); err == nil {
		t.Error("binary codec: out-of-range kind send succeeded, want vocabulary error")
	}
	if st := bin.Stats(); st.Sent != 0 {
		t.Errorf("rejected sends burned sequence numbers: Sent = %d, want 0", st.Sent)
	}
}

func TestListenTCPValidation(t *testing.T) {
	if _, err := ListenTCP("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted, want error")
	}
	if _, err := ListenTCP("256.256.256.256:99999", func(Message) {}); err == nil {
		t.Error("bogus address accepted, want error")
	}
}

func TestTCPMessageFieldsRoundTrip(t *testing.T) {
	got := make(chan Message, 1)
	server, err := ListenTCP("127.0.0.1:0", func(msg Message) { got <- msg })
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := ListenTCP("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want := Message{
		Kind:      KindYieldReport,
		Task:      "task-x",
		Time:      42 * time.Second,
		Value:     3.25,
		Reduction: 0.125,
		Needed:    0.0625,
		Interval:  7.5,
		Err:       0.01,
		Seq:       99,
	}
	if err := client.Send(client.Addr(), server.Addr(), want); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		want.From = client.Addr() // Send stamps the sender
		if msg.Seq == 0 {
			t.Error("Send did not stamp a sequence number")
		}
		want.Seq = msg.Seq // Send overwrites Seq with its own counter
		if !reflect.DeepEqual(msg, want) {
			t.Errorf("round trip mutated message:\n got %+v\nwant %+v", msg, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestMemoryDuplication(t *testing.T) {
	m := NewMemory(WithDuplication(1.0, 5))
	delivered := 0
	if err := m.Register("x", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := m.Send("a", "x", Message{}); err != nil {
			t.Fatal(err)
		}
	}
	if delivered != 100 {
		t.Errorf("delivered %d with dup=1, want 100", delivered)
	}
	if stats := m.Stats(); stats.Sent != 50 || stats.Delivered != 100 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMemoryPartialDuplication(t *testing.T) {
	m := NewMemory(WithDuplication(0.5, 6))
	delivered := 0
	if err := m.Register("x", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := m.Send("a", "x", Message{}); err != nil {
			t.Fatal(err)
		}
	}
	if delivered < n+n/3 || delivered > n+2*n/3 {
		t.Errorf("delivered %d of %d with dup=0.5", delivered, n)
	}
}

func TestMemoryLossAndDuplicationCompose(t *testing.T) {
	m := NewMemory(WithLoss(0.3, 7), WithDuplication(0.3, 8))
	delivered := 0
	if err := m.Register("x", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := m.Send("a", "x", Message{}); err != nil {
			t.Fatal(err)
		}
	}
	// Expected deliveries ≈ n·0.7·1.3 = 0.91·n.
	if delivered < int(0.8*n) || delivered > n {
		t.Errorf("delivered %d of %d with loss+dup", delivered, n)
	}
}
