package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"janus/internal/faultinject"
)

// startInjectedServer starts a server whose listener is wrapped by the
// injector under label.
func startInjectedServer(t *testing.T, store Store, in *faultinject.Injector, label string) (*Server, string) {
	t.Helper()
	srv := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.StartListener(in.WrapListener(ln, label))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// Satellite regression: a peerConn whose read loop failed must be
// evicted, so a server restart on the same address is transparent to
// an existing client.
func TestServerRestartBetweenPulls(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 3}
	store.experts[id] = []byte{1, 2, 3}
	srv1 := NewServer(store)
	addr, err := srv1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := newFastClient(4, 4)
	defer c.Close()
	if _, err := pull(ctx, c, addr, id); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2 := NewServer(store)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	got, err := pull(ctx, c, addr, id)
	if err != nil {
		t.Fatalf("pull after server restart: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("wrong payload %v", got)
	}
	if c.Robust.Snapshot().Reconnects == 0 {
		t.Fatal("restart not counted as a reconnect")
	}
}

// Satellite regression: Close must fail fast callers blocked on the
// credit window instead of deadlocking them.
func TestCloseUnblocksCreditWaiters(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 1}
	store.experts[id] = []byte{1}
	gate := make(chan struct{})
	store.serveHook = func() { <-gate }
	_, addr := startServer(t, store)
	t.Cleanup(func() { close(gate) })

	c := NewClientOptions(Options{Credits: 1, RequestTimeout: 10 * time.Second})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// All but one block on the exhausted credit window.
			_, errs[i] = pull(ctx, c, addr, ExpertID{Expert: uint32(i + 1)})
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the pulls park
	done := make(chan struct{})
	go func() { c.Close(); wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close left Pull callers blocked on credits")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("pull %d succeeded after close", i)
		}
	}
}

// A mid-frame connection reset is retried transparently: the injector
// writes half the response frame and kills the connection; the retry
// over a fresh connection succeeds.
func TestMidFrameResetRetried(t *testing.T) {
	in := faultinject.New(3)
	in.AddRule(faultinject.Rule{Label: "srv", Times: 1, Fault: faultinject.Fault{ResetProb: 1}})
	store := newMemStore()
	id := ExpertID{Expert: 5}
	store.experts[id] = bytes.Repeat([]byte{9}, 256<<10) // spans several writes
	_, addr := startInjectedServer(t, store, in, "srv")

	c := newFastClient(4, 4)
	defer c.Close()
	got, err := pull(ctx, c, addr, id)
	if err != nil {
		t.Fatalf("pull did not survive mid-frame reset: %v", err)
	}
	if !bytes.Equal(got, store.experts[id]) {
		t.Fatal("payload mismatch after retry")
	}
	snap := c.Robust.Snapshot()
	if snap.Retries == 0 || snap.Reconnects == 0 {
		t.Fatalf("expected retry+reconnect, got %v", snap)
	}
}

// A corrupted response frame (flipped length prefix) is rejected by the
// client's bounded reader and the pull is retried.
func TestCorruptFrameRejectedAndRetried(t *testing.T) {
	in := faultinject.New(4)
	in.AddRule(faultinject.Rule{Label: "srv", Times: 1, Fault: faultinject.Fault{CorruptProb: 1}})
	store := newMemStore()
	id := ExpertID{Expert: 6}
	store.experts[id] = []byte{4, 5, 6}
	_, addr := startInjectedServer(t, store, in, "srv")

	c := newFastClient(4, 4)
	defer c.Close()
	got, err := pull(ctx, c, addr, id)
	if err != nil {
		t.Fatalf("pull did not survive corrupt frame: %v", err)
	}
	if !bytes.Equal(got, []byte{4, 5, 6}) {
		t.Fatalf("wrong payload %v", got)
	}
	if c.Robust.Snapshot().Retries == 0 {
		t.Fatal("corrupt frame did not trigger a retry")
	}
}

// The server's reader drops a connection that announces an oversized
// frame, before allocating for it.
func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startServer(t, newMemStore())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFF0)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		// Any prompt close is fine; a timeout would mean it hung.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server hung instead of dropping the connection")
		}
	}
}

// Exactly-once gradients: the injector drops the first ack, the client
// times out and retries with the same retransmission token, and the
// server recognises the duplicate — the store applies it once.
func TestGradRetriedAppliedOnce(t *testing.T) {
	in := faultinject.New(5)
	in.AddRule(faultinject.Rule{Label: "srv", Times: 1, Fault: faultinject.Fault{DropProb: 1}})
	store := newMemStore()
	id := ExpertID{Expert: 2}
	store.experts[id] = []byte{1}
	srv, addr := startInjectedServer(t, store, in, "srv")

	c := NewClientOptions(Options{
		Credits:        2,
		RequestTimeout: 150 * time.Millisecond,
		MaxAttempts:    4,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	})
	defer c.Close()
	if err := c.PushGradient(ctx, addr, id, []byte{0xAA}); err != nil {
		t.Fatalf("push did not survive a lost ack: %v", err)
	}
	store.mu.Lock()
	applied := store.grads[id]
	store.mu.Unlock()
	if applied != 1 {
		t.Fatalf("gradient applied %d times, want exactly 1", applied)
	}
	if srv.GradsAccepted() != 1 {
		t.Fatalf("server accepted %d grads, want 1", srv.GradsAccepted())
	}
	if srv.GradsDeduped() == 0 {
		t.Fatal("retransmit was not recognised as a duplicate")
	}
	if c.Robust.Snapshot().Timeouts == 0 {
		t.Fatal("lost ack did not register as a timeout")
	}
}

// Raw wire check: two GRAD frames with the same token are acked twice
// but applied once, independent of client retry timing.
func TestGradDedupOnWire(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 7}
	store.experts[id] = []byte{1}
	srv, addr := startServer(t, store)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := make([]byte, gradTokenBytes+1)
	payload[gradTokenBytes] = 0x55 // token = 16 zero bytes, same both times
	send := func(reqID uint64) {
		n := uint32(frameHeaderBytes + len(payload))
		buf := make([]byte, 4+n)
		binary.BigEndian.PutUint32(buf[0:4], n)
		buf[4] = msgGrad
		binary.BigEndian.PutUint64(buf[5:13], reqID)
		// epoch [13:21] stays zero: no gate is installed on this server.
		binary.BigEndian.PutUint32(buf[21:25], 0) // sender
		binary.BigEndian.PutUint32(buf[25:29], id.Block)
		binary.BigEndian.PutUint32(buf[29:33], id.Expert)
		copy(buf[33:], payload)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	recvAck := func() {
		hdr := make([]byte, 4)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.Fatal(err)
		}
		rest := make([]byte, binary.BigEndian.Uint32(hdr))
		if _, err := io.ReadFull(conn, rest); err != nil {
			t.Fatal(err)
		}
		if rest[0] != msgGradAck {
			t.Fatalf("response type %#x, want ack", rest[0])
		}
	}
	send(1)
	recvAck()
	send(2)
	recvAck()
	store.mu.Lock()
	applied := store.grads[id]
	store.mu.Unlock()
	if applied != 1 {
		t.Fatalf("gradient applied %d times, want 1", applied)
	}
	if srv.GradsDeduped() != 1 {
		t.Fatalf("deduped = %d, want 1", srv.GradsDeduped())
	}
}

// A hung server trips the per-attempt deadline and the timeout counter.
func TestPullTimeoutCounted(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 8}
	store.experts[id] = []byte{1}
	gate := make(chan struct{})
	store.serveHook = func() { <-gate }
	_, addr := startServer(t, store)
	t.Cleanup(func() { close(gate) })

	c := NewClientOptions(Options{
		Credits:        2,
		RequestTimeout: 50 * time.Millisecond,
		MaxAttempts:    2,
		BackoffBase:    2 * time.Millisecond,
	})
	defer c.Close()
	if _, err := pull(ctx, c, addr, id); err == nil {
		t.Fatal("pull against a hung server succeeded")
	}
	snap := c.Robust.Snapshot()
	if snap.Timeouts == 0 {
		t.Fatalf("no timeouts recorded: %v", snap)
	}
	if snap.Retries == 0 {
		t.Fatalf("no retries recorded: %v", snap)
	}
}

// A caller-supplied context cancels a pull promptly.
func TestPullHonoursContext(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 9}
	store.experts[id] = []byte{1}
	gate := make(chan struct{})
	store.serveHook = func() { <-gate }
	_, addr := startServer(t, store)
	t.Cleanup(func() { close(gate) })

	c := NewClient(2)
	defer c.Close()
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := pull(cctx, c, addr, id); err == nil {
		t.Fatal("cancelled pull succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation was not prompt")
	}
}

// PULLs race server restarts: every pull eventually succeeds because
// failed connections are evicted and redialed.
func TestPullsRaceReconnection(t *testing.T) {
	store := newMemStore()
	const experts = 8
	for i := 0; i < experts; i++ {
		store.experts[ExpertID{Expert: uint32(i)}] = []byte{byte(i)}
	}
	srv := NewServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c := NewClientOptions(Options{
		Credits:        4,
		RequestTimeout: 500 * time.Millisecond,
		MaxAttempts:    3,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
	})
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				id := ExpertID{Expert: uint32((g + i) % experts)}
				// App-level persistence across restarts: retry until the
				// deadline; the transport's own retries do the heavy
				// lifting inside each call.
				deadline := time.Now().Add(5 * time.Second)
				for {
					got, err := pull(ctx, c, addr, id)
					if err == nil {
						if got[0] != byte(id.Expert) {
							fail <- "wrong payload"
						}
						break
					}
					if time.Now().After(deadline) {
						fail <- "pull never succeeded: " + err.Error()
						break
					}
				}
			}
		}()
	}
	// Restart the server twice under the load.
	for r := 0; r < 2; r++ {
		time.Sleep(30 * time.Millisecond)
		srv.Close()
		time.Sleep(10 * time.Millisecond)
		srv = NewServer(store)
		if _, err := srv.Start(addr); err != nil {
			t.Fatalf("restart %d: %v", r, err)
		}
	}
	wg.Wait()
	close(stop)
	srv.Close()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// Pulls racing Close never hang and never return stale success after
// the client reports closed.
func TestConcurrentPullAndClose(t *testing.T) {
	store := newMemStore()
	for i := 0; i < 8; i++ {
		store.experts[ExpertID{Expert: uint32(i)}] = []byte{byte(i)}
	}
	_, addr := startServer(t, store)
	c := newFastClient(2, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pull(ctx, c, addr, ExpertID{Expert: uint32((g + i) % 8)})
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	c.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pulls racing Close hung")
	}
	if _, err := pull(ctx, c, addr, ExpertID{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("pull on closed client: %v, want ErrClosed", err)
	}
}
