package transport

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"janus/internal/metrics"
)

// Client issues pulls and gradient pushes to remote Servers. It keeps
// one connection per peer address, pipelines requests over it, and
// bounds concurrent in-flight pulls with a credit window (§5.1.1's
// credit-based buffer). The Cache-Manager single flight of §5.1.2 is
// the caller's: the live trainer pulls each external expert once per
// machine and step, so the client never sees two pulls to merge.
//
// Failure handling: every request attempt runs under a deadline, a
// peer connection whose read loop failed is evicted and re-dialed on
// next use, and failed attempts are retried with capped exponential
// backoff plus deterministic jitter. PULL is idempotent and retried
// as-is; GRAD retries carry a stable 16-byte token so the server
// applies a retransmitted gradient exactly once. Remote application
// errors (the server answered, the store said no) are never retried.
type Client struct {
	credits  chan struct{}
	closedCh chan struct{}

	dial        DialFunc
	reqTimeout  time.Duration
	maxAttempts int
	backoffBase time.Duration
	backoffMax  time.Duration

	mu     sync.Mutex
	peers  map[string]*peerConn
	known  map[string]bool // addrs successfully dialed at least once
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	clientID uint64
	gradSeq  atomic.Uint64

	// epoch is stamped into every outgoing request; the membership
	// layer bumps it at each transition so fencing servers can tell a
	// current member from a zombie. machineID identifies the sender.
	epoch     atomic.Uint64
	machineID uint32

	// Per-peer EWMA latency/loss scores for gray-failure detection.
	slowAfter time.Duration
	scoreMu   sync.Mutex
	scores    map[string]*peerScore

	Counters Counters
	// Robust counts retries, per-attempt timeouts and reconnects.
	Robust metrics.Robustness
}

// DialFunc opens a connection to a peer address. Wrapping it is the
// client-side fault-injection hook.
type DialFunc func(addr string) (net.Conn, error)

// ErrClosed is returned by calls on a closed client. Callers blocked
// on credits or backoff when Close runs fail fast with it.
var ErrClosed = errors.New("transport: client closed")

// RemoteError is an application-level failure reported by the server
// (e.g. "expert not hosted"). It is terminal: the request reached the
// server and was answered, so retrying cannot help.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Msg }

// ErrFencedEpoch is the sentinel wrapped by every epoch-fencing
// rejection: the server's membership view has moved past the epoch the
// request was stamped with. Terminal like RemoteError — retrying with
// the same stale epoch can never succeed; the sender must reconcile
// with the membership layer first.
var ErrFencedEpoch = errors.New("transport: request fenced: stale membership epoch")

// FencedEpochError reports an epoch-fencing rejection with the
// server's current epoch and whether the server's membership view
// already readmitted the sender (the post-heal rejoin signal).
type FencedEpochError struct {
	RemoteEpoch uint64
	Readmitted  bool
}

func (e *FencedEpochError) Error() string {
	return fmt.Sprintf("%v (server epoch %d, readmitted %v)", ErrFencedEpoch, e.RemoteEpoch, e.Readmitted)
}

func (e *FencedEpochError) Unwrap() error { return ErrFencedEpoch }

// Options configures a Client beyond the credit window.
type Options struct {
	// Credits bounds in-flight pulls (<=0 means DefaultCredits).
	Credits int
	// Dial opens peer connections; nil means TCP with the request
	// timeout as dial timeout.
	Dial DialFunc
	// RequestTimeout bounds each attempt (dial + round trip);
	// <=0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per logical request (first try plus
	// retries); <=0 means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase is the first retry delay, doubled each retry up to
	// BackoffMax, then multiplied by a jitter draw from [0.5, 1.5).
	// <=0 means DefaultBackoffBase / DefaultBackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes backoff jitter deterministic; 0 uses a fixed seed
	// (determinism is the default here — pass distinct seeds to
	// decorrelate many clients).
	Seed int64
	// MachineID stamps every request's sender field, letting a fencing
	// server report whether this machine has been readmitted.
	MachineID uint32
	// SlowAfter flags a peer as a gray failure when its EWMA request
	// latency exceeds this bound (or its EWMA loss rate exceeds 1/2).
	// Zero disables peer scoring.
	SlowAfter time.Duration
}

// Defaults for Options fields left zero.
const (
	DefaultCredits        = 4
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxAttempts    = 3
	DefaultBackoffBase    = 50 * time.Millisecond
	DefaultBackoffMax     = 2 * time.Second
)

// timerPool recycles the per-attempt deadline timers so the steady-state
// request path does not allocate a timer (or a context) per attempt.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops and drains t before pooling it; a fired-but-undrained
// timer would trip the next user's deadline instantly.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// respChPool recycles roundTrip's response channels. A channel is only
// re-pooled on the clean-receive path: after a timeout the read loop may
// still deliver a late response into it, and after a connection failure
// it is closed — either way it must be abandoned to the GC, never
// reused.
var respChPool = sync.Pool{New: func() any { return make(chan frame, 1) }}

// NewClientOptions returns a client configured by opts.
func NewClientOptions(opts Options) *Client {
	if opts.Credits <= 0 {
		opts.Credits = DefaultCredits
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = DefaultBackoffMax
	}
	c := &Client{
		credits:     make(chan struct{}, opts.Credits),
		closedCh:    make(chan struct{}),
		dial:        opts.Dial,
		reqTimeout:  opts.RequestTimeout,
		maxAttempts: opts.MaxAttempts,
		backoffBase: opts.BackoffBase,
		backoffMax:  opts.BackoffMax,
		peers:       make(map[string]*peerConn),
		known:       make(map[string]bool),
		rng:         rand.New(rand.NewSource(opts.Seed)),
		clientID:    newClientID(),
		machineID:   opts.MachineID,
		slowAfter:   opts.SlowAfter,
		scores:      make(map[string]*peerScore),
	}
	for i := 0; i < opts.Credits; i++ {
		c.credits <- struct{}{}
	}
	if c.dial == nil {
		c.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, c.reqTimeout)
		}
	}
	return c
}

// newClientID draws the id that prefixes every gradient token. It is
// random rather than counted so that clients in different processes
// pushing to one server never share a token: a shared token would be
// acked with the other push's outcome and never applied.
func newClientID() uint64 {
	var b [8]byte
	// Since Go 1.24 crypto/rand.Read never returns an error (it aborts
	// the program instead); the check covers older toolchains.
	if _, err := crand.Read(b[:]); err != nil {
		panic("transport: reading a client id: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

// SetEpoch installs the membership epoch stamped into every
// subsequent request. The membership layer calls this at each
// transition (failover, rejoin, reconcile).
func (c *Client) SetEpoch(e uint64) { c.epoch.Store(e) }

// Epoch returns the membership epoch currently stamped on requests.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// peerScore is the EWMA latency/loss record of one peer address.
type peerScore struct {
	lat  float64 // EWMA of successful round-trip latency, nanoseconds
	loss float64 // EWMA of the per-attempt failure indicator
	init bool
}

// scoreAlpha weighs the newest observation in the EWMA scores.
const scoreAlpha = 0.3

// noteAttempt folds one request attempt into addr's score. Failed
// attempts count toward loss only; latency tracks successes so a
// timeout's deadline does not masquerade as a measured round trip.
func (c *Client) noteAttempt(addr string, d time.Duration, failed bool) {
	if c.slowAfter <= 0 {
		return
	}
	c.scoreMu.Lock()
	defer c.scoreMu.Unlock()
	s := c.scores[addr]
	if s == nil {
		s = &peerScore{}
		c.scores[addr] = s
	}
	fail := 0.0
	if failed {
		fail = 1.0
	}
	if !s.init {
		s.init = true
		s.loss = fail
		if !failed {
			s.lat = float64(d)
		}
		return
	}
	s.loss = float64((1-scoreAlpha)*s.loss) + float64(scoreAlpha*fail)
	if !failed {
		if s.lat == 0 {
			s.lat = float64(d)
		} else {
			s.lat = float64((1-scoreAlpha)*s.lat) + float64(scoreAlpha*float64(d))
		}
	}
}

// PeerSlow reports whether addr is flagged as a gray failure: scoring
// enabled and its EWMA latency above the SlowAfter bound or its EWMA
// loss rate above 1/2.
func (c *Client) PeerSlow(addr string) bool {
	if c.slowAfter <= 0 {
		return false
	}
	c.scoreMu.Lock()
	defer c.scoreMu.Unlock()
	s := c.scores[addr]
	if s == nil || !s.init {
		return false
	}
	return s.lat > float64(c.slowAfter) || s.loss > 0.5
}

// peerConn is one pipelined connection: a writer lock for request
// frames and a reader goroutine dispatching responses by request id.
type peerConn struct {
	conn net.Conn
	w    *bufio.Writer
	wmu  sync.Mutex
	// fg group-commits flushes: concurrent senders coalesce their small
	// request frames (grad pushes, acks, pulls) into one framed write
	// per flush quantum — see flushGroup in transport.go.
	fg flushGroup
	// shard is this connection's lane in the sharded byte counters.
	shard uint32

	// lastRead is the wall-clock UnixNano of the most recent frame the
	// read loop delivered. A timed-out attempt consults it to tell a
	// hung connection (evict and re-dial) from a live one that merely
	// lost this request's frame (retry in place) — on a pipelined
	// connection, evicting kills every other in-flight request, so a
	// single lost frame must not take down the whole window.
	lastRead atomic.Int64

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan frame
	err     error
	closed  chan struct{}
}

// peer returns a live connection to addr, evicting and re-dialing a
// cached connection whose read loop has failed (a poisoned entry must
// never be served again — satellite fix for the permanent-poisoning
// bug). The dial happens outside the client lock so one slow peer
// cannot stall requests to others.
func (c *Client) peer(addr string) (*peerConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if p, ok := c.peers[addr]; ok {
		if !p.failed() {
			c.mu.Unlock()
			return p, nil
		}
		delete(c.peers, addr)
	}
	redial := c.known[addr]
	c.mu.Unlock()

	conn, err := c.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	p := &peerConn{
		conn:    conn,
		w:       bufio.NewWriterSize(conn, 1<<16),
		shard:   nextCounterShard(),
		waiting: make(map[uint64]chan frame),
		closed:  make(chan struct{}),
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if cur, ok := c.peers[addr]; ok && !cur.failed() {
		// Someone else re-dialed while we were; use theirs.
		c.mu.Unlock()
		conn.Close()
		return cur, nil
	}
	c.peers[addr] = p
	c.known[addr] = true
	c.mu.Unlock()
	if redial {
		c.Robust.AddReconnect()
	}
	go p.readLoop(&c.Counters)
	return p, nil
}

// evict drops p from the peer cache (if still cached) and fails it.
func (c *Client) evict(addr string, p *peerConn, err error) {
	c.mu.Lock()
	if cur, ok := c.peers[addr]; ok && cur == p {
		delete(c.peers, addr)
	}
	c.mu.Unlock()
	p.fail(err)
}

func (p *peerConn) failed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil
}

func (p *peerConn) readLoop(counters *Counters) {
	r := bufio.NewReaderSize(p.conn, 1<<16)
	for {
		f, err := readFrame(r)
		if err != nil {
			p.fail(fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		counters.addReceived(p.shard, 4+frameHeaderBytes+len(f.payload))
		p.lastRead.Store(time.Now().UnixNano())
		p.mu.Lock()
		ch, ok := p.waiting[f.reqID]
		delete(p.waiting, f.reqID)
		p.mu.Unlock()
		if ok {
			ch <- f
		} else {
			// Response for a caller that gave up (deadline passed):
			// nobody will read the payload, recycle its buffer.
			f.recycle()
		}
	}
}

func (p *peerConn) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		close(p.closed)
	}
	waiting := p.waiting
	p.waiting = make(map[uint64]chan frame)
	p.mu.Unlock()
	for _, ch := range waiting {
		close(ch)
	}
	p.conn.Close()
}

// roundTrip sends a request frame and waits for its response, the
// attempt timeout firing, or the context, whichever comes first. The
// timeout channel is a pooled timer owned by the caller; firing maps to
// context.DeadlineExceeded so do()'s progress-aware eviction logic sees
// the same error shape the old per-attempt context produced. The write
// is group-committed: the frame is copied into the buffered writer
// under the lock (so the caller's payload is never retained — the PR 3
// no-retain contract holds for batched writes too), and whichever
// concurrent sender drains the pending count to zero flushes the
// coalesced batch.
func (p *peerConn) roundTrip(ctx context.Context, timeout <-chan time.Time, deadline time.Time, f frame, counters *Counters) (frame, error) {
	ch := respChPool.Get().(chan frame)
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		respChPool.Put(ch)
		return frame{}, err
	}
	p.nextID++
	f.reqID = p.nextID
	p.waiting[f.reqID] = ch
	p.mu.Unlock()

	p.fg.enter()
	p.wmu.Lock()
	if !deadline.IsZero() {
		p.conn.SetWriteDeadline(deadline)
	}
	err := writeFrameBuffered(p.w, f)
	if p.fg.exit() && err == nil {
		err = p.w.Flush()
	}
	p.wmu.Unlock()
	if err != nil {
		p.fail(err)
		return frame{}, err
	}
	counters.addSent(p.shard, 4+frameHeaderBytes+len(f.payload))

	select {
	case resp, ok := <-ch:
		if !ok {
			// Closed by fail(); a closed channel can never be pooled.
			p.mu.Lock()
			err := p.err
			p.mu.Unlock()
			if err == nil {
				err = errors.New("transport: connection closed")
			}
			return frame{}, err
		}
		respChPool.Put(ch)
		if resp.typ == msgError {
			msg := string(resp.payload) // copies; buffer can go back
			resp.recycle()
			return frame{}, &RemoteError{Msg: msg}
		}
		if resp.typ == msgFenced {
			fe := &FencedEpochError{RemoteEpoch: resp.epoch}
			if len(resp.payload) >= 1 {
				fe.Readmitted = resp.payload[0]&pongFlagReadmitted != 0
			}
			resp.recycle()
			return frame{}, fe
		}
		return resp, nil
	case <-timeout:
		// Abandon ch: the read loop may have popped the waiting entry
		// already and be about to deliver into it.
		p.mu.Lock()
		delete(p.waiting, f.reqID)
		p.mu.Unlock()
		return frame{}, context.DeadlineExceeded
	case <-ctx.Done():
		p.mu.Lock()
		delete(p.waiting, f.reqID)
		p.mu.Unlock()
		return frame{}, ctx.Err()
	}
}

// do runs one logical request with per-attempt deadlines, eviction of
// the failed connection, and capped jittered exponential backoff
// between attempts.
func (c *Client) do(ctx context.Context, addr string, req frame) (frame, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			c.Robust.AddRetry()
			if err := c.sleepBackoff(ctx, attempt); err != nil {
				return frame{}, lastErr
			}
		}
		select {
		case <-c.closedCh:
			return frame{}, ErrClosed
		default:
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return frame{}, lastErr
		}

		attemptStart := time.Now()
		p, err := c.peer(addr)
		if err == nil {
			// Per-attempt deadline from a pooled timer instead of a
			// context.WithTimeout: same semantics (the timer firing
			// surfaces as context.DeadlineExceeded, ctx cancellation
			// still aborts the wait), zero allocations per attempt.
			deadline := attemptStart.Add(c.reqTimeout)
			if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
				deadline = d
			}
			t := getTimer(time.Until(deadline))
			// Stamp the sender identity and the freshest membership
			// epoch per attempt — a reconcile between retries must not
			// leave the request carrying a fenceable stale epoch.
			req.epoch = c.epoch.Load()
			req.sender = c.machineID
			var resp frame
			resp, err = p.roundTrip(ctx, t.C, deadline, req, &c.Counters)
			putTimer(t)
			if err == nil {
				c.noteAttempt(addr, time.Since(attemptStart), false)
				return resp, nil
			}
			var re *RemoteError
			if errors.As(err, &re) {
				c.noteAttempt(addr, time.Since(attemptStart), false)
				return frame{}, err
			}
			var fe *FencedEpochError
			if errors.As(err, &fe) {
				// Fencing is terminal: the server answered, it just
				// refuses our epoch. The connection stays healthy.
				c.noteAttempt(addr, time.Since(attemptStart), false)
				return frame{}, err
			}
			c.noteAttempt(addr, time.Since(attemptStart), true)
			evictConn := true
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				c.Robust.AddTimeout()
				if p.lastRead.Load() >= attemptStart.UnixNano() {
					// The connection delivered other responses during
					// this attempt, so it is alive; only this request's
					// frame (or its response) was lost. Retry on the
					// same connection rather than evicting it, which
					// would abort every other request pipelined on it.
					evictConn = false
				}
			}
			if evictConn {
				// The connection is suspect (lost, reset, or hung past
				// its deadline): evict so the next attempt re-dials.
				c.evict(addr, p, fmt.Errorf("transport: evicted after: %w", err))
			}
		} else {
			// A failed dial is a lost attempt for the peer score.
			c.noteAttempt(addr, time.Since(attemptStart), true)
		}
		if errors.Is(err, ErrClosed) {
			return frame{}, err
		}
		lastErr = err
	}
	return frame{}, lastErr
}

// sleepBackoff waits before retry number attempt (1-based), honouring
// cancellation and client close.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	d := c.backoffBase << (attempt - 1)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	c.rngMu.Lock()
	jitter := 0.5 + float64(c.rng.Float64())
	c.rngMu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.closedCh:
		return ErrClosed
	}
}

// PullVersionInto fetches an expert's bytes at exactly the given
// version, appending the payload into dst (grown as needed) and
// recycling the transport receive buffer before returning, so the
// steady-state pipelined trainer's version pulls allocate nothing once
// dst has warmed to the expert's encoded size. The server parks the
// request until the owner publishes that version (see VersionedStore),
// which guarantees the pipelined trainer reads the step's exact weights
// and back-pressures cross-step prefetching. Each call consumes one
// credit while its wire request is outstanding; transient failures are
// retried up to the attempt budget, and ctx bounds the whole call.
func (c *Client) PullVersionInto(ctx context.Context, addr string, id ExpertID, version uint64, dst []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-c.credits:
	case <-c.closedCh:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { c.credits <- struct{}{} }()
	verBuf := getFrameBuf(versionedPullBytes)
	binary.BigEndian.PutUint64(*verBuf, version)
	req := frame{typ: msgPullV, id: id, payload: *verBuf}
	resp, err := c.do(ctx, addr, req)
	frameBufPool.Put(verBuf)
	if err != nil {
		return nil, err
	}
	if resp.typ != msgExpert {
		resp.recycle()
		return nil, fmt.Errorf("transport: unexpected response type %#x", resp.typ)
	}
	dst = append(dst[:0], resp.payload...)
	resp.recycle()
	return dst, nil
}

// PushGradient delivers one gradient contribution to the expert's
// owner and waits for the ack. Retries reuse one retransmission token,
// so the server applies the gradient exactly once even if an ack was
// lost and the push retried over a new connection.
func (c *Client) PushGradient(ctx context.Context, addr string, id ExpertID, payload []byte) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Pooled token+payload staging buffer: do() copies it into the
	// connection buffer synchronously per attempt (batched writes
	// included), so it can be recycled as soon as do() returns. The
	// dedup token itself is per logical push and survives retries.
	bp := getFrameBuf(gradTokenBytes + len(payload))
	buf := *bp
	binary.BigEndian.PutUint64(buf[0:8], c.clientID)
	binary.BigEndian.PutUint64(buf[8:16], c.gradSeq.Add(1))
	copy(buf[gradTokenBytes:], payload)
	resp, err := c.do(ctx, addr, frame{typ: msgGrad, id: id, payload: buf})
	frameBufPool.Put(bp)
	if err != nil {
		return err
	}
	if resp.typ != msgGradAck {
		resp.recycle()
		return fmt.Errorf("transport: unexpected response type %#x", resp.typ)
	}
	return nil
}

// PingInfo is what a heartbeat learns about the probed peer: the
// membership epoch its server answers with and whether that server's
// view considers this client's machine alive (the readmission signal a
// fenced machine waits for after a partition heals). A FENCED answer
// fills both fields alongside the returned error.
type PingInfo struct {
	Epoch      uint64
	Readmitted bool
}

// Ping probes addr's liveness with a single attempt — no retries and
// no backoff, because a heartbeat's whole job is to report the current
// state quickly; the caller's dead-man counter supplies the tolerance
// a retry budget would. The attempt runs under the request timeout (or
// the ctx deadline, whichever is sooner), piggybacks on the same
// pipelined connection as pulls, and evicts the connection on failure
// so the next probe re-dials.
func (c *Client) Ping(ctx context.Context, addr string) (PingInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := c.peer(addr)
	if err != nil {
		c.noteAttempt(addr, 0, true) // unreachable: score it as loss
		return PingInfo{}, err
	}
	start := time.Now()
	deadline := start.Add(c.reqTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	t := getTimer(time.Until(deadline))
	defer putTimer(t)
	req := frame{typ: msgPing, epoch: c.epoch.Load(), sender: c.machineID}
	resp, err := p.roundTrip(ctx, t.C, deadline, req, &c.Counters)
	if err != nil {
		var fe *FencedEpochError
		if errors.As(err, &fe) {
			// The peer is alive — it answered — but our epoch is stale.
			c.noteAttempt(addr, time.Since(start), false)
			return PingInfo{Epoch: fe.RemoteEpoch, Readmitted: fe.Readmitted}, err
		}
		var re *RemoteError
		if !errors.As(err, &re) {
			c.evict(addr, p, fmt.Errorf("transport: evicted after: %w", err))
		}
		c.noteAttempt(addr, time.Since(start), true)
		return PingInfo{}, err
	}
	c.noteAttempt(addr, time.Since(start), false)
	if resp.typ != msgPong {
		resp.recycle()
		return PingInfo{}, fmt.Errorf("transport: unexpected response type %#x", resp.typ)
	}
	info := PingInfo{Epoch: resp.epoch, Readmitted: true}
	if len(resp.payload) >= 1 {
		info.Readmitted = resp.payload[0]&pongFlagReadmitted != 0
	}
	resp.recycle()
	return info, nil
}

// Close tears down all peer connections. In-flight calls fail, and
// callers blocked on credits or backoff fail fast.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closedCh)
	peers := c.peers
	c.peers = make(map[string]*peerConn)
	c.mu.Unlock()
	for _, p := range peers {
		p.fail(ErrClosed)
	}
	return nil
}
