// Package transport implements the Janus pull protocol over real TCP
// sockets: the §6 implementation split of a socket control plane and a
// streamed data plane, reduced to one connection per peer pair (TCP
// carries both planes here, where the paper used a socket plus an RDMA
// queue pair — the protocol structure is identical, only the constants
// change).
//
// A Server owns experts and serves two core request types: PULL (return
// an expert's bytes at a given version) and GRAD (accept a gradient
// contribution for an expert). A Client maintains one connection per
// remote peer, pipelines requests over it, and bounds its in-flight
// pulls with a credit window (§5.1.1). Fetching each external expert
// once per machine (the Cache Manager behaviour of §5.1.2) is the live
// trainer's job, not the client's.
//
// All exported types are safe for concurrent use.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Message types on the wire.
const (
	// 0x01 was the unversioned pull. It stays reserved: no other
	// message may reuse it, and a server drops a connection that sends it.
	msgExpert     = 0x02 // server -> client: expert payload
	msgGrad       = 0x03 // client -> server: gradient payload
	msgGradAck    = 0x04 // server -> client: gradient accepted
	msgPing       = 0x05 // client -> server: liveness probe (heartbeat)
	msgPong       = 0x06 // server -> client: liveness answer
	msgPullV      = 0x07 // client -> server: request expert bytes at a version
	msgFenced     = 0x08 // server -> client: request rejected, sender's epoch is stale
	msgJoin       = 0x09 // client -> server: new machine asks to be admitted
	msgAdmit      = 0x0A // server -> client: membership snapshot for an admitted joiner
	msgMigrate    = 0x0B // client -> server: stage a migrated expert's weights
	msgMigrateAck = 0x0C // server -> client: migrated weights staged
	msgRepl       = 0x0D // client -> server: versioned replica weight stream
	msgReplAck    = 0x0E // server -> client: replica stream applied
	msgServe      = 0x0F // client -> server: inference micro-batch with a deadline budget
	msgServeOut   = 0x10 // server -> client: expert outputs with answer provenance
	msgError      = 0x7F // server -> client: request failed
)

// pongFlagReadmitted is set in a PONG/FENCED payload when the server's
// membership view considers the probing machine alive — the signal a
// previously fenced machine uses to rejoin after a partition heals.
const pongFlagReadmitted = 0x01

// maxFrameBytes bounds a frame so a corrupt length prefix cannot make
// a reader allocate unbounded memory. Experts in this repository are at
// most 8·1024²·4 bytes; 64 MiB leaves ample headroom.
const maxFrameBytes = 64 << 20

// ExpertID names one expert instance of one block.
type ExpertID struct {
	Block  uint32
	Expert uint32
}

func (id ExpertID) String() string { return fmt.Sprintf("b%d/e%d", id.Block, id.Expert) }

// frame is the unit of the wire protocol:
//
//	uint32 length (of everything after this field)
//	uint8  type
//	uint64 request id
//	uint64 membership epoch (sender's view on requests, server's on responses)
//	uint32 sender machine id
//	uint32 block, uint32 expert
//	payload bytes
type frame struct {
	typ     byte
	reqID   uint64
	epoch   uint64
	sender  uint32
	id      ExpertID
	payload []byte
	// buf is the pooled backing store of payload, set only when the
	// frame was read with a recyclable buffer. recycle() returns it to
	// the pool; payloads that escape to callers (msgExpert) leave buf
	// unrecycled, which is safe — the pool never requires a Put.
	buf *[]byte
}

const frameHeaderBytes = 1 + 8 + 8 + 4 + 4 + 4

// frameBufPool recycles frame read buffers. Header-only frames (PULL,
// PING, PONG, GRADACK) return their buffer inside readFrame; GRAD
// payloads are recycled by the server once the store has consumed them.
// Buffers are held behind a pointer so Put does not allocate.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4+frameHeaderBytes); return &b }}

func getFrameBuf(n int) *[]byte {
	bp := frameBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// recycle returns the frame's pooled read buffer, if any. The caller
// must not touch f.payload afterwards.
func (f *frame) recycle() {
	if f.buf != nil {
		frameBufPool.Put(f.buf)
		f.buf, f.payload = nil, nil
	}
}

// flushGroup implements the group-commit flush rule: senders increment
// pending before taking the write lock, copy their frame into the
// buffered writer via writeFrameBuffered, then decrement; whoever
// decrements to zero flushes. A sender that skips its flush is
// guaranteed a later one: its decrement was non-zero only because
// another sender had already incremented, and that sender (or one that
// delays *it*) must reach its own decrement inside the lock after
// writing.
//
// Frames are not queued for a background flusher: a timed-out sender
// could then recycle a payload the flusher had yet to write. Group
// commit keeps the copy synchronous in the sender — when
// writeFrameBuffered returns, the payload bytes are owned by the bufio
// buffer (or already on the socket) and the caller may recycle them, so
// the no-retain contract extends to batched payloads unchanged. A
// faulted flush still fails several senders' frames at once, but each
// failed request retries under its own budget with its own dedup token,
// so fault-injection retransmission semantics are the same as with one
// flush per frame.
type flushGroup struct{ pending atomic.Int32 }

func (g *flushGroup) enter() { g.pending.Add(1) }

// exit reports whether the caller is the last sender in the window and
// must flush. Call while holding the connection's write lock.
func (g *flushGroup) exit() bool { return g.pending.Add(-1) == 0 }

// writeFrameBuffered serialises f into w without flushing. On return
// the payload has been copied out (bufio buffers it or wrote it
// through), so the caller may recycle f.payload immediately.
func writeFrameBuffered(w *bufio.Writer, f frame) error {
	if len(f.payload) > maxFrameBytes-frameHeaderBytes {
		return fmt.Errorf("transport: frame payload %d exceeds limit", len(f.payload))
	}
	// Build the header inside the bufio.Writer's own buffer: a local
	// array would escape to the heap (w.Write hands the slice to the
	// underlying io.Writer interface), costing one allocation per
	// frame on the steady-state path. If the buffer is too full to
	// hold a header, flush first — that only moves bytes the group
	// commit would have flushed moments later anyway.
	if w.Available() < 4+frameHeaderBytes {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := w.AvailableBuffer()[:4+frameHeaderBytes]
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameHeaderBytes+len(f.payload)))
	hdr[4] = f.typ
	binary.BigEndian.PutUint64(hdr[5:13], f.reqID)
	binary.BigEndian.PutUint64(hdr[13:21], f.epoch)
	binary.BigEndian.PutUint32(hdr[21:25], f.sender)
	binary.BigEndian.PutUint32(hdr[25:29], f.id.Block)
	binary.BigEndian.PutUint32(hdr[29:33], f.id.Expert)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(f.payload) > 0 {
		if _, err := w.Write(f.payload); err != nil {
			return err
		}
	}
	return nil
}

func readFrame(r *bufio.Reader) (frame, error) {
	// Peek/Discard instead of io.ReadFull into a local array: the
	// array would escape through the io.Reader interface and allocate
	// once per frame received.
	lenBuf, err := r.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf)
	r.Discard(4)
	if n < frameHeaderBytes || n > maxFrameBytes {
		return frame{}, fmt.Errorf("transport: invalid frame length %d", n)
	}
	bp := getFrameBuf(int(n))
	buf := *bp
	if _, err := io.ReadFull(r, buf); err != nil {
		frameBufPool.Put(bp)
		return frame{}, err
	}
	f := frame{
		typ:    buf[0],
		reqID:  binary.BigEndian.Uint64(buf[1:9]),
		epoch:  binary.BigEndian.Uint64(buf[9:17]),
		sender: binary.BigEndian.Uint32(buf[17:21]),
		id: ExpertID{
			Block:  binary.BigEndian.Uint32(buf[21:25]),
			Expert: binary.BigEndian.Uint32(buf[25:29]),
		},
	}
	if n > frameHeaderBytes {
		f.payload = buf[frameHeaderBytes:]
		f.buf = bp
	} else {
		// Header-only frame: nothing aliases the buffer, recycle now.
		frameBufPool.Put(bp)
	}
	return f, nil
}

// Store is the server-side sink for gradient pushes. A store that
// also answers pulls implements VersionedStore.
type Store interface {
	// AddGradient accepts one gradient contribution for a hosted expert.
	// The payload slice is only valid for the duration of the call — the
	// transport recycles its backing buffer afterwards — so an
	// implementation that needs the bytes later must copy them.
	AddGradient(id ExpertID, payload []byte) error
}

// BytesReleaser is an optional extension of Store for stores that
// refcount the buffers ExpertBytesAt hands out. The server
// calls ReleaseExpertBytes exactly once per successfully answered pull,
// after the payload has been copied to the wire — the store may then
// recycle the buffer once its own references drop. Stores without this
// extension keep the old contract: returned bytes are retained
// indefinitely by nobody and garbage-collected.
type BytesReleaser interface {
	ReleaseExpertBytes(id ExpertID, b []byte)
}

// VersionedStore is an optional extension of Store for stores whose
// expert weights advance through numbered versions (the live trainer's
// double-buffered cache manager). ExpertBytesAt may block until the
// requested version is published — that wait is the pipeline's
// backpressure: a puller one step ahead parks server-side until the
// owner's merge for the previous step lands, instead of spinning or
// receiving torn weights. An implementation must unblock waiters (with
// an error) when it stops hosting the expert or shuts down. The server
// runs each request in its own goroutine, so a parked versioned pull
// never head-of-line blocks the connection.
type VersionedStore interface {
	Store
	ExpertBytesAt(id ExpertID, version uint64) ([]byte, error)
}

// versionedPullBytes is the payload of a msgPullV request: the wanted
// version as a big-endian uint64.
const versionedPullBytes = 8

// counterShards spreads the per-frame traffic counters across cache
// lines. Every frame on every connection bumps these, so a single
// atomic pair becomes a contended line once many connections share one
// Counters value; each connection instead picks a shard at birth and
// reads fold the shards. (The per-token pipeline counters get the same
// treatment in metrics — see metrics.Pipeline's batched adders.)
const counterShards = 8

type counterShard struct {
	sent, received atomic.Int64
	_              [48]byte // pad to a cache line
}

// Counters tracks wire traffic in bytes, usable concurrently. Writers
// add through a per-connection shard; readers sum the shards.
type Counters struct {
	shards [counterShards]counterShard
}

// counterSeq hands out shard indices to connections round-robin.
var counterSeq atomic.Uint32

func nextCounterShard() uint32 { return counterSeq.Add(1) % counterShards }

// Sent returns total payload+header bytes written.
func (c *Counters) Sent() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].sent.Load()
	}
	return n
}

// Received returns total payload+header bytes read.
func (c *Counters) Received() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].received.Load()
	}
	return n
}

func (c *Counters) addSent(shard uint32, n int)     { c.shards[shard].sent.Add(int64(n)) }
func (c *Counters) addReceived(shard uint32, n int) { c.shards[shard].received.Add(int64(n)) }

// gradDedupWindow bounds the server's memory of recently seen gradient
// request ids. A retransmit arriving after its id was evicted would be
// re-applied, so the window is sized far beyond any plausible number of
// in-flight-plus-retried gradients.
const gradDedupWindow = 4096

// gradTokenBytes prefixes every GRAD payload: 8 bytes of client id and
// 8 bytes of per-client sequence number. The token survives
// reconnection (unlike the per-connection request id), which is what
// makes a retried gradient safe: the server remembers the token and
// replays the original outcome instead of applying the payload twice.
const gradTokenBytes = 16

// gradEntry is the server's record of one gradient token: done closes
// when the first application finishes, err is its outcome. Entries are
// pooled: refs counts the dedup window's reference plus any duplicate
// waiters, so an entry returns to the freelist only after it has been
// evicted from the window AND every waiter has read the outcome —
// never while a late retransmission still holds a pointer to it.
// Completion is signalled on the server-wide gradCond instead of a
// per-entry channel: a closed channel cannot be reused, and the
// original per-push make(chan) was one heap allocation per gradient on
// the steady-state path.
type gradEntry struct {
	err  error
	done bool
	refs int32
}

// JoinHandler is the server's hook for admitting new machines. A JOIN
// frame (the only frame exempt from epoch fencing — a joiner has no
// epoch yet) carries the joiner's listen address; the handler decides
// admission (typically: only if this member's view holds quorum) and
// returns its membership epoch plus an encoded membership snapshot the
// joiner bootstraps from. Servers without a handler reject JOIN.
type JoinHandler interface {
	AdmitJoin(sender uint32, payload []byte) (epoch uint64, admit []byte, err error)
}

// MigrationSink is an optional extension of Store for stores that can
// stage a migrated expert's weights ahead of an ownership handoff. The
// payload (a checkpoint wire stream) is only valid for the duration of
// the call; implementations must copy what they keep.
type MigrationSink interface {
	AcceptMigration(id ExpertID, payload []byte) error
}

// ReplicationSink is an optional extension of Store for stores that can
// hold synchronously replicated copies of experts they do not own. The
// payload (an EncodeRepl stream: version + canonical expert bytes) is
// only valid for the duration of the call; implementations must copy
// what they keep, and must apply version streams monotonically so a
// delayed retransmission can never roll a replica backwards.
type ReplicationSink interface {
	AcceptReplica(id ExpertID, payload []byte) error
}

// ServingStore is an optional extension of Store for stores that can
// run inference micro-batches through a hosted (or in-sync replicated)
// expert. The payload is an EncodeServe stream — remaining deadline
// budget plus token rows — valid only for the duration of the call; the
// response is an EncodeServeOut stream (provenance + output rows) the
// transport writes to the wire and does not retain. A store must refuse
// (with an error wrapping ErrServeExpired's message) work whose budget
// has already expired on arrival rather than compute and discard it.
type ServingStore interface {
	ServeExpert(id ExpertID, payload []byte) ([]byte, error)
}

// EpochGate is the server's hook into a membership layer. When set,
// every request carrying an epoch older than Epoch() is rejected with
// a FENCED response instead of touching the store — a zombie ex-owner
// that missed a failover can therefore never merge stale gradients.
// MachineAlive feeds the readmission bit in PONG/FENCED responses so a
// fenced machine learns when the membership view has taken it back.
type EpochGate interface {
	Epoch() uint64
	MachineAlive(machine uint32) bool
}

// Server answers pull and gradient requests for the experts in a Store.
type Server struct {
	store Store

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	pulls    atomic.Int64
	grads    atomic.Int64
	gradDups atomic.Int64
	fenced   atomic.Int64
	gate     atomic.Value // EpochGate
	joiner   atomic.Value // JoinHandler
	Counters Counters

	gradMu    sync.Mutex
	gradCond  sync.Cond // completion signal for in-flight gradEntries
	gradSeen  map[[gradTokenBytes]byte]*gradEntry
	gradOrder [][gradTokenBytes]byte // FIFO ring once gradDedupWindow is reached
	gradHead  int                    // ring head: next slot to evict/overwrite
	gradFree  []*gradEntry           // recycled entries (see gradEntry)
}

// NewServer returns a server that will answer from store once started.
func NewServer(store Store) *Server {
	s := &Server{
		store:     store,
		conns:     make(map[net.Conn]struct{}),
		gradSeen:  make(map[[gradTokenBytes]byte]*gradEntry, gradDedupWindow),
		gradOrder: make([][gradTokenBytes]byte, 0, gradDedupWindow),
		gradFree:  make([]*gradEntry, gradDedupWindow),
	}
	s.gradCond.L = &s.gradMu
	// Pre-fill the freelist with one slab of entries. The dedup window
	// holds at most gradDedupWindow entries, and eviction recycles one
	// entry per insert once it is full, so this slab makes the
	// steady-state gradient path allocation-free from the first push —
	// without it, the freelist only starts paying off after the window
	// has turned over once.
	slab := make([]gradEntry, gradDedupWindow)
	for i := range slab {
		s.gradFree[i] = &slab[i]
	}
	return s
}

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port)
// and serving in background goroutines. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	return s.StartListener(ln)
}

// StartListener serves on an already-bound listener — the hook that
// lets a fault injector (or any other wrapper) sit between the server
// and the network. The server takes ownership of ln.
func (s *Server) StartListener(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("transport: server already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// PullsServed returns how many pull requests this server answered.
func (s *Server) PullsServed() int64 { return s.pulls.Load() }

// GradsAccepted returns how many gradient pushes this server accepted.
func (s *Server) GradsAccepted() int64 { return s.grads.Load() }

// GradsDeduped returns how many gradient retransmits the server
// recognised and answered without re-applying.
func (s *Server) GradsDeduped() int64 { return s.gradDups.Load() }

// SetEpochGate arms (or, with nil semantics unavailable, replaces)
// epoch fencing: requests older than the gate's epoch are rejected.
// Servers without a gate accept every epoch, which keeps the plain
// transport protocol unchanged.
func (s *Server) SetEpochGate(g EpochGate) { s.gate.Store(g) }

func (s *Server) epochGate() EpochGate {
	if g, ok := s.gate.Load().(EpochGate); ok {
		return g
	}
	return nil
}

// FencedRequests returns how many requests this server rejected for
// carrying a stale membership epoch.
func (s *Server) FencedRequests() int64 { return s.fenced.Load() }

// SetJoinHandler arms the JOIN admission path. Servers without a
// handler reject JOIN frames with an error.
func (s *Server) SetJoinHandler(h JoinHandler) { s.joiner.Store(h) }

func (s *Server) joinHandler() JoinHandler {
	if h, ok := s.joiner.Load().(JoinHandler); ok {
		return h
	}
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// pongFlags holds the two possible PONG/FENCED flag payloads as static
// storage, so the hot ping/fence answers never allocate.
var pongFlags = [2][1]byte{{0}, {pongFlagReadmitted}}

func pongFlagPayload(readmitted bool) []byte {
	if readmitted {
		return pongFlags[1][:]
	}
	return pongFlags[0][:]
}

// connTask is one request dispatched to a connection worker.
type connTask struct {
	f     frame
	epoch uint64
}

// connState is the per-connection serving state: the buffered writer
// with its group-commit flush window, and a grow-on-demand worker pool.
//
// Workers replace the old goroutine-per-request dispatch so the steady
// state spawns nothing: an idle worker is popped from the stack and fed
// the frame over its private channel. The pool must grow without bound
// on demand — versioned pulls park inside the store until the wanted
// version publishes, so a fixed-size pool would deadlock the pipeline's
// backpressure — but in steady state the population settles at the peak
// number of concurrently parked-plus-busy requests and is reused.
type connState struct {
	s     *Server
	conn  net.Conn
	w     *bufio.Writer
	wmu   sync.Mutex
	fg    flushGroup
	shard uint32
	rel   BytesReleaser // non-nil when the store refcounts pull payloads

	idleMu   sync.Mutex
	idle     []chan connTask
	done     chan struct{} // closed when the read loop exits
	handlers sync.WaitGroup
}

// respond serialises one response under the write lock, group-commit
// batching the flush with any concurrent responders on this connection.
func (cs *connState) respond(resp frame) {
	cs.fg.enter()
	cs.wmu.Lock()
	err := writeFrameBuffered(cs.w, resp)
	if cs.fg.exit() && err == nil {
		err = cs.w.Flush()
	}
	cs.wmu.Unlock()
	if err != nil {
		cs.conn.Close() // unblocks the read loop
		return
	}
	cs.s.Counters.addSent(cs.shard, 4+frameHeaderBytes+len(resp.payload))
}

// dispatch hands one request to an idle worker, spawning a new one only
// when none is parked.
func (cs *connState) dispatch(f frame, epoch uint64) {
	cs.idleMu.Lock()
	var ch chan connTask
	if n := len(cs.idle); n > 0 {
		ch = cs.idle[n-1]
		cs.idle = cs.idle[:n-1]
	}
	cs.idleMu.Unlock()
	if ch == nil {
		ch = make(chan connTask, 1)
		cs.handlers.Add(1)
		go cs.worker(ch)
	}
	ch <- connTask{f: f, epoch: epoch}
}

func (cs *connState) worker(ch chan connTask) {
	defer cs.handlers.Done()
	for {
		select {
		case t := <-ch:
			cs.handle(t.f, t.epoch)
			cs.idleMu.Lock()
			cs.idle = append(cs.idle, ch)
			cs.idleMu.Unlock()
		case <-cs.done:
			return
		}
	}
}

// handle serves one dispatched request. It runs on a pool worker, so a
// slow store lookup (or a parked versioned pull) cannot head-of-line
// block the pipelined connection; the client matches responses by
// request id, so ordering is free to vary.
func (cs *connState) handle(f frame, epoch uint64) {
	s := cs.s
	switch f.typ {
	case msgPullV:
		version := binary.BigEndian.Uint64(f.payload[:versionedPullBytes])
		f.recycle()
		vs, ok := s.store.(VersionedStore)
		if !ok {
			cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte("transport: store is not versioned")})
			return
		}
		payload, err := vs.ExpertBytesAt(f.id, version)
		if err != nil {
			cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte(err.Error())})
			return
		}
		cs.respond(frame{typ: msgExpert, reqID: f.reqID, epoch: epoch, id: f.id, payload: payload})
		if cs.rel != nil {
			cs.rel.ReleaseExpertBytes(f.id, payload)
		}
	case msgGrad:
		err := s.applyGradient(f)
		// The store has consumed (or rejected) the payload and may not
		// retain it, so the read buffer can go back.
		f.recycle()
		if err != nil {
			cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte(err.Error())})
			return
		}
		cs.respond(frame{typ: msgGradAck, reqID: f.reqID, epoch: epoch, id: f.id})
	case msgJoin:
		h := s.joinHandler()
		viewEpoch, admit, err := h.AdmitJoin(f.sender, f.payload)
		f.recycle()
		if err != nil {
			cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, payload: []byte(err.Error())})
			return
		}
		cs.respond(frame{typ: msgAdmit, reqID: f.reqID, epoch: viewEpoch, payload: admit})
	case msgMigrate:
		sink := s.store.(MigrationSink)
		err := sink.AcceptMigration(f.id, f.payload)
		f.recycle()
		if err != nil {
			cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte(err.Error())})
			return
		}
		cs.respond(frame{typ: msgMigrateAck, reqID: f.reqID, epoch: epoch, id: f.id})
	case msgRepl:
		sink := s.store.(ReplicationSink)
		err := sink.AcceptReplica(f.id, f.payload)
		f.recycle()
		if err != nil {
			cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte(err.Error())})
			return
		}
		cs.respond(frame{typ: msgReplAck, reqID: f.reqID, epoch: epoch, id: f.id})
	case msgServe:
		sv := s.store.(ServingStore)
		out, err := sv.ServeExpert(f.id, f.payload)
		f.recycle()
		if err != nil {
			cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte(err.Error())})
			return
		}
		cs.respond(frame{typ: msgServeOut, reqID: f.reqID, epoch: epoch, id: f.id, payload: out})
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cs := &connState{
		s:     s,
		conn:  conn,
		w:     bufio.NewWriterSize(conn, 1<<16),
		shard: nextCounterShard(),
		done:  make(chan struct{}),
	}
	cs.rel, _ = s.store.(BytesReleaser)
	r := bufio.NewReaderSize(conn, 1<<16)
	defer cs.handlers.Wait()
	defer close(cs.done)

	for {
		f, err := readFrame(r)
		if err != nil {
			return
		}
		s.Counters.addReceived(cs.shard, 4+frameHeaderBytes+len(f.payload))

		// Epoch fence: a request stamped with a membership epoch older
		// than the gate's is answered FENCED before it can touch the
		// store. The response carries the server's epoch plus the
		// readmission bit, so a healed ex-member can catch up.
		// JOIN is exempt: a joiner bootstraps with epoch 0 by definition,
		// so fencing it would make admission impossible.
		gate := s.epochGate()
		var epoch uint64
		if gate != nil {
			epoch = gate.Epoch()
			if f.epoch < epoch && f.typ != msgJoin {
				s.fenced.Add(1)
				readmitted := gate.MachineAlive(f.sender)
				f.recycle()
				cs.respond(frame{typ: msgFenced, reqID: f.reqID, epoch: epoch, id: f.id, payload: pongFlagPayload(readmitted)})
				continue
			}
		}
		switch f.typ {
		case msgPullV:
			s.pulls.Add(1)
			if len(f.payload) < versionedPullBytes {
				f.recycle()
				cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte("transport: short versioned pull")})
				continue
			}
			cs.dispatch(f, epoch)
		case msgGrad:
			cs.dispatch(f, epoch)
		case msgJoin:
			if s.joinHandler() == nil {
				f.recycle()
				cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, payload: []byte("transport: join not supported here")})
				continue
			}
			cs.dispatch(f, epoch)
		case msgMigrate:
			if _, ok := s.store.(MigrationSink); !ok {
				f.recycle()
				cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte("transport: store cannot stage migrations")})
				continue
			}
			cs.dispatch(f, epoch)
		case msgRepl:
			if _, ok := s.store.(ReplicationSink); !ok {
				f.recycle()
				cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte("transport: store cannot hold replicas")})
				continue
			}
			cs.dispatch(f, epoch)
		case msgServe:
			if _, ok := s.store.(ServingStore); !ok {
				f.recycle()
				cs.respond(frame{typ: msgError, reqID: f.reqID, epoch: epoch, id: f.id, payload: []byte("transport: store cannot serve inference")})
				continue
			}
			cs.dispatch(f, epoch)
		case msgPing:
			// Heartbeats piggyback on the data connection and never
			// touch the store; answer inline so liveness is observed
			// even while store handlers are busy. The PONG carries the
			// server's epoch and whether it considers the prober alive.
			readmitted := gate == nil || gate.MachineAlive(f.sender)
			cs.respond(frame{typ: msgPong, reqID: f.reqID, epoch: epoch, payload: pongFlagPayload(readmitted)})
		default:
			return // protocol violation: drop the connection
		}
	}
}

// applyGradient applies one GRAD frame exactly once. The payload
// starts with a 16-byte retransmission token; a token seen before is
// answered with the original outcome (waiting for it if the first
// application is still in flight) without touching the store.
func (s *Server) applyGradient(f frame) error {
	if len(f.payload) < gradTokenBytes {
		return fmt.Errorf("transport: gradient frame missing %d-byte token", gradTokenBytes)
	}
	var key [gradTokenBytes]byte
	copy(key[:], f.payload[:gradTokenBytes])

	s.gradMu.Lock()
	if e, ok := s.gradSeen[key]; ok {
		s.gradDups.Add(1)
		e.refs++
		for !e.done {
			s.gradCond.Wait()
		}
		err := e.err
		s.gradUnrefLocked(e)
		s.gradMu.Unlock()
		return err
	}
	e := s.gradEntryLocked()
	s.gradSeen[key] = e
	if len(s.gradOrder) < gradDedupWindow {
		s.gradOrder = append(s.gradOrder, key)
	} else {
		// The window is full: evict the oldest token in place. The ring
		// overwrite (rather than gradOrder[1:] plus append) keeps the
		// backing array fixed — front-slicing made every subsequent
		// append reallocate the whole window.
		old := s.gradOrder[s.gradHead]
		if oe, ok := s.gradSeen[old]; ok {
			delete(s.gradSeen, old)
			s.gradUnrefLocked(oe)
		}
		s.gradOrder[s.gradHead] = key
		s.gradHead++
		if s.gradHead == gradDedupWindow {
			s.gradHead = 0
		}
	}
	s.gradMu.Unlock()

	err := s.store.AddGradient(f.id, f.payload[gradTokenBytes:])
	if err == nil {
		s.grads.Add(1)
	}
	s.gradMu.Lock()
	e.err = err
	e.done = true
	if e.refs == 0 {
		// Already evicted with no waiters: recycle now. (Possible only
		// if the window turned over entirely while AddGradient ran.)
		s.gradFree = append(s.gradFree, e)
	} else {
		s.gradCond.Broadcast()
	}
	s.gradMu.Unlock()
	return err
}

// gradEntryLocked returns a fresh in-flight entry, reusing a recycled
// one when available. refs starts at 1: the dedup window's reference.
func (s *Server) gradEntryLocked() *gradEntry {
	if n := len(s.gradFree); n > 0 {
		e := s.gradFree[n-1]
		s.gradFree = s.gradFree[:n-1]
		e.err, e.done, e.refs = nil, false, 1
		return e
	}
	return &gradEntry{refs: 1}
}

// gradUnrefLocked drops one reference (a departing waiter or the
// window eviction) and recycles the entry once nothing can touch it.
func (s *Server) gradUnrefLocked(e *gradEntry) {
	e.refs--
	if e.refs == 0 && e.done {
		s.gradFree = append(s.gradFree, e)
	}
}

// Close stops the listener and all connections, waiting for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
