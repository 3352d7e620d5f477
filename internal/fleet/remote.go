package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

// This file is the networked half of the fleet: where device.go builds
// devices whose SUO is simulated in-process, here the SUO is a remote
// process on the other end of a socket (paper Fig. 2, multiplied by the
// fleet). A Server accepts many concurrent SUO connections, performs the
// wire Hello handshake (negotiating the JSON or binary codec per
// connection), registers each connection as a device in the sharded Pool,
// routes decoded observation frames through the same FNV shard dispatch as
// local traffic, and pushes control and error frames back down the
// connection. A disconnect — clean or not — removes the device and frees
// its shard slot while the rest of the fleet keeps streaming.

// MonitorFactory builds the monitor-side state for one remote SUO: a fresh
// virtual clock and a monitor executing the specification model the device
// is judged against. It runs on the owning shard's goroutine. The returned
// monitor must already be started.
type MonitorFactory func(id string, seed int64) (*sim.Kernel, *core.Monitor, error)

// LightMonitorFactory is the remote counterpart of LightFactory: the same
// one-state spec model tracking the commanded level "x", with no simulated
// SUO attached — the real SUO is on the other end of the connection. Cheap
// enough that one daemon hosts very large fleets.
func LightMonitorFactory() MonitorFactory {
	return func(id string, seed int64) (*sim.Kernel, *core.Monitor, error) {
		k := sim.NewKernel(seed)
		mon, err := lightMonitor(id, k)
		if err != nil {
			return nil, nil, err
		}
		return k, mon, nil
	}
}

// RemoteDevice builds a connection-backed Device: events fed to it advance
// the device's virtual clock to the event timestamp (firing model timers,
// silence sweeps and time-based comparison exactly as in-process monitoring
// would) and are routed into the monitor's observers. Error reports the
// monitor raises are pushed down the connection as TypeError frames,
// best-effort: a broken error channel must not stop detection. send is
// called from shard goroutines and must be safe for concurrent use
// (wire.Encoder is).
func RemoteDevice(id string, k *sim.Kernel, mon *core.Monitor, send func(wire.Message) error) *Device {
	// The sink is swappable: a device rebuilt by journal replay starts with
	// a discarding sender and is re-pointed at the live connection when its
	// client reconnects (Pool.AttachDevice).
	var sendMu sync.Mutex
	cur := send
	mon.OnError(func(r wire.ErrorReport) {
		sendMu.Lock()
		send := cur
		sendMu.Unlock()
		_ = send(wire.Message{Type: wire.TypeError, SUO: id, Error: &r, At: r.At})
	})
	d := &Device{ID: id, Kernel: k, Monitor: mon, Close: mon.Stop}
	d.Attach = func(s func(wire.Message) error) {
		sendMu.Lock()
		cur = s
		sendMu.Unlock()
	}
	d.Feed = func(e event.Event) {
		if e.At > k.Now() {
			k.Run(e.At)
		}
		switch e.Kind {
		case event.Input:
			mon.HandleInput(e)
		case event.Output, event.State:
			mon.HandleOutput(e)
		}
	}
	return d
}

// ServerStats counts connection lifecycle events. All fields are cumulative.
type ServerStats struct {
	Accepted     uint64 // connections that completed the Hello handshake
	Rejected     uint64 // connections dropped before registration (bad hello, duplicate ID, ...)
	Disconnected uint64 // registered devices whose connection ended (clean or not)
	Frames       uint64 // observation frames dispatched into the pool
	// CreditViolations counts connections disconnected for streaming past
	// an exhausted credit window — hostile or badly broken peers; a
	// compliant client can never trip it (the server's balance is always
	// at least the client's).
	CreditViolations uint64
	// CreditGrants counts mid-stream TypeCredit replenishment frames sent
	// (heartbeat-echo grants are not counted — every echo is one).
	CreditGrants uint64
}

// Server turns a Pool into a network ingestion daemon. Configure the
// exported fields before calling Serve; they must not change afterwards.
type Server struct {
	// Pool receives one device per accepted connection. Required.
	Pool *Pool
	// Factory builds each remote device's monitor-side state. Required.
	Factory MonitorFactory
	// HelloTimeout bounds how long a new connection may take to complete
	// the handshake before it is dropped (0: no limit). Connected devices
	// are never timed out for read silence — silence detection is the
	// monitor's job (Observable.MaxSilence), not the transport's.
	HelloTimeout time.Duration
	// WriteTimeout bounds every frame written to a client (default 10s).
	// Error and control pushes run on shard goroutines; a client that
	// stops reading until its socket buffer fills must stall only itself,
	// so a timed-out write closes that connection.
	WriteTimeout time.Duration
	// MaxAdvance bounds how far a single frame — an observation's event
	// time or a heartbeat's At — may move its device's virtual clock
	// forward (default DefaultMaxAdvance). Virtual time is client-supplied
	// and advancing a clock replays every periodic monitor timer (silence
	// sweeps, comparison windows, ~10ms period) along the way, so an
	// unbounded advance — one hostile or buggy frame carrying At =
	// MaxInt64 — would wedge the device's whole shard stepping timers
	// through years of virtual time. A frame further than MaxAdvance ahead
	// of the device's clock is a protocol violation: the connection is
	// closed and the device removed, like any other malformed traffic.
	MaxAdvance sim.Time
	// OnAck, when non-nil, receives every TypeAck frame a device sends back
	// after honoring a control command, tagged with the handshaken device ID
	// (not the spoofable SUO field). The recovery controller hooks here to
	// learn that its pushes were actuated. It runs on the connection's read
	// goroutine and must not block.
	OnAck func(id string, m wire.Message)
	// OnSnapshot, when non-nil, receives every TypeSnapshot frame a device
	// sends — its coverage evidence answering a RequestSnapshot pull —
	// tagged with the handshaken device ID. The fleet diagnosis plane
	// (internal/diagnose) hooks here. Like OnAck it runs on the
	// connection's read goroutine and must not block; snapshot frames are
	// not journaled by the server — the diagnosis engine journals the
	// evidence it accepts, labeled, write-ahead of folding it.
	OnSnapshot func(id string, m wire.Message)
	// OnSpectrumDelta, when non-nil, receives every TypeSpectrumDelta frame
	// a device sends — the continuous coverage window it piggybacks on its
	// heartbeat cadence — tagged with the handshaken device ID. The
	// continuous diagnosis plane hooks here. Like OnSnapshot it runs on the
	// connection's read goroutine and must not block; delta frames are not
	// journaled by the server — the diagnosis engine journals the deltas it
	// accepts, labeled, write-ahead of folding them. Deltas shed with the
	// observations tier (ShedObservationsAt): one lost delta costs the
	// diagnosis plane a coverage window, never control.
	OnSpectrumDelta func(id string, m wire.Message)
	// Journal, when non-nil, receives every accepted frame — observations
	// and heartbeats, after validation and the MaxAdvance vetting — tagged
	// with the registered device ID and the frame's virtual time.
	// Appends are write-ahead: a frame's pool effect (dispatch, clock
	// advance, shed counters) is enqueued only under its record's stream
	// lock (see TieredJournal), so a journal-backed pool can be rebuilt
	// losslessly after a crash (Pool.Replay), and on a fsync-class
	// connection a heartbeat echo also acknowledges durability. A failed
	// append closes the connection — frames that cannot be journaled are
	// not ingested. Journaling also changes disconnect semantics: the device
	// stays in the pool (with its error sink detached) instead of being
	// removed, matching the continuous per-device lifetime its journal
	// records, and the next connection for the ID adopts it.
	// *journal.Writer and *journal.Sharded implement this interface.
	Journal TieredJournal
	// GrantDurability, when non-nil, vets each connection's requested ack
	// class (hello.Durability, already normalised) and returns the class to
	// grant — e.g. fsync for critical device classes, dispatch for the long
	// tail. Nil grants whatever the client asked for. A dispatch-class
	// connection's appends return without waiting for their fsync.
	GrantDurability func(hello wire.Message) wire.Durability
	// CreditWindow, when positive, enables credit-based flow control: the
	// Hello reply grants each connection this many frame credits, every
	// observation frame consumes one, and the server replenishes consumed
	// credits with delta grants — always on the heartbeat echo, and
	// mid-stream (a TypeCredit frame) once the window is half spent while
	// the device's shard queue is shallow. Under pressure no mid-stream
	// grant is sent, so a compliant flooder degrades into heartbeat-paced
	// request/response instead of swamping the shard; a peer that streams
	// past an exhausted window is disconnected with an error frame. All
	// accounting runs on the connection's read goroutine — grants are
	// deltas, not absolute resets, so in-flight frames cannot desynchronise
	// the two sides (server balance ≥ client balance, always). Zero
	// disables flow control: no credits are granted and none are checked.
	CreditWindow int
	// ShedObservationsAt and ShedHeartbeatsAt, when positive, enable the
	// load-shedding tiers: a frame arriving while the fill fraction of its
	// device's shard queue is at or above the threshold is dropped before
	// dispatch, counted in the pool's Stats and journaled as an aggregated
	// shed-marker record (so replay stays exact without the refused
	// frames). Observations shed first — one lost sample costs the monitor
	// little — so ShedObservationsAt is the lower threshold (0.75 and 0.95
	// are the traderd defaults); a shed heartbeat skips advance, flush and
	// echo, pausing a compliant client entirely, and is reserved for
	// near-saturation. Control, ack and snapshot traffic — the recovery and
	// diagnosis planes — is never shed: it is the traffic that gets a
	// degraded fleet healthy again, and it bypasses the dispatch queue's
	// pressure anyway. Zero disables the tier.
	ShedObservationsAt float64
	ShedHeartbeatsAt   float64
	// Tracer, when non-nil, enables the frame-lifecycle tracing plane
	// (§6.2): one in Tracer's SampleN observation frames is traced from
	// decode through monitor step (give the Pool the same tracer so the
	// dispatch side records its half), every control push is traced forced
	// and carries its context on the wire, and a device's ack — echoing
	// that context back — closes the exchange as a forced ack span.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives connection lifecycle log lines.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	conns   map[string]*remoteConn // registered devices, by ID
	pending map[net.Conn]struct{}  // accepted, not yet registered
	closed  bool

	accepted         atomic.Uint64
	rejected         atomic.Uint64
	disconnected     atomic.Uint64
	frames           atomic.Uint64
	creditViolations atomic.Uint64
	creditGrants     atomic.Uint64
}

// replenishPressure gates mid-stream credit grants: below this shard-queue
// fill fraction the server tops a half-spent window back up without waiting
// for the next heartbeat; at or above it the client must earn replenishment
// through a heartbeat (whose flush barrier drains its own backlog first).
const replenishPressure = 0.5

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("fleet: server closed")

// FrameJournal is the durable record sink of the control, diagnosis and
// federation planes. Append must be safe for concurrent use and must not
// retain the message. journal.Writer is the production implementation.
type FrameJournal interface {
	Append(wire.Message) error
}

// TieredJournal is the ingestion server's journal: FrameJournal plus
// AppendThen, which accepts a record without waiting for its fsync when
// sync is false (the ack-on-dispatch class), and runs then() under the
// record's stream lock — the server enqueues the frame's pool effect there,
// so a checkpoint freezing the stream observes either both the record and
// its effect or neither, never a truncated record whose effect is missing
// from the snapshot. Both *journal.Writer and *journal.Sharded implement it.
type TieredJournal interface {
	FrameJournal
	AppendThen(m wire.Message, sync bool, then func()) error
}

// DefaultMaxAdvance is the per-frame virtual-time advance window when
// Server.MaxAdvance is zero: generous next to real heartbeat cadences
// (seconds), but small enough that replaying the window's periodic monitor
// timers stays a bounded, sub-second amount of shard work.
const DefaultMaxAdvance = 300 * sim.Second

// remoteConn is one client connection with deadline-guarded writes. Writes
// happen from shard goroutines (error pushes) and the connection's handler
// (echoes, control), so every send arms a fresh write deadline first; a
// send that fails poisons the connection, which unwinds the read loop and
// removes the device.
type remoteConn struct {
	nc      net.Conn
	wc      *wire.Conn
	timeout time.Duration
	// ready flips once the Hello reply is on the wire and the negotiated
	// codec is in effect. The connection is visible in Server.conns from
	// reservation — before the reply — so cross-goroutine pushes (Control,
	// Close's CtrlStop) must check ready first: a frame written ahead of
	// the Hello reply, or between the reply and the codec switch, would
	// corrupt the client's handshake.
	ready atomic.Bool
	// closed latches once the connection is being torn down — by a failed
	// send, the read loop unwinding, Disconnect, or Close. Sends racing the
	// teardown (controller pushes, Close's CtrlStop broadcast) then fail
	// fast with net.ErrClosed instead of arming write deadlines on, and
	// writing into, a socket another goroutine is closing.
	closed atomic.Bool
}

func (c *remoteConn) send(m wire.Message) error {
	if c.closed.Load() {
		return fmt.Errorf("fleet: send: %w", net.ErrClosed)
	}
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	err := c.wc.Encode(m)
	if err != nil {
		// A stalled or broken peer must not stall a shard twice.
		c.closed.Store(true)
		_ = c.nc.Close()
	}
	return err
}

// Stats snapshots the connection counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:         s.accepted.Load(),
		Rejected:         s.rejected.Load(),
		Disconnected:     s.disconnected.Load(),
		Frames:           s.frames.Load(),
		CreditViolations: s.creditViolations.Load(),
		CreditGrants:     s.creditGrants.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts SUO connections on ln until ln fails or Close is called,
// handling each connection on its own goroutine. Multiple Serve calls (one
// per listener — e.g. a Unix socket and a TCP port) may run concurrently
// against the same Server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[string]*remoteConn)
		s.pending = make(map[net.Conn]struct{})
	}
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrServerClosed
	}
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			// A transient failure under load (EMFILE, ECONNABORTED) must
			// not take down the daemon and every connected device: back
			// off and retry, net/http style. Only persistent listener
			// failures end Serve.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.logf("fleet: accept: %v; retrying in %v", err, backoff)
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("fleet: accept: %w", err)
		}
		backoff = 0
		go s.serveConn(conn)
	}
}

// Close stops accepting registrations and closes every connection; in-flight
// handlers then unwind, removing their devices from the pool. The listeners
// passed to Serve are the caller's to close (Serve returns once they are).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]*remoteConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	pending := make([]net.Conn, 0, len(s.pending))
	for c := range s.pending {
		pending = append(pending, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		// Best-effort stop: tell the SUO the monitor is going away.
		// Mid-handshake connections just get closed — their client is
		// still expecting the Hello reply, not a control frame.
		if c.ready.Load() {
			_ = c.send(wire.Message{Type: wire.TypeControl, Control: wire.CtrlStop})
		}
		c.closed.Store(true)
		_ = c.nc.Close()
	}
	for _, c := range pending {
		_ = c.Close()
	}
}

// readyConn returns device id's connection once its Hello reply is on the
// wire (see remoteConn.ready); a mid-handshake connection is not connected.
func (s *Server) readyConn(id string) (*remoteConn, error) {
	s.mu.Lock()
	c := s.conns[id]
	s.mu.Unlock()
	if c == nil || !c.ready.Load() {
		return nil, fmt.Errorf("fleet: no connected device %q", id)
	}
	return c, nil
}

// Control pushes a control command down one registered device's connection.
// With a Tracer attached the push is traced forced — never sampled away —
// and the frame carries the trace context, so the device's ack echoes it
// back and the round trip closes as control span → ack span.
func (s *Server) Control(id string, cmd wire.ControlCommand) error {
	c, err := s.readyConn(id)
	if err != nil {
		return err
	}
	m := wire.Message{Type: wire.TypeControl, SUO: id, Control: cmd}
	if s.Tracer != nil {
		// The control span marks the push instant (the ack span carries the
		// round trip's duration); its child context rides the wire so the
		// ack parents under it.
		ctx := s.Tracer.Span(s.Tracer.Force(), trace.KindControl, -1, id, time.Now(), 0, true)
		m.Trace = ctx.Wire()
	}
	return c.send(m)
}

// RequestSnapshot asks one registered device for its coverage spectrum: a
// TypeSnapshotReq push down the device's connection. The device answers
// with a TypeSnapshot frame, delivered through OnSnapshot. Like any control
// push, delivery is not guaranteed — the diagnosis plane tolerates devices
// that never answer.
func (s *Server) RequestSnapshot(id string) error {
	c, err := s.readyConn(id)
	if err != nil {
		return err
	}
	return c.send(wire.Message{Type: wire.TypeSnapshotReq, SUO: id})
}

// Disconnect closes one registered device's connection — the quarantine
// escalation's final act. The connection's read loop unwinds exactly as for
// a client-initiated disconnect: the device is removed from the pool (or, in
// journal mode, kept with its error sink detached). A connection still in
// its handshake is not connected yet; if its device is quarantined, its own
// admission re-serves the verdict and ends it.
func (s *Server) Disconnect(id string) error {
	c, err := s.readyConn(id)
	if err != nil {
		return err
	}
	c.closed.Store(true)
	return c.nc.Close()
}

// SeedOf derives a deterministic per-device seed from the device ID, so a
// reconnecting device gets the same monitor behaviour each time — and so a
// journal replay (which sees only device IDs) rebuilds each monitor with
// exactly the seed the live server gave it.
func SeedOf(id string) int64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	return int64(h.Sum64()&(1<<63-1)) + 1
}

// reserve claims the device ID for rc, or explains why not (server
// draining, ID already connected). It runs before the Hello reply is sent,
// so a refusal reaches the client as the handshake reply. release undoes
// the claim.
func (s *Server) reserve(id string, rc *remoteConn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if _, dup := s.conns[id]; dup {
		return fmt.Errorf("fleet: device %q already connected", id)
	}
	s.conns[id] = rc
	return nil
}

func (s *Server) release(id string) {
	s.mu.Lock()
	delete(s.conns, id)
	s.mu.Unlock()
}

// session is one registered connection's ingest state, owned by the
// connection's read goroutine (only rc is shared: shard goroutines push
// error frames through it).
type session struct {
	s  *Server
	id string
	rc *remoteConn
	sh *shard // the shard the device routes to
	// sync is the journal sync flag of this connection's appends: false on
	// a dispatch-class connection, whose appends do not wait for the fsync.
	sync   bool
	maxAdv sim.Time
	// clock shadows the device's virtual time as driven by this connection
	// — the only source of time for a remote device — so client-supplied
	// timestamps are vetted here, before they reach the shard (see advance).
	clock sim.Time
	// window is the granted credit window (0: flow control off), credits
	// the server-side balance of it. Grants are deltas, so server balance −
	// client balance is the frames and grants in flight, never negative
	// for a compliant peer (see CreditWindow).
	window, credits int
	// pendingShed accumulates this connection's shed frames until the next
	// marker flush (heartbeat or teardown); one aggregated journal record
	// per window keeps shedding from writing the journal it is shedding to
	// protect.
	pendingShed wire.ShedRecord
}

// serveConn owns one connection: admission, the read loop, teardown. Any
// protocol violation — garbage bytes, an oversized frame, an unknown codec
// construct — ends this connection and removes this device only; the daemon
// and every other connection keep running.
func (s *Server) serveConn(conn net.Conn) {
	ss := s.admit(conn)
	if ss == nil {
		return
	}
	defer ss.close()
	for {
		msg, err := ss.rc.wc.Decode()
		if err != nil {
			if err != io.EOF {
				s.logf("fleet: device %q: %v", ss.id, err)
			}
			return
		}
		// ingest is the frame's decode instant, the start of the interval
		// the latency SLO is stated over (the shard records its end).
		if !ss.ingest(msg, time.Now()) {
			return
		}
	}
}

// refuse drops a connection that never registered, counting and logging why.
func (s *Server) refuse(conn net.Conn, format string, args ...any) *session {
	s.rejected.Add(1)
	s.logf("fleet: %s: %s", conn.RemoteAddr(), fmt.Sprintf(format, args...))
	conn.Close()
	return nil
}

// admit runs one connection's admission: the Hello handshake, the ID
// reservation, the durability and credit grants, and the pool add or
// adoption. It returns the registered session, or nil once the connection
// is refused and closed — or, for a quarantined device's reconnect,
// re-served its verdict and torn down.
func (s *Server) admit(conn net.Conn) *session {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return nil
	}
	s.pending[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, conn)
		s.mu.Unlock()
	}()

	timeout := s.WriteTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	wc := wire.NewConn(conn)
	rc := &remoteConn{nc: conn, wc: wc, timeout: timeout}
	if s.HelloTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.HelloTimeout))
	}
	hello, err := wc.ReadHello()
	if err != nil {
		return s.refuse(conn, "handshake failed: %v", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	id := hello.SUO

	// Vet the registration BEFORE replying: a refused client must see the
	// rejection as its handshake reply (a TypeError frame, still JSON — no
	// codec switch has happened), so its Dial fails synchronously instead
	// of reporting success for a connection the server is about to drop.
	if id == "" {
		err = errors.New("hello frame carries no SUO device ID")
	} else {
		err = s.reserve(id, rc)
	}
	if err != nil {
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
		_ = wc.RejectHello(id, err.Error())
		return s.refuse(conn, "rejected %q: %s", id, err)
	}
	ss := &session{s: s, id: id, rc: rc, sh: s.Pool.shards[s.Pool.ShardOf(id)],
		maxAdv: s.MaxAdvance, window: max(s.CreditWindow, 0)}
	if ss.maxAdv <= 0 {
		ss.maxAdv = DefaultMaxAdvance
	}
	ss.credits = ss.window
	// Durability negotiation: normalise the request (unknown classes vet
	// back to fsync), let the operator's policy override it, and echo the
	// granted class in the Hello reply so the client knows what a heartbeat
	// echo will mean on this connection. Flow-control negotiation: the
	// window is the server's to grant, never the client's to request, so
	// whatever the client put in the field is overwritten.
	hello.Durability, _ = wire.DurabilityByName(string(hello.Durability))
	if s.GrantDurability != nil {
		hello.Durability, _ = wire.DurabilityByName(string(s.GrantDurability(hello)))
	}
	ss.sync = hello.Durability != wire.DurDispatch
	hello.Credits = uint32(ss.window)
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	codec, err := wc.ReplyHello(hello)
	if err != nil {
		s.release(id)
		return s.refuse(conn, "hello reply to %q failed: %v", id, err)
	}
	rc.ready.Store(true)

	// Pool admission can still fail after the reply (factory error, pool
	// stopping) — a server-side condition the client learns about through
	// a post-handshake error frame and a close.
	resumeAt, adopted, err := s.addOrAdopt(id, rc)
	if err != nil {
		s.release(id)
		s.rejected.Add(1)
		ss.violation(err.Error())
		conn.Close()
		return nil
	}
	// An adopted connection anchors the advance window at the recovered
	// device's virtual time, not zero: the client resumes with timestamps
	// at or beyond its last acknowledged heartbeat, which on a fleet older
	// than MaxAdvance would otherwise read as a runaway jump and get the
	// reconnect refused forever.
	ss.clock = resumeAt
	s.accepted.Add(1)
	how := "connected"
	if adopted {
		how = "reconnected to recovered device"
	}
	s.logf("fleet: %s: device %q %s (codec %s, durability %s), fleet size %d",
		conn.RemoteAddr(), id, how, codec.Name(), hello.Durability, s.Pool.Size())

	// A quarantined device's reconnect must not resurrect its service: the
	// recovery controller retired it, and the CtrlQuarantine push that told
	// it so can be lost when quarantine races the device's own restart
	// re-handshake (the client is between connections). Re-deliver the
	// verdict as the first frame of the new connection and end it — the
	// quarantine flag on the adopted device is the durable truth.
	if adopted {
		if q, err := s.Pool.Quarantined(id); err == nil && q {
			s.logf("fleet: device %q reconnected while quarantined; refusing service", id)
			_ = rc.send(wire.Message{Type: wire.TypeControl, SUO: id, Control: wire.CtrlQuarantine})
			ss.close()
			return nil
		}
	}
	return ss
}

// addOrAdopt adds id's device to the pool, or adopts the device journal
// recovery rebuilt for it, returning the adopted device's virtual time.
func (s *Server) addOrAdopt(id string, rc *remoteConn) (resumeAt sim.Time, adopted bool, err error) {
	err = s.Pool.AddRemoteDevice(id, s.Factory, rc.send)
	if !errors.Is(err, ErrDuplicateDevice) {
		return 0, false, err
	}
	// The pool holds this ID but no connection does (a genuine duplicate
	// connection was refused at reserve, before the Hello reply): the device
	// was rebuilt by journal recovery and its monitor state — clocks,
	// counters, fault history — must survive the reconnect. Adopt it: point
	// its error pushes at this connection and resume.
	resumeAt, ok, err := s.Pool.AttachDevice(id, rc.send)
	if err == nil && !ok {
		err = fmt.Errorf("fleet: device %q exists but cannot be adopted", id)
	}
	return resumeAt, err == nil, err
}

// close tears the session down. The connection latches closed first, so a
// controller push racing the unwind fails fast instead of writing into the
// dying socket, and the final shed marker is flushed while the device is
// still attached.
func (ss *session) close() {
	s, id := ss.s, ss.id
	ss.rc.closed.Store(true)
	_ = ss.flushShed()
	if s.Journal != nil {
		// A journal-backed fleet keeps the device across disconnects: its
		// history is durable and a later boot would rebuild it via replay
		// anyway, so removing it live would only make the live pool diverge
		// from its own journal (and re-anchor a resuming client's advance
		// window at zero, refusing any resume beyond MaxAdvance). Detach
		// the error sink; the next connection for this ID adopts the device
		// and resumes its timeline.
		_, _, _ = s.Pool.AttachDevice(id, func(wire.Message) error { return nil })
	} else {
		// Shard first, conns map second: RemoveDevice blocks until the
		// shard has dropped the device, so once the ID is reservable again
		// an immediate reconnect's AddDevice cannot collide with the stale
		// entry (§2.4 allows instant reconnects).
		_, _ = s.Pool.RemoveDevice(id)
	}
	s.release(id)
	s.disconnected.Add(1)
	_ = ss.rc.nc.Close()
	s.logf("fleet: device %q disconnected, fleet size %d", id, s.Pool.Size())
}

// violation answers a protocol violation: an ingest error frame stamped
// with the session clock, then a log line. It returns false, which ends
// the connection.
func (ss *session) violation(detail string) bool {
	rep := wire.ErrorReport{Detector: "ingest", At: ss.clock, Detail: detail}
	_ = ss.rc.send(wire.Message{Type: wire.TypeError, SUO: ss.id, Error: &rep, At: ss.clock})
	ss.s.logf("fleet: device %q: %s", ss.id, detail)
	return false
}

// advance moves the session clock to at, or answers a frame beyond the
// MaxAdvance window as a protocol violation (see Server.MaxAdvance).
func (ss *session) advance(at sim.Time) bool {
	// at-clock, not clock+maxAdv: the sum overflows when an operator sets
	// a huge window to effectively disable the bound. clock only ever holds
	// an accepted at > clock ≥ 0, so the difference is safe.
	if at > ss.clock && at-ss.clock > ss.maxAdv {
		return ss.violation(fmt.Sprintf("frame time %s is beyond the %s advance window (device clock %s)",
			at, ss.maxAdv, ss.clock))
	}
	if at > ss.clock {
		ss.clock = at
	}
	return true
}

// appendThen journals m write-ahead of then, its pool effect, which runs
// under the record's stream lock (see TieredJournal); with no journal it
// just runs then. A failed append is logged and ends the connection.
func (ss *session) appendThen(m wire.Message, then func()) bool {
	if ss.s.Journal == nil {
		then()
		return true
	}
	if err := ss.s.Journal.AppendThen(m, ss.sync, then); err != nil {
		ss.s.logf("fleet: device %q: journal: %v", ss.id, err)
		return false
	}
	return true
}

// shed reports whether a frame of the given tier is refused because its
// shard queue's fill is at or above threshold (0 disables the tier). A
// journal-less server counts the shed at once; otherwise it waits in the
// pending marker until flushShed journals it.
func (ss *session) shed(threshold float64, tier wire.ShedRecord) bool {
	if threshold <= 0 || ss.sh.pressure() < threshold {
		return false
	}
	if ss.s.Journal == nil {
		ss.s.Pool.AddShed(ss.id, tier)
		return true
	}
	ss.pendingShed.Observations += tier.Observations
	ss.pendingShed.Heartbeats += tier.Heartbeats
	return true
}

// flushShed journals the pending shed marker and moves the pool's shed
// counters inside the journal's stream lock, so a checkpoint freezing the
// stream captures the marker and its counters together or not at all.
func (ss *session) flushShed() bool {
	if ss.pendingShed == (wire.ShedRecord{}) {
		return true
	}
	rec := ss.pendingShed
	ss.pendingShed = wire.ShedRecord{}
	jm := wire.Message{Type: wire.TypeShed, SUO: ss.id, At: ss.clock, Shed: &rec}
	return ss.appendThen(jm, func() { ss.s.Pool.AddShed(ss.id, rec) })
}

// ingest handles one decoded frame; false ends the connection. Every
// handler routes by the handshaken device ID, never the spoofable per-frame
// SUO field.
func (ss *session) ingest(msg wire.Message, at time.Time) bool {
	switch msg.Type {
	case wire.TypeInput, wire.TypeOutput, wire.TypeState:
		return ss.observation(msg, at)
	case wire.TypeHeartbeat:
		return ss.heartbeat(msg)
	case wire.TypeAck:
		return ss.ack(msg, at)
	case wire.TypeSnapshot:
		return ss.snapshot(msg)
	case wire.TypeSpectrumDelta:
		return ss.spectrumDelta(msg)
	}
	// Identification repeats and client-side chatter are ignored —
	// including credit grants and shed markers, which only ever travel
	// server → client or server → journal.
	return true
}

// observation admits one input/output/state frame: credit, shed tier 1,
// advance vetting, write-ahead dispatch, then mid-stream replenishment.
func (ss *session) observation(msg wire.Message, ingest time.Time) bool {
	if msg.Event == nil {
		return true
	}
	s := ss.s
	// The ingest sampling gate (§6.2): one in SampleN admitted observations
	// opens a trace here; everything below threads tctx through
	// unconditionally because a dead context makes every tracer call a
	// no-op.
	tctx := s.Tracer.Sample()
	if ss.window > 0 {
		if ss.credits == 0 {
			// Only a peer ignoring its exhausted window gets here: a
			// compliant client blocks and heartbeats for replenishment
			// instead. The violation is counted before the error frame
			// leaves, so a client reading the frame sees the count.
			s.creditViolations.Add(1)
			return ss.violation(fmt.Sprintf(
				"credit window violated: observation sent with the %d-frame window exhausted", ss.window))
		}
		ss.credits--
	}
	// Mid-stream replenishment is decided on the queue this frame found.
	replenish := ss.window > 0 && ss.sh.pressure() < replenishPressure
	if ss.shed(s.ShedObservationsAt, wire.ShedRecord{Observations: 1}) {
		// The shed frame's credit stays spent, and no mid-stream grant
		// follows under pressure, so a flooder exhausts its window and
		// degrades into heartbeat pacing. A sampled-then-shed frame still
		// leaves a span: the shed decision is exactly the kind of
		// tail-latency explanation exemplars exist to surface.
		if tctx.Live() {
			s.Tracer.Span(tctx, trace.KindShed, ss.sh.idx, ss.id, ingest, time.Since(ingest), false)
		}
		return true
	}
	if !ss.advance(msg.Event.At) {
		return false
	}
	var jstart time.Time
	if tctx.Live() {
		// The ingest span closes at admission: decode, credit and shed
		// vetting are behind the frame, the journal and shard are ahead. It
		// is the chain's root — the exemplar a /metrics scrape surfaces
		// resolves back to it.
		tctx = s.Tracer.Span(tctx, trace.KindIngest, ss.sh.idx, ss.id, ingest, time.Since(ingest), false)
		jstart = time.Now()
	}
	ev := msg.Event
	var err error
	jm := wire.Message{Type: msg.Type, SUO: ss.id, Event: ev, At: ev.At}
	if !ss.appendThen(jm, func() { err = s.Pool.DispatchTraced(ss.id, *ev, ingest, tctx) }) {
		return false
	}
	if tctx.Live() && s.Journal != nil {
		// The journal span covers the append and this frame's share of the
		// fsync batch (a dispatch-class connection's append returns without
		// waiting, and its short span says so). Parented on ingest, as a
		// sibling of the dispatch span the shard records.
		s.Tracer.Span(tctx, trace.KindJournal, ss.sh.idx, ss.id, jstart, time.Since(jstart), false)
	}
	if err != nil {
		return false // pool stopped — nothing left to ingest into
	}
	s.frames.Add(1)
	if replenish && ss.credits <= ss.window/2 {
		// The window is half spent and the shard is keeping up: top it back
		// up (the delta consumed, never an absolute reset) without forcing
		// the client to stall into its next heartbeat. Counted before it is
		// sent, like a violation.
		s.creditGrants.Add(1)
		if ss.rc.send(wire.Message{Type: wire.TypeCredit, SUO: ss.id, Credits: uint32(ss.window - ss.credits)}) != nil {
			return false
		}
		ss.credits = ss.window
		if tctx.Live() {
			// The credit span marks a flow-control decision made on this
			// frame's account.
			s.Tracer.Span(tctx, trace.KindCredit, ss.sh.idx, ss.id, ingest, time.Since(ingest), false)
		}
	}
	return true
}

// heartbeat runs one heartbeat: shed tier 2, advance vetting, the pending
// shed marker and the heartbeat itself journaled write-ahead of the clock
// advance, the flush barrier, and the echo with its credit grant.
func (ss *session) heartbeat(msg wire.Message) bool {
	s := ss.s
	if ss.shed(s.ShedHeartbeatsAt, wire.ShedRecord{Heartbeats: 1}) {
		// No clock advance, no flush barrier, no echo: a compliant client
		// waiting on the echo waits longer; the silence IS the backpressure.
		return true
	}
	// The pending shed marker flushes write-ahead of the heartbeat record,
	// so replay restores the shed counters at the same stream position the
	// live pool reached them by.
	if !ss.advance(msg.At) || !ss.flushShed() {
		return false
	}
	// Heartbeats are journaled too: replay must re-run the same silence
	// sweeps and comparison windows the live pool ran. On a fsync-class
	// connection the journaled heartbeat marks every frame before it
	// durable, so the echo below also acknowledges durability; on a
	// dispatch-class connection the echo promises monitoring only — the
	// unsynced tail can be lost to a crash, which is exactly the class the
	// client asked for.
	hb := wire.Message{Type: wire.TypeHeartbeat, SUO: ss.id, At: msg.At}
	var err error
	if !ss.appendThen(hb, func() { err = s.Pool.AdvanceDevice(ss.id, msg.At) }) {
		return false
	}
	// Heartbeats carry time and act as a flush barrier. The carried At
	// advances the device's virtual clock, so a quiet-but-alive SUO still
	// gets silence sweeps and periodic comparison; the echo is only written
	// after every earlier observation on this connection has been through
	// the device's monitor, so any error frames they raised are already on
	// the wire. Clients drain by heartbeating before close. If the pool
	// refuses the barrier (daemon draining), no echo must be sent — a false
	// echo would tell the client its frames were monitored.
	if err != nil || s.Pool.FlushDevice(ss.id) != nil {
		return false
	}
	if ss.window > 0 {
		// The echo always restores the full window: the flush barrier just
		// drained this connection's backlog, so the shard owes it a fresh
		// start. Delta grant, as always.
		hb.Credits = uint32(ss.window - ss.credits)
		ss.credits = ss.window
	}
	return ss.rc.send(hb) == nil
}

// ack routes a control-command acknowledgement. Its At is client time and
// is vetted like any other — an ack is the one frame a restarted device may
// send before resuming its observation stream.
func (ss *session) ack(msg wire.Message, ingest time.Time) bool {
	if !ss.advance(msg.At) {
		return false
	}
	if actx := trace.FromWire(msg.Trace); actx.Live() {
		// The device echoed a control push's trace context: close the
		// exchange with a forced ack span parented on the push's span.
		ss.s.Tracer.Span(actx, trace.KindAck, -1, ss.id, ingest, time.Since(ingest), true)
	}
	if ss.s.OnAck != nil {
		ss.s.OnAck(ss.id, msg)
	}
	return true
}

// snapshot hands coverage evidence answering a RequestSnapshot pull to the
// diagnosis plane. Its At is client time, vetted like any other.
func (ss *session) snapshot(msg wire.Message) bool {
	if !ss.advance(msg.At) {
		return false
	}
	if ss.s.OnSnapshot != nil {
		ss.s.OnSnapshot(ss.id, msg)
	}
	return true
}

// spectrumDelta hands continuous coverage evidence to the diagnosis plane.
// It sheds with the observations (see OnSpectrumDelta) but spends no
// credit: like the heartbeat it rides on, its rate is the heartbeat cadence.
func (ss *session) spectrumDelta(msg wire.Message) bool {
	if msg.Delta == nil || ss.shed(ss.s.ShedObservationsAt, wire.ShedRecord{Observations: 1}) {
		return true
	}
	if !ss.advance(msg.At) {
		return false
	}
	if ss.s.OnSpectrumDelta != nil {
		ss.s.OnSpectrumDelta(ss.id, msg)
	}
	return true
}
