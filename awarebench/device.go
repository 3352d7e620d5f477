package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trader/internal/diagnose"
	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/wire"
)

// lockedWriter is the client's buffered socket writer. The sender goroutine
// and the reader goroutine (acks, snapshot answers) both write, so every
// write and flush takes the lock.
type lockedWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Write(p)
}

func (w *lockedWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

// pendingHB is a heartbeat awaiting its echo.
type pendingHB struct {
	at      sim.Time
	sched   time.Time
	covered int64 // observation frames sent before it
	sample  bool  // counts toward the ack latency distribution
}

// command is a control push the device received.
type command struct {
	cmd   wire.ControlCommand
	at    time.Time
	trace *wire.TraceContext
}

// client is one emulated device: a handshaken connection with buffered
// writes, driven by one sender goroutine, and a reader goroutine consuming
// echoes, credit grants, error frames, control pushes and snapshot pulls.
// It follows the device obligations of ARCHITECTURE.md §2 and §4: it spends
// one credit per observation and waits at zero, acks resets, and answers
// pulls from its spectral recorder. Restart and quarantine are left to the
// driver, which owns the connection's lifetime.
type client struct {
	id   string
	addr string
	dur  wire.Durability
	rec  *diagnose.Recorder // nil: the device does not answer pulls

	// timeSends accumulates the time the sender spends in the client's
	// encode and flush path (traced run only).
	timeSends bool
	sendTime  time.Duration

	nc       net.Conn
	wc       *wire.Conn
	w        *lockedWriter
	readDone chan struct{}
	notify   chan struct{}

	lastAt atomic.Int64 // virtual time of the newest frame, for acks and snapshots

	mu      sync.Mutex
	closed  bool // the current connection's reader has ended
	window  int  // credit window; 0: flow control off
	credits int
	pending []pendingHB
	sent    int64 // observation frames sent, all connections
	acked   int64 // observation frames covered by an echo or an error frame
	errs    []time.Time
	cmds    []command
	ackLat  []timed

	handshake []time.Duration

	// Owned by the sending goroutine.
	sinceHB  int           // observation frames since the last heartbeat
	stall    time.Duration // time spent waiting on an empty credit window
	timeouts int
}

func newClient(addr, id string, dur wire.Durability, rec *diagnose.Recorder) *client {
	return &client{id: id, addr: addr, dur: dur, rec: rec, notify: make(chan struct{}, 1)}
}

// dial connects and handshakes, retrying the transient refusal a redial
// racing the server's teardown of the previous connection can meet.
func (c *client) dial(retryFor time.Duration) error {
	network, address, err := wire.SplitAddr(c.addr)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(retryFor)
	for {
		start := time.Now()
		nc, err := net.Dial(network, address)
		if err != nil {
			return fmt.Errorf("%s: dial: %w", c.id, err)
		}
		hc := wire.NewConn(nc)
		codec, _, credits, err := hc.HandshakeFlow(c.id, wire.CodecBinary, c.dur)
		if err == nil {
			c.mu.Lock()
			c.handshake = append(c.handshake, time.Since(start))
			c.mu.Unlock()
			c.attach(nc, codec, int(credits))
			return nil
		}
		nc.Close()
		if strings.Contains(err.Error(), "already connected") && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			continue
		}
		return fmt.Errorf("%s: handshake: %w", c.id, err)
	}
}

// ioBuffer sizes the client's socket buffers: a closed-loop window's worth
// of small frames between flushes.
const ioBuffer = 16 << 10

// attach switches a handshaken connection to buffered I/O and starts its
// reader. The handshake read exactly the Hello reply, so nothing is lost
// when the buffered reader takes over.
func (c *client) attach(nc net.Conn, codec wire.Codec, window int) {
	c.w = &lockedWriter{bw: bufio.NewWriterSize(nc, ioBuffer)}
	wc := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{bufio.NewReaderSize(nc, ioBuffer), c.w})
	wc.SetCodec(codec)
	c.mu.Lock()
	c.nc, c.wc = nc, wc
	c.closed = false
	c.window, c.credits = window, window
	c.pending = c.pending[:0]
	c.sinceHB = 0
	c.mu.Unlock()
	c.readDone = make(chan struct{})
	go c.read(wc, c.readDone)
}

// hangUp closes the connection and waits for its reader to end.
func (c *client) hangUp() {
	if c.nc == nil {
		return
	}
	_ = c.w.Flush()
	c.nc.Close()
	<-c.readDone
	c.nc, c.wc, c.w = nil, nil, nil
}

func (c *client) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

func (c *client) read(wc *wire.Conn, done chan struct{}) {
	defer close(done)
	defer func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.wake()
	}()
	for {
		m, err := wc.Decode()
		if err != nil {
			return
		}
		now := time.Now()
		switch m.Type {
		case wire.TypeHeartbeat:
			// Echoes come back in order; an older pending heartbeat the
			// echo skips was shed by the server and will never echo.
			c.mu.Lock()
			for len(c.pending) > 0 && c.pending[0].at < m.At {
				c.pending = c.pending[1:]
			}
			if len(c.pending) > 0 && c.pending[0].at == m.At {
				p := c.pending[0]
				c.pending = c.pending[1:]
				if p.sample {
					c.ackLat = append(c.ackLat, timed{due: p.sched, lat: now.Sub(p.sched)})
				}
				c.acked = max(c.acked, p.covered)
			}
			c.credits += int(m.Credits)
			c.mu.Unlock()
		case wire.TypeCredit:
			c.mu.Lock()
			c.credits += int(m.Credits)
			c.mu.Unlock()
		case wire.TypeError:
			c.mu.Lock()
			c.errs = append(c.errs, now)
			c.mu.Unlock()
		case wire.TypeControl:
			c.mu.Lock()
			c.cmds = append(c.cmds, command{cmd: m.Control, at: now, trace: m.Trace})
			c.mu.Unlock()
			if m.Control == wire.CtrlReset {
				ack := wire.Ack(c.id, wire.CtrlReset, sim.Time(c.lastAt.Load()))
				ack.Trace = m.Trace
				_ = c.sendNow(wc, ack)
			}
		case wire.TypeSnapshotReq:
			if c.rec != nil {
				snap := wire.Message{Type: wire.TypeSnapshot, SUO: c.id,
					At: sim.Time(c.lastAt.Load()), Snapshot: c.rec.Snapshot()}
				_ = c.sendNow(wc, snap)
			}
		}
		c.wake()
	}
}

// sendNow writes one frame and flushes it (reader-side replies).
func (c *client) sendNow(wc *wire.Conn, m wire.Message) error {
	if err := wc.Encode(m); err != nil {
		return err
	}
	return c.w.Flush()
}

// waitFor blocks until cond (evaluated under c.mu) holds, the connection
// ends, or the timeout passes; it reports whether cond held.
func (c *client) waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		c.mu.Lock()
		ok, closed := cond(), c.closed
		c.mu.Unlock()
		if ok {
			return true
		}
		if closed || time.Now().After(deadline) {
			return false
		}
		select {
		case <-c.notify:
		case <-t.C:
		}
	}
}

func (c *client) encode(m wire.Message) error {
	if !c.timeSends {
		return c.wc.Encode(m)
	}
	start := time.Now()
	err := c.wc.Encode(m)
	c.sendTime += time.Since(start)
	return err
}

// flush pushes buffered frames onto the socket.
func (c *client) flush() error {
	if !c.timeSends {
		return c.w.Flush()
	}
	start := time.Now()
	err := c.w.Flush()
	c.sendTime += time.Since(start)
	return err
}

var errStalled = errors.New("credit window never replenished")

// observe sends one observation of the light profile's "out" level x at
// virtual time at, spending a credit when flow control is on.
func (c *client) observe(at sim.Time, x float64) error {
	c.mu.Lock()
	blocked := c.window > 0 && c.credits == 0
	c.mu.Unlock()
	if blocked {
		// A compliant device stops at an empty window. Make sure a grant
		// can come: everything buffered goes out, and a heartbeat asks for
		// the echo's replenishment if none is outstanding.
		start := time.Now()
		if c.sinceHB > 0 {
			if err := c.heartbeat(at, start, false); err != nil {
				return err
			}
		}
		if err := c.flush(); err != nil {
			return err
		}
		ok := c.waitFor(func() bool { return c.credits > 0 }, 5*time.Second)
		c.stall += time.Since(start)
		if !ok {
			c.timeouts++
			return errStalled
		}
	}
	ev := event.Event{Kind: event.Output, Name: "out", Source: c.id, At: at}.With("x", x)
	c.lastAt.Store(int64(at))
	if err := c.encode(wire.Message{Type: wire.TypeOutput, SUO: c.id, Event: &ev, At: at}); err != nil {
		return err
	}
	c.mu.Lock()
	if c.window > 0 {
		c.credits--
	}
	c.sent++
	c.mu.Unlock()
	c.sinceHB++
	return nil
}

// heartbeat sends a heartbeat at virtual time at. Its echo acknowledges
// every observation sent before it; sched is when it was due, the start of
// its ack latency when sample is set.
func (c *client) heartbeat(at sim.Time, sched time.Time, sample bool) error {
	c.mu.Lock()
	c.pending = append(c.pending, pendingHB{at: at, sched: sched, covered: c.sent, sample: sample})
	c.mu.Unlock()
	c.sinceHB = 0
	c.lastAt.Store(int64(at))
	return c.encode(wire.Message{Type: wire.TypeHeartbeat, SUO: c.id, At: at})
}

// delta closes the recorder's open coverage window and ships it as a
// spectrum delta, the continuous-diagnosis companion of a heartbeat.
func (c *client) delta(at sim.Time) error {
	d := c.rec.RotateDelta(at)
	return c.encode(wire.Message{Type: wire.TypeSpectrumDelta, SUO: c.id, At: at, Delta: d})
}

// drain heartbeats, flushes and waits until every observation sent on the
// connection is acknowledged.
func (c *client) drain(at sim.Time, timeout time.Duration) bool {
	if err := c.heartbeat(at, time.Now(), false); err != nil {
		return false
	}
	if err := c.flush(); err != nil {
		return false
	}
	sent := c.sentFrames()
	if c.waitFor(func() bool { return c.acked >= sent }, timeout) {
		return true
	}
	c.timeouts++
	return false
}

func (c *client) sentFrames() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

func (c *client) ackedFrames() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

func (c *client) inFlight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent - c.acked
}

// ackLatencies returns the sampled heartbeats' echo latencies.
func (c *client) ackLatencies() []timed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]timed(nil), c.ackLat...)
}

// handshakes returns every handshake's Dial-to-Hello-reply time.
func (c *client) handshakes() *samples {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &samples{d: append([]time.Duration(nil), c.handshake...)}
}

// received counts the control pushes of one command the device got.
func (c *client) received(cmd wire.ControlCommand) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, got := range c.cmds {
		if got.cmd == cmd {
			n++
		}
	}
	return n
}

// dropSamples releases the latency samples the client kept, so the live
// heap measured at the end of a run is the stack's, not the generator's.
func (c *client) dropSamples() {
	c.mu.Lock()
	c.ackLat, c.handshake = nil, nil
	c.mu.Unlock()
}

func (c *client) errorCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs)
}
