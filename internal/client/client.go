// Package client is the device side of the awareness loop's wire protocol
// (ARCHITECTURE.md §2 and §4): one remote SUO connected to a `traderd
// -listen` ingestion daemon. A Client dials and handshakes through
// internal/wire, streams observations under the connection's credit
// window, and runs one reader goroutine that answers everything the
// daemon sends downstream — error frames, heartbeat echoes (a watermark,
// see Flush), credit grants, snapshot pulls and the recovery plane's
// control pushes: a reset is acked, a restart drops the connection and
// re-handshakes within a bounded redial budget before acking, and a
// quarantine is acked and final. Every ack echoes the push's trace
// context, so the daemon closes the control span chain (§6.2).
//
// tvsim's fleet and chaos modes, the end-to-end tests and the ingestion
// benchmark all drive their devices through this one implementation.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/wire"
)

// ErrDown reports a frame not sent because the device is between
// connections (restarting), out of service (quarantined) or closed — or,
// from Flush, that the connection the heartbeat went out on was torn down
// before its echo arrived.
var ErrDown = errors.New("client: device down")

const (
	// redialTries and redialPause bound a restart's re-handshake: about a
	// second, time for the daemon to tear the old registration down and
	// free the device ID. The pause is short because every re-dial it
	// waits is downtime.
	redialTries = 100
	redialPause = 10 * time.Millisecond
	// solicitEvery is how long Send waits on an exhausted credit window
	// before soliciting a grant again: the solicit may itself be shed near
	// saturation.
	solicitEvery = 50 * time.Millisecond
	// resolicitEvery is how long Flush waits for an echo before re-sending
	// its heartbeat (a shed heartbeat is never echoed); flushTimeout bounds
	// the whole wait.
	resolicitEvery = 2 * time.Second
	flushTimeout   = 10 * time.Second
)

// Options are the Hello requests and the snapshot source of a device.
type Options struct {
	// Codec is the wire codec to request (empty: JSON).
	Codec string
	// Durability is the ack class to request (empty: fsync).
	Durability wire.Durability
	// Snapshot answers the diagnosis plane's snapshot pulls; nil counts
	// the pulls but leaves them unanswered.
	Snapshot func() *wire.Snapshot
}

// Stats is a point-in-time view of a Client.
type Stats struct {
	Sent        uint64 // observation frames put on the wire
	Reports     uint64 // error frames received
	Controls    uint64 // control pushes received
	Restarts    uint64 // restarts honored: re-handshaken and acked
	Quarantines uint64 // quarantine verdicts received
	Pulls       uint64 // snapshot pulls received
	Stalls      uint64 // grant solicits sent on an exhausted credit window
	// RedialFailures counts restarts whose re-handshake exhausted the
	// redial budget; such a device stays down.
	RedialFailures uint64
	// Credits is the current credit balance, Window and Durability the
	// current connection's Hello grants (Window 0: no flow control).
	Credits    int64
	Window     uint32
	Durability wire.Durability
	// Down is true while the device is restarting, quarantined or closed.
	Down bool
}

// link is one connection: the handshaken wire conn, its Hello grants and
// a channel closed once the connection is torn down.
type link struct {
	wc      *wire.Conn
	window  uint32
	granted wire.Durability
	down    chan struct{}
	once    sync.Once
}

func (l *link) drop() {
	l.once.Do(func() { close(l.down) })
	l.wc.Close()
}

// retired is the final link state: the device was quarantined or closed.
var retired = &link{}

// Client is one remote device. Send, Encode, Flush, Stats and Close are
// safe for concurrent use.
type Client struct {
	addr, id string
	opts     Options

	// link is the live connection, nil while a restart re-dials, retired
	// once quarantined or closed. Every transition is one atomic swap or
	// compare-and-swap, and Send reads it with one atomic load: the hot
	// path takes no lock.
	link atomic.Pointer[link]

	// credits is the local balance of the current connection's window;
	// the reader adds the daemon's grants back. echoedAt is the highest
	// heartbeat time the daemon has echoed: the daemon echoes in order
	// once every earlier frame is monitored, so it is a flush watermark.
	// lastAt is the newest virtual time sent, stamped on acks and
	// snapshot answers.
	credits  atomic.Int64
	echoedAt atomic.Int64
	lastAt   atomic.Int64

	// wake is closed and replaced whenever an echo or a grant arrives, so
	// any number of waiters see it.
	wakeMu sync.Mutex
	wake   chan struct{}

	// readers counts reader goroutines: one per connection, a restart's
	// handing over to the next before it exits. Close waits for zero.
	readers sync.WaitGroup

	sent, reports, controls      atomic.Uint64
	restarts, quarantines, pulls atomic.Uint64
	stalls, redialFailures       atomic.Uint64
}

// New dials addr, handshakes as device id and starts the reader.
func New(addr, id string, opts Options) (*Client, error) {
	c := &Client{addr: addr, id: id, opts: opts, wake: make(chan struct{})}
	l, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.install(nil, l)
	c.readers.Add(1)
	go c.read(l)
	return c, nil
}

func (c *Client) dial() (*link, error) {
	wc, granted, window, err := wire.Dial(c.addr, c.id, c.opts.Codec, c.opts.Durability)
	if err != nil {
		return nil, err
	}
	return &link{wc: wc, window: window, granted: granted, down: make(chan struct{})}, nil
}

// install makes l the live connection in place of from, failing if the
// device left from meanwhile (a restart overtaken by quarantine or Close).
// The credit window is per connection: any balance left from an earlier
// one is void.
func (c *Client) install(from, l *link) bool {
	c.credits.Store(int64(l.window))
	return c.link.CompareAndSwap(from, l)
}

// live returns the live connection, or nil while the device is down.
func (c *Client) live() *link {
	if l := c.link.Load(); l != retired {
		return l
	}
	return nil
}

// retire takes the device out of service for good.
func (c *Client) retire() {
	if l := c.link.Swap(retired); l != nil && l != retired {
		l.drop()
	}
}

// changed returns a channel closed at the next echo or grant.
func (c *Client) changed() <-chan struct{} {
	c.wakeMu.Lock()
	defer c.wakeMu.Unlock()
	return c.wake
}

func (c *Client) signal() {
	c.wakeMu.Lock()
	close(c.wake)
	c.wake = make(chan struct{})
	c.wakeMu.Unlock()
}

// Send streams one observation. Under flow control it spends one credit;
// on an exhausted window it solicits a grant with a heartbeat at e.At and
// blocks until one arrives — stalling the device is the backpressure.
// While the device is down the event is dropped with ErrDown: a
// restarting SUO produces no observable output.
func (c *Client) Send(e event.Event) error {
	l := c.live()
	if l == nil {
		return ErrDown
	}
	for l.window > 0 && c.credits.Load() <= 0 {
		if l = c.stall(l, e.At); l == nil {
			return ErrDown
		}
	}
	if l.window > 0 {
		c.credits.Add(-1)
	}
	c.lastAt.Store(int64(e.At))
	if err := l.wc.SendEvent(c.id, e); err != nil {
		return err
	}
	c.sent.Add(1)
	return nil
}

// stall solicits a grant on l and waits for one, or for the solicit
// interval. It returns the connection to continue on: l, the connection a
// restart re-dialed, or nil if the device went down.
func (c *Client) stall(l *link, at sim.Time) *link {
	c.stalls.Add(1)
	wake := c.changed()
	c.lastAt.Store(int64(at))
	_ = l.wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: c.id, At: at})
	t := time.NewTimer(solicitEvery)
	defer t.Stop()
	select {
	case <-wake:
	case <-t.C:
	case <-l.down:
		if cur := c.live(); cur != l {
			return cur
		}
		return nil // the daemon closed the connection
	}
	return c.live()
}

// Encode sends one raw frame (spectrum deltas, heartbeats that need no
// echo) on the live connection, or returns ErrDown. A non-zero m.At
// becomes the time stamped on later acks.
func (c *Client) Encode(m wire.Message) error {
	l := c.live()
	if l == nil {
		return ErrDown
	}
	if m.At > 0 {
		c.lastAt.Store(int64(m.At))
	}
	return l.wc.Encode(m)
}

// Flush sends a heartbeat at at and waits until the echo watermark reaches
// it: on return every frame sent before has been monitored (and, on an
// fsync-class connection, journaled). A heartbeat the daemon shed is never
// echoed, so Flush re-solicits with a timestamp nudged one millisecond
// later. It returns ErrDown promptly if the connection is torn down
// (restart, quarantine, daemon close) before the echo arrives.
func (c *Client) Flush(at sim.Time) error {
	deadline := time.Now().Add(flushTimeout)
	for nudge := sim.Time(0); ; nudge += sim.Millisecond {
		l := c.live()
		if l == nil {
			return ErrDown
		}
		wake := c.changed()
		c.lastAt.Store(int64(at + nudge))
		if err := l.wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: c.id, At: at + nudge}); err != nil {
			return err
		}
		if err := c.awaitEcho(l, at, wake); err != errResolicit {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("client: %s: no heartbeat echo for %s within %s", c.id, at, flushTimeout)
		}
	}
}

var errResolicit = errors.New("client: resolicit")

func (c *Client) awaitEcho(l *link, at sim.Time, wake <-chan struct{}) error {
	t := time.NewTimer(resolicitEvery)
	defer t.Stop()
	for c.echoedAt.Load() < int64(at) {
		select {
		case <-wake:
			wake = c.changed()
		case <-l.down:
			if c.echoedAt.Load() >= int64(at) {
				return nil
			}
			return ErrDown
		case <-t.C:
			return errResolicit
		}
	}
	return nil
}

// Stats returns the client's counters and current grants.
func (c *Client) Stats() Stats {
	st := Stats{
		Sent: c.sent.Load(), Reports: c.reports.Load(), Controls: c.controls.Load(),
		Restarts: c.restarts.Load(), Quarantines: c.quarantines.Load(), Pulls: c.pulls.Load(),
		Stalls: c.stalls.Load(), RedialFailures: c.redialFailures.Load(),
		Credits: c.credits.Load(), Down: true,
	}
	if l := c.live(); l != nil {
		st.Window, st.Durability, st.Down = l.window, l.granted, false
	}
	return st
}

// Close ends the session: the connection closes, a restart still
// re-dialing gives up, and Close returns once the reader has exited.
func (c *Client) Close() {
	c.retire()
	c.readers.Wait()
}

// read consumes l's downstream frames until the connection ends or a
// restart or quarantine retires it.
func (c *Client) read(l *link) {
	defer c.readers.Done()
	defer l.drop()
	for {
		msg, err := l.wc.Decode()
		if err != nil {
			return
		}
		switch msg.Type {
		case wire.TypeError:
			c.reports.Add(1)
		case wire.TypeHeartbeat:
			// Every error frame an earlier observation caused precedes
			// this echo on the stream; its Credits are the top-up.
			if at := int64(msg.At); at > c.echoedAt.Load() {
				c.echoedAt.Store(at)
			}
			c.credits.Add(int64(msg.Credits))
			c.signal()
		case wire.TypeCredit:
			c.credits.Add(int64(msg.Credits))
			c.signal()
		case wire.TypeSnapshotReq:
			c.pulls.Add(1)
			if c.opts.Snapshot != nil {
				_ = l.wc.Encode(wire.Message{Type: wire.TypeSnapshot, SUO: c.id,
					At: sim.Time(c.lastAt.Load()), Snapshot: c.opts.Snapshot()})
			}
		case wire.TypeControl:
			c.controls.Add(1)
			switch msg.Control {
			case wire.CtrlReset:
				c.ack(l, msg)
			case wire.CtrlRestart:
				// Honored synchronously: a restarting SUO stops consuming
				// its old connection. A quarantine racing the restart is
				// re-served by the daemon on the next handshake.
				c.restart(l, msg.Trace)
				return
			case wire.CtrlQuarantine:
				c.quarantines.Add(1)
				c.ack(l, msg)
				c.retire()
				return
			}
		}
	}
}

// ack answers a control push on the connection it came on, echoing its
// trace context (nil when untraced). A failed write means the connection
// is gone, which the reader's next Decode reports.
func (c *Client) ack(l *link, push wire.Message) {
	ack := wire.Ack(c.id, push.Control, sim.Time(c.lastAt.Load()))
	ack.Trace = push.Trace
	_ = l.wc.Encode(ack)
}

// restart honors CtrlRestart: drop the connection, re-handshake (the
// daemon re-admits the ID, or in journal mode hands back the adopted
// device), ack on the new connection, resume streaming. Frames sent while
// down are lost: that is the downtime the controller accounts. The push's
// trace context rides through and is echoed on the ack.
func (c *Client) restart(old *link, tc *wire.TraceContext) {
	if !c.link.CompareAndSwap(old, nil) {
		return // quarantined or closed
	}
	old.drop()
	var l *link
	for try := 1; ; try++ {
		if c.link.Load() == retired {
			return // quarantined or closed while re-dialing
		}
		var err error
		if l, err = c.dial(); err == nil {
			break
		}
		if try == redialTries {
			c.redialFailures.Add(1)
			return
		}
		time.Sleep(redialPause)
	}
	if !c.install(nil, l) { // overtaken while re-dialing: stay down
		l.drop()
		return
	}
	c.restarts.Add(1)
	c.ack(l, wire.Message{Control: wire.CtrlRestart, Trace: tc})
	c.readers.Add(1)
	go c.read(l)
}
