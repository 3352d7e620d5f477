package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/wire"
)

// This file holds the traced run's instruments. Each one wraps an interface
// the ingestion stack already accepts and times or counts the calls that
// cross it; none of them reaches inside the program.

// wireCounts tallies the server side of every accepted connection.
type wireCounts struct {
	reads, writes, bytesIn atomic.Uint64
}

// countingListener hands the server connections that count their syscalls.
type countingListener struct {
	net.Listener
	c *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, c: l.c}, nil
}

// countingConn counts Read and Write calls and the bytes read; the bytes
// themselves pass through unchanged.
type countingConn struct {
	net.Conn
	c *wireCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytesIn.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	return n, err
}

// stackJournal is the journal surface the stack is wired with: the server's
// fleet.TieredJournal, the planes' fleet.FrameJournal and the
// checkpointer's fleet.CheckpointJournal. *journal.Sharded is it untraced;
// *timedJournal wraps it in the traced run.
type stackJournal interface {
	fleet.TieredJournal
	fleet.CheckpointJournal
}

var (
	_ stackJournal = (*journal.Sharded)(nil)
	_ stackJournal = (*timedJournal)(nil)
)

// timedJournal times every append and checkpoint and counts the bytes each
// record occupies on disk (the binary codec plus the 8-byte record header).
type timedJournal struct {
	inner       stackJournal
	appendThen  samples // the server's per-frame write-ahead appends
	checkpoints samples
	bytes       atomic.Uint64
}

// recordHeader is the journal's per-record framing: length and CRC.
const recordHeader = 8

func (j *timedJournal) count(m wire.Message) {
	if b, err := wire.Binary.Append(nil, m); err == nil {
		j.bytes.Add(uint64(len(b) + recordHeader))
	}
}

func (j *timedJournal) Append(m wire.Message) error {
	j.count(m)
	return j.inner.Append(m)
}

// AppendThen passes then through to the wrapped journal, which runs it under
// the record's stream lock: checkpoint coordination depends on that.
func (j *timedJournal) AppendThen(m wire.Message, sync bool, then func()) error {
	j.count(m)
	start := time.Now()
	err := j.inner.AppendThen(m, sync, then)
	j.appendThen.add(time.Since(start))
	return err
}

func (j *timedJournal) Checkpoint(capture func() ([][]wire.Message, error)) error {
	start := time.Now()
	err := j.inner.Checkpoint(capture)
	j.checkpoints.add(time.Since(start))
	return err
}

func (j *timedJournal) Shards() int { return j.inner.Shards() }

// actuator is what the controller and the diagnosis engine push through:
// control.Actuator plus diagnose.Requester. *fleet.Server is it untraced.
type actuator interface {
	Control(id string, cmd wire.ControlCommand) error
	Disconnect(id string) error
	RequestSnapshot(id string) error
}

// controlProbe times the control plane from the outside: a report stamp
// taken by the benchmark's own Pool.OnReport handler, the actuator call the
// controller decides on, and the device's ack arriving through Server.OnAck.
// Disconnect and RequestSnapshot pass through to the embedded actuator.
type controlProbe struct {
	actuator

	mu       sync.Mutex
	reported map[string]time.Time // latest report per device
	pushed   map[string]time.Time // latest push per device

	decide, push, ackRTT samples
}

func newControlProbe(inner actuator) *controlProbe {
	return &controlProbe{actuator: inner, reported: make(map[string]time.Time), pushed: make(map[string]time.Time)}
}

// onReport stamps a report; it runs on shard goroutines and never blocks
// on anything but the probe's own short lock.
func (p *controlProbe) onReport(device string, _ wire.ErrorReport) {
	now := time.Now()
	p.mu.Lock()
	p.reported[device] = now
	p.mu.Unlock()
}

func (p *controlProbe) decided(id string, at time.Time) {
	p.mu.Lock()
	r, ok := p.reported[id]
	p.mu.Unlock()
	if ok {
		p.decide.add(at.Sub(r))
	}
}

func (p *controlProbe) Control(id string, cmd wire.ControlCommand) error {
	start := time.Now()
	p.decided(id, start)
	err := p.actuator.Control(id, cmd)
	p.push.add(time.Since(start))
	p.mu.Lock()
	p.pushed[id] = start
	p.mu.Unlock()
	return err
}

// onAck wraps Server.OnAck: it closes the push → ack round trip, then hands
// the ack on.
func (p *controlProbe) onAck(next func(string, wire.Message)) func(string, wire.Message) {
	return func(id string, m wire.Message) {
		now := time.Now()
		p.mu.Lock()
		t, ok := p.pushed[id]
		p.mu.Unlock()
		if ok {
			p.ackRTT.add(now.Sub(t))
		}
		next(id, m)
	}
}

// evidenceProbe wraps the diagnosis hooks on the server: snapshot sizes and
// the cost of handing a spectrum delta to the engine.
type evidenceProbe struct {
	mu            sync.Mutex
	snapshotBytes []float64
	deltaHandoff  samples
}

func (p *evidenceProbe) onSnapshot(next func(string, wire.Message)) func(string, wire.Message) {
	return func(id string, m wire.Message) {
		if b, err := wire.Binary.Append(nil, m); err == nil {
			p.mu.Lock()
			p.snapshotBytes = append(p.snapshotBytes, float64(len(b)))
			p.mu.Unlock()
		}
		next(id, m)
	}
}

// medianSnapshotBytes is the median encoded size of the snapshots seen.
func (p *evidenceProbe) medianSnapshotBytes() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return median(p.snapshotBytes)
}

func (p *evidenceProbe) onDelta(next func(string, wire.Message)) func(string, wire.Message) {
	return func(id string, m wire.Message) {
		start := time.Now()
		next(id, m)
		p.deltaHandoff.add(time.Since(start))
	}
}
