package client_test

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/client"
	"trader/internal/control"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

// harness is a live ingestion server with a recovery controller and a
// tracer attached, recording the acks and snapshots devices send back.
type harness struct {
	srv  *fleet.Server
	tr   *trace.Tracer
	addr string

	mu    sync.Mutex
	acks  []wire.Message
	snaps []wire.Message
}

// start boots the stack with the escalation ladder pol; mutate adjusts the
// server before it listens.
func start(t *testing.T, pol control.Policy, mutate func(*fleet.Server)) *harness {
	t.Helper()
	h := &harness{tr: trace.New(trace.Options{Shards: 2, SampleN: 0, Seed: 7})}
	pool := fleet.NewPool(fleet.Options{Shards: 2})
	t.Cleanup(pool.Stop)
	h.srv = &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(),
		HelloTimeout: 5 * time.Second, Tracer: h.tr, Logf: t.Logf}
	if mutate != nil {
		mutate(h.srv)
	}
	pol.Name = "client-test"
	pol.RestartLatency = 10 * sim.Millisecond
	ctl := control.Attach(pool, control.Options{Actuator: h.srv, Policy: pol, Logf: t.Logf})
	h.srv.OnAck = func(id string, m wire.Message) {
		h.mu.Lock()
		h.acks = append(h.acks, m)
		h.mu.Unlock()
		ctl.HandleAck(id, m)
	}
	h.srv.OnSnapshot = func(id string, m wire.Message) {
		h.mu.Lock()
		h.snaps = append(h.snaps, m)
		h.mu.Unlock()
	}
	h.addr = "unix:" + filepath.Join(t.TempDir(), "client.sock")
	ln, err := wire.Listen(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.srv.Close(); ln.Close(); ctl.Close() })
	go h.srv.Serve(ln)
	return h
}

func (h *harness) dial(t *testing.T, id string, opts client.Options) *client.Client {
	t.Helper()
	opts.Codec = wire.CodecBinary
	c, err := client.New(h.addr, id, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// ack returns the first ack of cmd the server received, waiting for it.
func (h *harness) ack(t *testing.T, cmd wire.ControlCommand) wire.Message {
	t.Helper()
	var got wire.Message
	eventually(t, "ack "+string(cmd), func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, m := range h.acks {
			if m.Control == cmd {
				got = m
				return true
			}
		}
		return false
	})
	return got
}

// checkTraced asserts the ack echoed its push's trace context: the
// tracer holds the push's control span and an ack span parented on it.
func (h *harness) checkTraced(t *testing.T, ack wire.Message) {
	t.Helper()
	if ack.Trace == nil || ack.Trace.TraceID == 0 {
		t.Fatalf("%s ack carries no trace context: %+v", ack.Control, ack)
	}
	var ctl, ackSpan bool
	for _, s := range h.tr.Trace(ack.Trace.TraceID) {
		switch s.Kind {
		case trace.KindControl:
			ctl = s.SpanID == ack.Trace.Parent
		case trace.KindAck:
			ackSpan = s.Parent == ack.Trace.Parent
		}
	}
	if !ctl || !ackSpan {
		t.Fatalf("trace %s: control span %v, ack span under it %v", trace.ID(ack.Trace.TraceID), ctl, ackSpan)
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func obs(id string, atMs int64, x float64) event.Event {
	return event.Event{Kind: event.Output, Name: "out", Source: id, At: sim.Time(atMs) * sim.Millisecond}.With("x", x)
}

// deviate sends two deviating observations: the light monitor tolerates
// one, so the second raises a report and the controller takes its first
// action.
func deviate(t *testing.T, c *client.Client, id string) {
	t.Helper()
	for _, at := range []int64{10, 20} {
		if err := c.Send(obs(id, at, 5)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreditStallAndGrant(t *testing.T) {
	h := start(t, control.DefaultPolicy(), func(s *fleet.Server) { s.CreditWindow = 1 })
	c := h.dial(t, "credit", client.Options{})
	if w := c.Stats().Window; w != 1 {
		t.Fatalf("granted window %d, want 1", w)
	}
	// A one-frame window: every observation after the first needs a grant
	// back from the server before it may leave.
	const n = 200
	for i := int64(1); i <= n; i++ {
		if err := c.Send(obs("credit", i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(sim.Time(n+1) * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Sent != n || st.Stalls == 0 {
		t.Fatalf("sent %d with %d stalls, want %d sent through at least one stall", st.Sent, st.Stalls, n)
	}
	if v := h.srv.Stats().CreditViolations; v != 0 {
		t.Fatalf("%d credit violations from a compliant client", v)
	}
	if d := h.srv.Pool.Rollup().Dispatched; d != n {
		t.Fatalf("pool dispatched %d, want %d", d, n)
	}
}

func TestResetAckEchoesTrace(t *testing.T) {
	h := start(t, control.Policy{Tolerate: 0, Resets: 1, Restarts: 1}, nil)
	c := h.dial(t, "resettable", client.Options{})
	deviate(t, c, "resettable")
	if err := c.Flush(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	h.checkTraced(t, h.ack(t, wire.CtrlReset))
	if st := c.Stats(); st.Reports != 1 || st.Controls != 1 || st.Down {
		t.Fatalf("stats %+v, want one report, one control push, device up", st)
	}
}

func TestRestartRehandshakesThenAcks(t *testing.T) {
	h := start(t, control.Policy{Tolerate: 0, Resets: 0, Restarts: 1}, nil)
	c := h.dial(t, "restartable", client.Options{})
	deviate(t, c, "restartable")
	ack := h.ack(t, wire.CtrlRestart)
	h.checkTraced(t, ack)
	st := c.Stats()
	if st.Restarts != 1 || st.RedialFailures != 0 || st.Down {
		t.Fatalf("stats %+v, want one honored restart, no redial failure, device up", st)
	}
	// The new connection streams and flushes like the first.
	if err := c.Send(obs("restartable", 40, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineIsFinal(t *testing.T) {
	h := start(t, control.Policy{Tolerate: 0, Resets: 0, Restarts: 0}, nil)
	c := h.dial(t, "doomed", client.Options{})
	deviate(t, c, "doomed")
	eventually(t, "quarantine", func() bool { return c.Stats().Quarantines == 1 })
	if !c.Stats().Down {
		t.Fatal("quarantined device still up")
	}
	if err := c.Send(obs("doomed", 30, 0)); !errors.Is(err, client.ErrDown) {
		t.Fatalf("Send after quarantine = %v, want ErrDown", err)
	}
	if err := c.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "doomed", At: 40}); !errors.Is(err, client.ErrDown) {
		t.Fatalf("Encode after quarantine = %v, want ErrDown", err)
	}
	if err := c.Flush(50 * sim.Millisecond); !errors.Is(err, client.ErrDown) {
		t.Fatalf("Flush after quarantine = %v, want ErrDown", err)
	}
	// The daemon retired the device: its connection is gone for good.
	eventually(t, "disconnect", func() bool { return h.srv.Stats().Disconnected == 1 })
	if st := c.Stats(); st.Restarts != 0 || st.Quarantines != 1 {
		t.Fatalf("stats %+v after quarantine", st)
	}
}

func TestSnapshotPullAnswered(t *testing.T) {
	h := start(t, control.DefaultPolicy(), nil)
	c := h.dial(t, "recorder", client.Options{
		Snapshot: func() *wire.Snapshot { return &wire.Snapshot{Blocks: 64, Events: 3} }})
	if err := c.Flush(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := h.srv.RequestSnapshot("recorder"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "snapshot answer", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.snaps) == 1
	})
	if s := h.snaps[0].Snapshot; s == nil || s.Blocks != 64 || s.Events != 3 {
		t.Fatalf("snapshot answer %+v", h.snaps[0])
	}
	if p := c.Stats().Pulls; p != 1 {
		t.Fatalf("pulls = %d, want 1", p)
	}
}

// gateJournal holds every heartbeat's append until gate closes, so the
// server withholds the echo for as long as the test needs.
type gateJournal struct{ gate chan struct{} }

func (g *gateJournal) Append(wire.Message) error { return nil }

func (g *gateJournal) AppendThen(m wire.Message, _ bool, then func()) error {
	if m.Type == wire.TypeHeartbeat {
		<-g.gate
	}
	then()
	return nil
}

func TestFlushReturnsPromptlyAcrossRestart(t *testing.T) {
	gj := &gateJournal{gate: make(chan struct{})}
	h := start(t, control.Policy{Tolerate: 0, Resets: 0, Restarts: 1},
		func(s *fleet.Server) { s.Journal = gj })
	c := h.dial(t, "flusher", client.Options{})
	deviate(t, c, "flusher")
	// The heartbeat's echo is withheld; the deviations behind it make the
	// controller push a restart while Flush waits.
	begin := time.Now()
	err := c.Flush(30 * sim.Millisecond)
	took := time.Since(begin)
	close(gj.gate)
	if !errors.Is(err, client.ErrDown) {
		t.Fatalf("Flush across a restart = %v, want ErrDown", err)
	}
	if took > time.Second {
		t.Fatalf("Flush took %v to notice the restart", took)
	}
	// Once the server lets the old session go, the redial lands and acks.
	h.ack(t, wire.CtrlRestart)
	if st := c.Stats(); st.Restarts != 1 || st.RedialFailures != 0 {
		t.Fatalf("stats %+v, want one honored restart", st)
	}
}

func TestCloseDuringRestartStaysDown(t *testing.T) {
	gj := &gateJournal{gate: make(chan struct{})}
	h := start(t, control.Policy{Tolerate: 0, Resets: 0, Restarts: 1},
		func(s *fleet.Server) { s.Journal = gj })
	t.Cleanup(func() { close(gj.gate) })
	c := h.dial(t, "closer", client.Options{})
	deviate(t, c, "closer")
	// The withheld echo keeps the old session registered, so the restart's
	// re-dials are refused until Close makes the client give up.
	if err := c.Flush(30 * sim.Millisecond); !errors.Is(err, client.ErrDown) {
		t.Fatalf("Flush across a restart = %v, want ErrDown", err)
	}
	begin := time.Now()
	c.Close()
	if took := time.Since(begin); took > 500*time.Millisecond {
		t.Fatalf("Close took %v with a restart re-dialing", took)
	}
	if st := c.Stats(); !st.Down || st.Restarts != 0 || st.RedialFailures != 0 {
		t.Fatalf("stats %+v, want down with no restart honored or failed", st)
	}
}
