package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"trader/internal/control"
	"trader/internal/diagnose"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/spectrum"
	"trader/internal/trace"
	"trader/internal/wire"
)

// profile is the monitor profile every workload runs: traderd's -suo light,
// the cheap one-observable model, so the stack around the monitor carries
// the load.
const profile = "light"

// Shed-tier thresholds traderd's -shed enables.
const (
	shedObservationsAt = 0.75
	shedHeartbeatsAt   = 0.95
)

// stackConfig selects which traderd -listen planes a workload runs.
type stackConfig struct {
	// journal enables the sharded write-ahead journal (traderd -journal),
	// recovered on boot.
	journal bool
	// checkpointEvery drives a fleet.Checkpointer (-checkpoint-seconds).
	checkpointEvery time.Duration
	creditWindow    int  // -credit-window
	shed            bool // -shed
	// control attaches the default-policy recovery controller (-recover
	// default) and diagnosis the continuous Ochiai engine that rides on it
	// (-diagnose ochiai -diagnose-continuous).
	control bool
	// traced wraps the stack's interfaces with the benchmark's instruments
	// and samples every frame into the tracer.
	traced bool
}

// stack is one booted ingestion daemon, assembled in-process in the order
// traderd -listen wires it.
type stack struct {
	cfg    stackConfig
	dir    string
	addr   string
	tracer *trace.Tracer
	pool   *fleet.Pool
	srv    *fleet.Server
	jw     *journal.Sharded
	jnl    stackJournal
	ctl    *control.Controller
	eng    *diagnose.Engine
	ln     net.Listener

	serveErr chan error
	cpDone   chan struct{}
	cpWG     sync.WaitGroup

	// Boot-time recovery costs: Pool.Replay, and OpenReader plus the
	// planes' Recover calls.
	replayStats fleet.ReplayStats
	replayTime  time.Duration
	recoverTime time.Duration

	actMu   sync.Mutex
	actions map[string][]control.Rung

	// Traced-run instruments; nil untraced.
	wire  *wireCounts
	tj    *timedJournal
	probe *controlProbe
	ev    *evidenceProbe
}

// bootStack assembles and starts the stack. dir is the journal directory
// (recovered if it holds a journal), sock the Unix socket path to serve.
func bootStack(cfg stackConfig, dir, sock string) (*stack, error) {
	s := &stack{cfg: cfg, dir: dir, addr: "unix:" + sock, actions: make(map[string][]control.Rung)}
	shards := runtime.GOMAXPROCS(0)
	topts := trace.Options{Shards: shards, SampleN: trace.DefaultSampleN}
	if cfg.traced {
		topts.SampleN = 1
		topts.Capacity = 1 << 15
	}
	s.tracer = trace.New(topts)
	s.pool = fleet.NewPool(fleet.Options{Shards: shards, Tracer: s.tracer})
	factory := fleet.LightMonitorFactory()
	s.srv = &fleet.Server{
		Pool:         s.pool,
		Factory:      factory,
		HelloTimeout: 10 * time.Second,
		CreditWindow: cfg.creditWindow,
		Tracer:       s.tracer,
	}
	if cfg.shed {
		s.srv.ShedObservationsAt = shedObservationsAt
		s.srv.ShedHeartbeatsAt = shedHeartbeatsAt
	}
	var act actuator = s.srv
	if cfg.traced {
		s.probe = newControlProbe(s.srv)
		s.ev = &evidenceProbe{}
		act = s.probe
		s.pool.OnReport(s.probe.onReport)
	}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}

	if cfg.journal {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		start := time.Now()
		r, err := journal.OpenReader(dir)
		if err != nil {
			return fail(fmt.Errorf("open journal: %w", err))
		}
		s.recoverTime += time.Since(start)
		start = time.Now()
		s.replayStats, err = s.pool.Replay(r, factory)
		s.replayTime = time.Since(start)
		r.Close()
		if err != nil {
			return fail(fmt.Errorf("replay journal: %w", err))
		}
		if s.jw, err = journal.CreateSharded(dir, s.pool.Shards(), journal.Options{}); err != nil {
			return fail(err)
		}
		s.jnl = s.jw
		if cfg.traced {
			s.tj = &timedJournal{inner: s.jw}
			s.jnl = s.tj
		}
		marker := wire.Message{Type: wire.TypeHello, SUO: "traderd", Target: profile}
		if err := s.jw.AppendShard(0, marker); err != nil {
			return fail(err)
		}
		s.srv.Journal = s.jnl
	}

	if cfg.control {
		opts := diagnose.Options{Requester: act, Coeff: spectrum.Ochiai, Blocks: diagnose.DefaultBlocks,
			Cohort: diagnose.DefaultCohort, Continuous: true, Tracer: s.tracer}
		if s.jnl != nil {
			opts.Journal = s.jnl
		}
		s.eng = diagnose.Attach(s.pool, opts)
		s.srv.OnSnapshot = s.eng.HandleSnapshot
		s.srv.OnSpectrumDelta = s.eng.HandleSpectrumDelta
		if cfg.traced {
			s.srv.OnSnapshot = s.ev.onSnapshot(s.eng.HandleSnapshot)
			s.srv.OnSpectrumDelta = s.ev.onDelta(s.eng.HandleSpectrumDelta)
		}
		if cfg.journal {
			if err := s.recoverPlane(func(r *journal.Reader) error { _, err := s.eng.Recover(r); return err }); err != nil {
				return fail(fmt.Errorf("recover diagnosis: %w", err))
			}
		}

		copts := control.Options{Actuator: act, Policy: control.DefaultPolicy(),
			OnEscalate: s.eng.HandleAction, OnAction: s.recordAction}
		if s.jnl != nil {
			copts.Journal = s.jnl
		}
		s.ctl = control.Attach(s.pool, copts)
		s.srv.OnAck = s.ctl.HandleAck
		if cfg.traced {
			s.srv.OnAck = s.probe.onAck(s.ctl.HandleAck)
		}
		if cfg.journal {
			if err := s.recoverPlane(func(r *journal.Reader) error { _, err := s.ctl.Recover(r); return err }); err != nil {
				return fail(fmt.Errorf("recover control: %w", err))
			}
		}
	}

	if cfg.journal && cfg.checkpointEvery > 0 {
		cper := &fleet.Checkpointer{Pool: s.pool, Journal: s.jnl, Profile: profile}
		if s.ctl != nil {
			cper.Planes = append(cper.Planes, s.ctl.Checkpoint, s.eng.Checkpoint)
		}
		s.cpDone = make(chan struct{})
		s.cpWG.Add(1)
		go func() {
			defer s.cpWG.Done()
			cper.Run(cfg.checkpointEvery, s.cpDone)
		}()
	}

	_ = os.Remove(sock)
	ln, err := wire.Listen(s.addr)
	if err != nil {
		return fail(err)
	}
	s.ln = ln
	if cfg.traced {
		s.wire = &wireCounts{}
		ln = countingListener{Listener: ln, c: s.wire}
	}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// recoverPlane opens a fresh reader over the journal and hands it to one
// plane's Recover, timing both.
func (s *stack) recoverPlane(recover func(*journal.Reader) error) error {
	start := time.Now()
	defer func() { s.recoverTime += time.Since(start) }()
	r, err := journal.OpenReader(s.dir)
	if err != nil {
		return err
	}
	defer r.Close()
	return recover(r)
}

func (s *stack) recordAction(a control.Action) {
	s.actMu.Lock()
	s.actions[a.Device] = append(s.actions[a.Device], a.Rung)
	s.actMu.Unlock()
}

// actionsOf returns the rungs the controller took for one device, in order.
func (s *stack) actionsOf(id string) []control.Rung {
	s.actMu.Lock()
	defer s.actMu.Unlock()
	return append([]control.Rung(nil), s.actions[id]...)
}

// drain waits until the server has torn down every connection it accepted,
// so their final journal records are in before the journal closes.
func (s *stack) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		st := s.srv.Stats()
		if st.Disconnected >= st.Accepted {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// stopCheckpoints ends the periodic checkpointer and waits for it.
func (s *stack) stopCheckpoints() {
	if s.cpDone != nil {
		close(s.cpDone)
		s.cpWG.Wait()
		s.cpDone = nil
	}
}

// close shuts the stack down in traderd's drain order and waits for every
// goroutine it started.
func (s *stack) close() error {
	var errs []error
	if s.ln != nil {
		s.srv.Close()
		s.ln.Close()
		if err := <-s.serveErr; err != nil && !errors.Is(err, fleet.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.drain(5 * time.Second)
		_ = os.Remove(s.addr[len("unix:"):])
	}
	s.stopCheckpoints()
	if s.ctl != nil {
		s.ctl.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
	if s.jw != nil {
		if err := s.jw.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	s.pool.Stop()
	return errors.Join(errs...)
}
