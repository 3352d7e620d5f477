package trader_test

// End-to-end tests of the frame-lifecycle tracing plane (ISSUE 10).
//
// TestE2ETraceExemplarFederation pins the cross-tier exemplar contract:
// devices stream through two traced edge daemons uplinking to one traced
// aggregator, and a p999 latency exemplar surfaced at the aggregator must
// resolve — via the edge's tracer — to the full span chain of one frame's
// lifecycle, rooted at its ingest span.
//
// TestE2EIncidentBundleReplay pins the incident-bundle determinism
// contract: bundles written live at the moment the control ladder fired
// must be byte-identical to bundles rebuilt later by replaying the
// journal, even though the run kept journaling actions past each trigger.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/federate"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

// startTracedEdge is startE2EEdge with the tracing plane wired through all
// three layers the way traderd wires it: the same tracer on the pool (the
// dispatch/monitor half), the server (ingest/credit/journal half and the
// forced control plane) and the uplink (exemplar-carrying rollups). The
// seed is pinned so a failure reproduces with the same IDs; SampleN 1
// traces every frame, so the exemplar chain is never sampled away.
func startTracedEdge(t *testing.T, upstream string, rng, of int, seed uint64) (*e2eEdge, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Options{Shards: 4, SampleN: 1, Seed: seed})
	e := &e2eEdge{id: fmt.Sprintf("edge-%d", rng), dir: t.TempDir(), done: make(chan struct{})}
	jw, err := journal.Create(e.dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.jw = jw
	e.pool = fleet.NewPool(fleet.Options{Shards: 4, Tracer: tr})
	t.Cleanup(e.pool.Stop)
	e.srv = &fleet.Server{Pool: e.pool, Factory: fleet.LightMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw, Tracer: tr}
	e.addr = "unix:" + filepath.Join(t.TempDir(), e.id+".sock")
	ln, err := wire.Listen(e.addr)
	if err != nil {
		t.Fatal(err)
	}
	e.ln = ln
	go e.srv.Serve(ln)
	e.edge = &federate.Edge{
		Upstream: upstream, Range: rng, Of: of, ID: e.id,
		Sample:  federate.PoolSampler(e.pool, e.srv),
		Pool:    e.pool,
		Factory: fleet.LightMonitorFactory(),
		Journal: jw, JournalDir: e.dir,
		Flush:  10 * time.Millisecond,
		Tracer: tr,
		Logf:   t.Logf,
	}
	e.ran = make(chan struct{})
	go func() {
		defer close(e.ran)
		e.edge.Run(e.done)
	}()
	t.Cleanup(e.kill)
	return e, tr
}

func TestE2ETraceExemplarFederation(t *testing.T) {
	const (
		devices = 16
		ranges  = 2
		frames  = 24
	)

	aggTr := trace.New(trace.Options{Shards: 1, SampleN: 1, Seed: 0xa66})
	agg := &federate.Aggregator{Ranges: ranges, Logf: t.Logf, Tracer: aggTr}
	aln, err := wire.Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go agg.Serve(aln)
	t.Cleanup(agg.Close)
	upstream := "tcp:" + aln.Addr().String()

	edge0, tr0 := startTracedEdge(t, upstream, 0, ranges, 0xed6e0)
	edge1, tr1 := startTracedEdge(t, upstream, 1, ranges, 0xed6e1)
	edges := []*e2eEdge{edge0, edge1}
	tracers := []*trace.Tracer{tr0, tr1}

	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("tdev-%03d", i)
		e := edges[fleet.RangeOf(id, ranges)]
		c := dialE2E(t, e.addr, id, binaryOpts)
		defer c.Close()
		c.stream(t, frames, 0.0, 0)
	}
	waitFor(t, "aggregator sees every device", func() bool {
		return agg.View().Devices == devices
	})

	// 1. Each edge's p999 exemplar resolves locally to a complete frame
	// lifecycle: an ingest root with journal, dispatch and monitor spans
	// causally chained under it, all owned by one device.
	for i, e := range edges {
		lat := e.pool.Latency()
		ex := lat.Exemplar(0.999)
		if ex == 0 {
			t.Fatalf("%s: no p999 exemplar after %d traced frames", e.id, frames)
		}
		chain := tracers[i].Trace(ex)
		if len(chain) == 0 {
			t.Fatalf("%s: exemplar %s resolves to no retained spans", e.id, trace.ID(ex))
		}
		byKind := map[trace.Kind]trace.Span{}
		for _, s := range chain {
			byKind[s.Kind] = s
		}
		ingest, ok := byKind[trace.KindIngest]
		if !ok {
			t.Fatalf("%s: exemplar chain %s has no ingest root: %+v", e.id, trace.ID(ex), chain)
		}
		if ingest.Parent != 0 {
			t.Fatalf("%s: ingest span is not the chain's root (parent %s)", e.id, trace.ID(ingest.Parent))
		}
		for _, k := range []trace.Kind{trace.KindJournal, trace.KindDispatch, trace.KindMonitor} {
			s, ok := byKind[k]
			if !ok {
				t.Fatalf("%s: exemplar chain %s missing %s span: %+v", e.id, trace.ID(ex), k, chain)
			}
			if s.Device != ingest.Device {
				t.Fatalf("%s: %s span owned by %q, ingest by %q", e.id, k, s.Device, ingest.Device)
			}
		}
		// The causal edges the §6.2 taxonomy promises: journal and dispatch
		// parent on ingest, monitor on dispatch.
		if byKind[trace.KindJournal].Parent != ingest.SpanID {
			t.Fatalf("%s: journal span parents on %s, want ingest %s",
				e.id, trace.ID(byKind[trace.KindJournal].Parent), trace.ID(ingest.SpanID))
		}
		if byKind[trace.KindDispatch].Parent != ingest.SpanID {
			t.Fatalf("%s: dispatch span parents on %s, want ingest %s",
				e.id, trace.ID(byKind[trace.KindDispatch].Parent), trace.ID(ingest.SpanID))
		}
		if byKind[trace.KindMonitor].Parent != byKind[trace.KindDispatch].SpanID {
			t.Fatalf("%s: monitor span parents on %s, want dispatch %s",
				e.id, trace.ID(byKind[trace.KindMonitor].Parent), trace.ID(byKind[trace.KindDispatch].SpanID))
		}
	}

	// 2. The cross-tier link: the aggregator retains a receive-side uplink
	// span whose trace ID resolves on an edge to an ingest-rooted chain
	// that also carries the edge-side uplink span — one trace spanning a
	// frame's lifecycle on the edge AND its exemplar's ride upstream.
	var crossTrace uint64
	waitFor(t, "aggregator uplink span resolving to an edge ingest chain", func() bool {
		for _, s := range aggTr.Snapshot() {
			if s.Kind != trace.KindUplink {
				continue
			}
			for _, tr := range tracers {
				var haveIngest, haveUplink bool
				for _, es := range tr.Trace(s.TraceID) {
					haveIngest = haveIngest || es.Kind == trace.KindIngest
					haveUplink = haveUplink || es.Kind == trace.KindUplink
				}
				if haveIngest && haveUplink {
					crossTrace = s.TraceID
					return true
				}
			}
		}
		return false
	})
	t.Logf("cross-tier exemplar trace %s resolved through the federation", trace.ID(crossTrace))

	// 3. Nothing in the steady state touches the forced ring: overflow is
	// zero everywhere (the invariant the CI chaos job scrapes), and the
	// sampled rings actually recorded the fleet's traffic.
	for i, tr := range append(tracers, aggTr) {
		if n := tr.ForcedOverflow(); n != 0 {
			t.Fatalf("tracer %d: %d forced spans evicted in a run with no control traffic", i, n)
		}
	}
	if tr0.Written() == 0 || tr1.Written() == 0 || aggTr.Written() == 0 {
		t.Fatalf("span counts: edge0 %d, edge1 %d, aggregator %d — every tier must record",
			tr0.Written(), tr1.Written(), aggTr.Written())
	}
}

// liveBundle is one incident bundle as written at escalation time, kept
// for the post-run replay comparison.
type liveBundle struct {
	device string
	seq    int
	rung   control.Rung
	det    []byte // the deterministic half, as marshalled live
	dir    string // the bundle directory on disk
}

func TestE2EIncidentBundleReplay(t *testing.T) {
	const (
		devices = 6
		ticks   = 150
		tick    = 10 * sim.Millisecond
		latency = 40 * sim.Millisecond
	)
	id := func(i int) string { return fmt.Sprintf("ib-%03d", i) }
	faultyID := id(0) // device 0 deviates persistently; the rest stay clean

	dir := t.TempDir()
	bundleRoot := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Shards: 2, SampleN: 1, Seed: 0xb0b})
	pool := fleet.NewPool(fleet.Options{Shards: 2, Tracer: tr})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, Factory: silenceMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw, Tracer: tr}
	defer srv.Close()

	// The incident hook does what traderd's -incident-dir recorder does:
	// scan the journal up to the triggering action (already appended — the
	// OnIncident contract) and write the bundle directory. The scan
	// retries briefly because concurrent appends may leave a torn record
	// at the tail of the segment a just-opened reader is walking.
	var mu sync.Mutex
	var bundles []liveBundle
	seqs := map[string]int{}
	onIncident := func(a control.Action) {
		mu.Lock()
		defer mu.Unlock()
		seqs[a.Device]++
		seq := seqs[a.Device]
		var inc *trace.Incident
		var ierr error
		for try := 0; try < 50; try++ {
			r, err := journal.OpenReader(dir)
			if err != nil {
				ierr = err
			} else {
				inc, ierr = trace.BuildIncident(r, a.Device, seq)
				r.Close()
			}
			if ierr == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if ierr != nil {
			t.Errorf("live incident %s/%d: %v", a.Device, seq, ierr)
			return
		}
		det, err := inc.Marshal()
		if err != nil {
			t.Errorf("marshal incident %s/%d: %v", a.Device, seq, err)
			return
		}
		var spans []trace.Span
		for _, s := range tr.Snapshot() {
			if s.Device == a.Device || s.Forced {
				spans = append(spans, s)
			}
		}
		live := &trace.LiveReport{
			WrittenNS: time.Now().UnixNano(),
			Rung:      a.Rung.String(), Class: a.Class.String(),
			Counters: map[string]int64{"credit_grants": int64(srv.Stats().CreditGrants)},
			Spans:    trace.Export(spans),
		}
		bdir, err := trace.WriteBundle(bundleRoot, inc, live)
		if err != nil {
			t.Errorf("write bundle %s/%d: %v", a.Device, seq, err)
			return
		}
		bundles = append(bundles, liveBundle{device: a.Device, seq: seq, rung: a.Rung, det: det, dir: bdir})
	}

	pol := control.Policy{Name: "e2e-trace", Tolerate: 1, Resets: 1, Restarts: 1,
		RestartLatency: latency, Cooldown: 10 * sim.Second}
	ctl := control.Attach(pool, control.Options{
		Actuator: srv, Journal: jw, Policy: pol, Logf: t.Logf,
		OnIncident: onIncident,
	})
	defer ctl.Close()
	srv.OnAck = ctl.HandleAck

	addr := "unix:" + filepath.Join(t.TempDir(), "ib.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// Drive the fleet: clean devices for the full horizon, the faulty one
	// until the ladder quarantines it (it keeps producing evidence through
	// its own restart, exactly like the recovery e2e's clients).
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialE2E(t, addr, id(i), binaryOpts)
			defer c.Close()
			x := 0.0
			if i == 0 {
				x = 2.0
			}
			step := func(n int) {
				_ = c.Send(obsAt(id(i), sim.Time(n)*tick, x))
				if n%10 == 0 {
					_ = c.Flush(sim.Time(n) * tick)
				}
			}
			for n := 1; n <= ticks; n++ {
				if c.Stats().Quarantines > 0 {
					return
				}
				step(n)
			}
			for n := ticks + 1; n <= 2000 && c.Stats().Quarantines == 0; n++ {
				if c.Stats().Down {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				step(n)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitFor(t, "faulty device quarantined", func() bool {
		return ctl.Rollup().Quarantined == 1
	})
	ctl.Sync()

	// Two incidents fired — the restart trigger and the quarantine trigger
	// — both for the faulty device, in rung order.
	mu.Lock()
	got := append([]liveBundle(nil), bundles...)
	mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("%d incident bundles written, want 2 (restart, quarantine): %+v", len(got), got)
	}
	for i, want := range []control.Rung{control.RungRestart, control.RungQuarantine} {
		if got[i].device != faultyID || got[i].seq != i+1 || got[i].rung != want {
			t.Fatalf("bundle %d is %s/%d at %s, want %s/%d at %s",
				i, got[i].device, got[i].seq, got[i].rung, faultyID, i+1, want)
		}
	}

	// Seal the journal the way a crashed-then-replayed daemon would see it.
	srv.Close()
	ln.Close()
	ctl.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, b := range got {
		// 1. Replay determinism: rebuilding the incident from the sealed
		// journal reproduces the live bundle byte for byte — the actions
		// and evidence journaled after each trigger (the run kept going all
		// the way to quarantine) must not leak in.
		r, err := journal.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := trace.BuildIncident(r, b.device, b.seq)
		r.Close()
		if err != nil {
			t.Fatalf("replay incident %s/%d: %v", b.device, b.seq, err)
		}
		replayed, err := inc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(replayed, b.det) {
			t.Fatalf("incident %s/%d: replay differs from live bundle:\nlive:\n%s\nreplay:\n%s",
				b.device, b.seq, b.det, replayed)
		}
		onDisk, err := os.ReadFile(filepath.Join(b.dir, "bundle.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, b.det) {
			t.Fatalf("incident %s/%d: bundle.json on disk differs from the live marshal", b.device, b.seq)
		}

		// 2. The deterministic half carries the full ladder history through
		// its trigger and nothing past it.
		wantRungs := []string{"tolerate", "reset", "restart"}
		if b.seq == 2 {
			wantRungs = append(wantRungs, "quarantine")
		}
		if len(inc.Actions) != len(wantRungs) {
			t.Fatalf("incident %s/%d: %d actions %+v, want rungs %v",
				b.device, b.seq, len(inc.Actions), inc.Actions, wantRungs)
		}
		for i, a := range inc.Actions {
			if a.Rung != wantRungs[i] {
				t.Fatalf("incident %s/%d action %d: rung %q, want %q", b.device, b.seq, i, a.Rung, wantRungs[i])
			}
		}

		// 3. The live half holds the flight-recorder evidence: at least one
		// forced control span for the escalated device (the push that can
		// never be sampled away), and a live.json that parses.
		var live trace.LiveReport
		lb, err := os.ReadFile(filepath.Join(b.dir, "live.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(lb, &live); err != nil {
			t.Fatalf("incident %s/%d: live.json: %v", b.device, b.seq, err)
		}
		if live.Rung != b.rung.String() {
			t.Fatalf("incident %s/%d: live rung %q, want %q", b.device, b.seq, live.Rung, b.rung)
		}
		var forcedControl bool
		for _, s := range live.Spans {
			if s.Kind == "control" && s.Forced && s.Device == b.device {
				forcedControl = true
				break
			}
		}
		if !forcedControl {
			t.Fatalf("incident %s/%d: live.json holds no forced control span for the device (%d spans)",
				b.device, b.seq, len(live.Spans))
		}
	}

	// The forced ring never overflowed: every control span the incidents
	// rely on was still retained when the bundles were cut.
	if n := tr.ForcedOverflow(); n != 0 {
		t.Fatalf("forced ring evicted %d spans during a four-action episode", n)
	}

	// A full pool replay of the sealed journal still works with the traced
	// frames in it — trace contexts on journaled control pushes are replay
	// metadata, not state.
	rec := fleet.NewPool(fleet.Options{Shards: 2})
	defer rec.Stop()
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Replay(jr, silenceMonitorFactory())
	jr.Close()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st.Devices != devices {
		t.Fatalf("replay rebuilt %d devices, want %d", st.Devices, devices)
	}
}
