package trader_test

// End-to-end test of the overload plane (ISSUE 7): a flooding client and a
// shard-stalling client gang up on one shard of a live, journaling
// ingestion daemon while a baseline fleet streams through the other
// shards. The daemon must (1) shed in tier order — observations first,
// control traffic never — (2) keep the baseline shards' ingest-to-dispatch
// p99 inside the SLO while the flooded shard saturates, (3) conserve
// stats: every observation sent is either dispatched or counted shed, and
// (4) journal shed markers write-ahead so a replayed pool reports exactly
// the live rollup, refused frames included, without re-seeing them.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/client"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// dialOvl dials one flow-controlled remote SUO and checks its Hello grant.
func dialOvl(t *testing.T, addr, id string, wantWindow uint32) *e2eClient {
	t.Helper()
	c := dialE2E(t, addr, id, client.Options{Codec: wire.CodecBinary, Durability: wire.DurFsync})
	if granted := c.Stats().Window; granted != wantWindow {
		t.Fatalf("%s: hello granted %d credits, want %d", id, granted, wantWindow)
	}
	return c
}

// sendObs streams n observations at 1ms spacing from fromMs through the
// client's credit window: it never puts a frame on the wire without a
// local credit, so the server's balance (always ≥ ours) cannot hit a
// violation. A window left unreplenished for 10s closes the client, which
// fails the send.
func sendObs(t *testing.T, c *e2eClient, n int, fromMs int64) {
	t.Helper()
	watchdog := time.AfterFunc(10*time.Second, c.Close)
	defer watchdog.Stop()
	for i := 0; i < n; i++ {
		watchdog.Reset(10 * time.Second)
		if err := c.Send(obsAt(c.id, sim.Time(fromMs+int64(i))*sim.Millisecond, 0)); err != nil {
			t.Fatalf("%s: send (credit window never replenished?): %v", c.id, err)
		}
	}
}

// drain flushes at atMs — the barrier whose echo also carries the
// replenishment grant. Near saturation the heartbeat itself may be tier-2
// shed (no echo); Flush re-solicits with a nudged timestamp until one
// lands, exactly like a paced real client would.
func drain(t *testing.T, c *e2eClient, atMs int64) {
	t.Helper()
	if err := c.Flush(sim.Time(atMs) * sim.Millisecond); err != nil {
		t.Fatalf("%s: %v", c.id, err)
	}
}

func TestE2EOverloadShedsInTiersAndHoldsSLO(t *testing.T) {
	const (
		shards  = 4
		queue   = 64                     // small on purpose: overrunable by one window
		window  = 512                    // credit window > queue: bursts can overflow
		stall   = 200 * sim.Second       // per-heartbeat clock jump ≈ 20k timer steps
		bursts  = 4                      // flood rounds, each one full window
		slo     = 500 * time.Millisecond // baseline-shard p99 bound (generous for CI)
		nBase   = 9
		baseObs = 100 // per cycle, 3 cycles each
		nCycles = 3
	)

	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: shards, Queue: queue})
	srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw,
		CreditWindow: window, ShedObservationsAt: 0.75, ShedHeartbeatsAt: 0.95}
	addr := "unix:" + filepath.Join(t.TempDir(), "ovl.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// Mine device IDs by shard: staller and flooder share a victim shard;
	// the baseline fleet spreads over the other shards (FNV routing is
	// deterministic, so we just probe candidates).
	mine := func(prefix string, ok func(shard int) bool) string {
		for i := 0; ; i++ {
			id := fmt.Sprintf("%s-%03d", prefix, i)
			if ok(pool.ShardOf(id)) {
				return id
			}
		}
	}
	stallerID := mine("ovl-stall", func(int) bool { return true })
	victim := pool.ShardOf(stallerID)
	flooderID := mine("ovl-flood", func(s int) bool { return s == victim })
	baseIDs := make([]string, 0, nBase)
	for i := 0; len(baseIDs) < nBase; i++ {
		id := fmt.Sprintf("ovl-base-%03d", i)
		if pool.ShardOf(id) != victim {
			baseIDs = append(baseIDs, id)
		}
	}

	staller := dialOvl(t, addr, stallerID, window)
	flooder := dialOvl(t, addr, flooderID, window)
	bases := make([]*e2eClient, nBase)
	for i, id := range baseIDs {
		bases[i] = dialOvl(t, addr, id, window)
	}
	waitFor(t, "fleet registered", func() bool { return pool.Size() == 2+nBase })

	// Baseline fleet: paced steady streaming on the healthy shards, running
	// concurrently with the flood so its latency is measured under fire.
	var wg sync.WaitGroup
	for _, c := range bases {
		wg.Add(1)
		go func(c *e2eClient) {
			defer wg.Done()
			for cycle := 0; cycle < nCycles; cycle++ {
				from := int64(1 + cycle*(baseObs+10))
				sendObs(t, c, baseObs, from)
				drain(t, c, from+baseObs)
				time.Sleep(20 * time.Millisecond)
			}
		}(c)
	}

	// The attack: each round, the staller's heartbeat jumps its clock 200
	// virtual seconds — tens of thousands of timer steps executed on the
	// victim shard goroutine — and the flooder pours a full credit window
	// into the stalled shard's queue. The queue (64) is a fraction of the
	// window (512), so admission control must shed; the flooder stays
	// credit-compliant throughout, proving flow control alone does not
	// protect a shard (that is the shed tier's job) while replenishment
	// keeps the compliant flooder streaming round after round.
	for burst := 0; burst < bursts; burst++ {
		at := sim.Time(burst+1) * stall
		if err := staller.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: stallerID, At: at}); err != nil {
			t.Fatalf("staller heartbeat: %v", err)
		}
		time.Sleep(10 * time.Millisecond) // let the advance occupy the shard
		sendObs(t, flooder, window, int64(1+burst*(window+10)))
		if burst == 1 {
			// Mid-flood, the control plane must cut through: a push to the
			// device on the most pressured shard, never shed, never queued.
			if err := srv.Control(stallerID, wire.CtrlReset); err != nil {
				t.Fatalf("control push during flood: %v", err)
			}
		}
		drain(t, flooder, int64(1+burst*(window+10)+window))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	drain(t, staller, int64((bursts+1)*200_000))
	waitFor(t, "control push delivered", func() bool { return staller.Stats().Controls >= 1 })

	// Everything is flushed (every client holds a final echo). Close the
	// clients and read the books.
	staller.Close()
	flooder.Close()
	for _, c := range bases {
		c.Close()
	}
	waitFor(t, "disconnects observed", func() bool {
		return srv.Stats().Disconnected == uint64(2+nBase)
	})

	ro := pool.Rollup()
	cs := srv.Stats()

	// Tier ordering: observations shed (the queue was overrun four times),
	// control never — and nothing punched through out of order.
	if ro.ShedObservations == 0 {
		t.Fatalf("no observations shed: %d frames through a %d-deep queue never built pressure", flooder.Stats().Sent, queue)
	}
	if ro.ShedControl != 0 {
		t.Fatalf("control traffic shed %d times — the never-shed tier broke", ro.ShedControl)
	}
	if ro.ShedHeartbeats > ro.ShedObservations {
		t.Fatalf("heartbeats shed more than observations (%d > %d): tier order inverted",
			ro.ShedHeartbeats, ro.ShedObservations)
	}

	// The compliant flooder was never disconnected: flow control held (its
	// shed frames still consumed credits), and replenishment kept it
	// streaming — every burst after the first ran on echoed grants.
	if cs.CreditViolations != 0 {
		t.Fatalf("%d credit violations from compliant clients", cs.CreditViolations)
	}
	wantSent := uint64(bursts * window)
	if got := flooder.Stats().Sent; got != wantSent {
		t.Fatalf("flooder sent %d frames, want %d — replenishment stalled it", got, wantSent)
	}

	// Stats conservation, sheds included: every observation put on the wire
	// was either dispatched through a monitor or counted refused. Nothing
	// vanished, nothing was double-counted.
	var sent uint64
	for _, c := range append([]*e2eClient{staller, flooder}, bases...) {
		sent += c.Stats().Sent
	}
	if ro.Dispatched+ro.ShedObservations != sent || ro.Dropped != 0 || ro.Quarantined != 0 {
		t.Fatalf("conservation broke: sent %d != dispatched %d + shed %d (dropped %d, quarantined %d)",
			sent, ro.Dispatched, ro.ShedObservations, ro.Dropped, ro.Quarantined)
	}
	if cs.Frames != ro.Dispatched {
		t.Fatalf("server dispatched %d observation frames, pool counted %d", cs.Frames, ro.Dispatched)
	}

	// The latency SLO: the flooded shard may be arbitrarily slow — that is
	// what shedding is for — but every baseline shard's p99 stays bounded.
	for i := 0; i < pool.Shards(); i++ {
		s := pool.ShardLatency(i)
		if s.Count() == 0 {
			continue
		}
		p99 := s.Quantile(0.99)
		if i == victim {
			t.Logf("victim shard %d: %d admitted, p99 %v (unbounded by design)", i, s.Count(), p99)
			continue
		}
		if p99 > slo {
			t.Fatalf("baseline shard %d p99 = %v, over the %v SLO — the flood leaked across shards", i, p99, slo)
		}
	}

	// Replay: tear everything down and rebuild a pool from the journal. The
	// shed-marker records must restore the refused-frame counters without
	// the refused frames themselves, so the replayed rollup — monitor
	// counters, dispatch totals, shed tiers — is byte-for-byte the live one.
	srv.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Stop()

	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	rec := fleet.NewPool(fleet.Options{Shards: shards, Queue: queue})
	defer rec.Stop()
	st, err := rec.Replay(jr, fleet.LightMonitorFactory())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if jr.Torn() {
		t.Fatal("cleanly closed journal reads as torn")
	}
	if st.Sheds == 0 {
		t.Fatalf("replay saw no shed markers (stats %s), but the live run shed %d observations", st, ro.ShedObservations)
	}
	if st.Frames != int(ro.Dispatched) {
		t.Fatalf("replay re-dispatched %d frames, live pool dispatched %d — shed frames leaked into the journal", st.Frames, ro.Dispatched)
	}
	if st.Devices != 2+nBase {
		t.Fatalf("replay rebuilt %d devices, want %d", st.Devices, 2+nBase)
	}
	if got := rec.Rollup(); got != ro {
		t.Fatalf("replayed rollup %+v != live rollup %+v", got, ro)
	}
}
