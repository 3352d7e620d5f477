package trader_test

// End-to-end test of the durable frame journal (ISSUE 3): a fleet streams
// through an ingestion server that journals every accepted frame, the
// server is killed without any orderly journal shutdown (SIGKILL
// equivalent), the tail of the journal is torn the way a crash mid-append
// tears it — and a pool rebuilt by Pool.Replay must report exactly the
// rollup of an uninterrupted control pool that monitored the same traffic.
// Then the daemon "reboots" on the recovered pool and a client reconnects:
// it must adopt its recovered device, not be rejected as a duplicate.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

func TestE2EJournalCrashRecovery(t *testing.T) {
	const (
		devices     = 24
		framesEach  = 30
		faultyEvery = 6 // every 6th device streams a deviating level
	)
	crashID := func(i int) string { return fmt.Sprintf("crash-%03d", i) }
	levelOf := func(i int) float64 {
		if i%faultyEvery == 0 {
			return 2.0
		}
		return 0.0
	}

	dir := t.TempDir()
	// Tiny segments force rotation mid-run: recovery must stitch the fleet
	// back together across many segment files, not just one.
	jw, err := journal.Create(dir, journal.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}

	pool := fleet.NewPool(fleet.Options{Shards: 4})
	srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw}
	addr := "unix:" + filepath.Join(t.TempDir(), "wal.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := binaryOpts
			if i%2 == 1 {
				opts.Codec = wire.CodecJSON
			}
			dialE2E(t, addr, crashID(i), opts).stream(t, framesEach, levelOf(i), 10)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Crash: stop the server and pool without closing the journal writer.
	// Group commit already made every echoed frame durable — the drain
	// heartbeat each client got back doubles as a durability ack — so an
	// orderly journal shutdown must not be needed.
	srv.Close()
	ln.Close()
	pool.Stop()

	// Tear the journal's tail: a crash mid-append leaves a prefix of a
	// record — a length header promising more payload than the file holds.
	last := lastSegmentFile(t, dir)
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte{0, 0, 2, 0, 0xde, 0xad, 0xbe, 0xef}, make([]byte, 17)...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Control pool: the identical traffic, journal-less and uninterrupted,
	// through the same factory and seeds the server used.
	factory := fleet.LightMonitorFactory()
	control := fleet.NewPool(fleet.Options{Shards: 4})
	defer control.Stop()
	discard := func(wire.Message) error { return nil }
	for i := 0; i < devices; i++ {
		id := crashID(i)
		if err := control.AddRemoteDevice(id, factory, discard); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < framesEach; j++ {
			at := sim.Time(10+int64(j)*10) * sim.Millisecond
			ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", levelOf(i))
			if err := control.Dispatch(id, ev); err != nil {
				t.Fatal(err)
			}
		}
		hbAt := sim.Time(10+framesEach*10) * sim.Millisecond
		if err := control.AdvanceDevice(id, hbAt); err != nil {
			t.Fatal(err)
		}
	}
	if err := control.Sync(); err != nil {
		t.Fatal(err)
	}
	want := control.Rollup()

	// Reboot: rebuild a fresh pool from the journal.
	rec := fleet.NewPool(fleet.Options{Shards: 4})
	defer rec.Stop()
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Replay(jr, fleet.LightMonitorFactory())
	jr.Close()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !jr.Torn() {
		t.Fatal("replay did not notice the torn tail record")
	}
	if st.Devices != devices || st.Frames != devices*framesEach || st.Heartbeats != devices {
		t.Fatalf("replay stats = %s, want %d devices, %d frames, %d heartbeats",
			st, devices, devices*framesEach, devices)
	}

	// Stats conservation: the recovered fleet is indistinguishable from the
	// fleet that never crashed — device count, per-monitor counter sums,
	// dispatch totals, error reports.
	got := rec.Rollup()
	if got != want {
		t.Fatalf("recovered rollup %+v != control rollup %+v", got, want)
	}
	faulty := devices / faultyEvery
	if got.Reports != uint64(faulty) {
		t.Fatalf("recovered pool flagged %d devices, want exactly the %d faulty ones", got.Reports, faulty)
	}

	// Reboot the daemon on the recovered pool, journaling onward into the
	// same directory (Create repairs the torn tail and opens a new
	// segment). A returning client must adopt its recovered device: same
	// ID, no duplicate rejection, monitor state continued.
	jw2, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw2.Close()
	// MaxAdvance is set tight enough that the resumed timestamps (1000ms
	// against a recovered device clock of 310ms) only fit the advance
	// window if adoption anchored it at the recovered virtual time — a
	// window still anchored at zero would refuse the reconnect as a
	// runaway jump.
	srv2 := &fleet.Server{Pool: rec, Factory: fleet.LightMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw2, MaxAdvance: 800 * sim.Millisecond}
	defer srv2.Close()
	addr2 := "unix:" + filepath.Join(t.TempDir(), "wal2.sock")
	ln2, err := wire.Listen(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go srv2.Serve(ln2)

	re := dialE2E(t, addr2, crashID(1), binaryOpts)
	re.stream(t, 5, 0, 1000) // timestamps continue past the recovered clock
	if t.Failed() {
		t.FailNow()
	}
	if n := rec.Size(); n != devices {
		t.Fatalf("fleet size after reconnect = %d, want %d (adopt, not add)", n, devices)
	}
	after := rec.Rollup()
	if after.Dispatched != want.Dispatched+5 {
		t.Fatalf("dispatched after reconnect = %d, want %d", after.Dispatched, want.Dispatched+5)
	}

	// Journal-mode disconnects detach rather than remove: dropping the
	// connection must keep the device (and its timeline), and the next
	// connection for the ID adopts it again — no daemon restart involved.
	re.Close()
	waitFor(t, "disconnect observed", func() bool { return srv2.Stats().Disconnected == 1 })
	if n := rec.Size(); n != devices {
		t.Fatalf("fleet size after disconnect = %d, want %d (journal mode keeps devices)", n, devices)
	}
	re2 := dialE2E(t, addr2, crashID(1), binaryOpts)
	defer re2.Close()
	re2.stream(t, 3, 0, 1100) // resumes the same timeline, within MaxAdvance of 1050ms
	if t.Failed() {
		t.FailNow()
	}
	if n := rec.Size(); n != devices {
		t.Fatalf("fleet size after re-adoption = %d, want %d", n, devices)
	}
	if got := rec.Rollup().Dispatched; got != want.Dispatched+8 {
		t.Fatalf("dispatched after re-adoption = %d, want %d", got, want.Dispatched+8)
	}

	// And the longer journal — pre-crash segments, repaired tail, post-
	// reboot segment — still replays cleanly end to end.
	jr2, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	n := 0
	for {
		if _, err := jr2.Next(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("re-replay after reboot: record %d: %v", n, err)
		}
		n++
	}
	if jr2.Torn() {
		t.Fatal("journal still torn after Create repaired it")
	}
	// Pre-crash frames and heartbeats, plus both post-reboot sessions
	// (5 frames + heartbeat, then 3 frames + heartbeat).
	wantRecords := devices*(framesEach+1) + 6 + 4
	if n != wantRecords {
		t.Fatalf("full journal holds %d records, want %d", n, wantRecords)
	}
}

// lastSegmentFile returns the newest journal segment file in dir.
func lastSegmentFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no journal segments in %s (%v)", dir, err)
	}
	return names[len(names)-1]
}
