package trader_test

// End-to-end test of the networked fleet ingestion path (ISSUE 2): many
// remote SUO clients — the same wire client `tvsim -connect` uses — stream
// through a listening ingestion server into one sharded fleet.Pool, over a
// real Unix socket, with codec negotiation, live disconnects and stats
// conservation checked along the way.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/client"
	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/wire"
)

// e2eClient is one remote SUO on the device client (internal/client, the
// client tvsim -connect runs): its reader counts error frames, answers
// control pushes and moves the heartbeat-echo watermark Flush waits on.
type e2eClient struct {
	id string
	*client.Client
}

func dialE2E(t *testing.T, addr, id string, opts client.Options) *e2eClient {
	t.Helper()
	c, err := client.New(addr, id, opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return &e2eClient{id: id, Client: c}
}

// binaryOpts are the client options most e2es dial with.
var binaryOpts = client.Options{Codec: wire.CodecBinary}

// obsAt is the observation every e2e streams: output "out" at level x.
func obsAt(id string, at sim.Time, x float64) event.Event {
	return event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", x)
}

func (c *e2eClient) reportCount() int { return int(c.Stats().Reports) }

// stream sends n observations of the commanded level x at 10ms spacing
// starting from fromMs, then flushes, so on return every observation has
// been through this device's monitor.
func (c *e2eClient) stream(t *testing.T, n int, x float64, fromMs int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Send(obsAt(c.id, sim.Time(fromMs+int64(i)*10)*sim.Millisecond, x)); err != nil {
			t.Errorf("%s: send: %v", c.id, err)
			return
		}
	}
	if err := c.Flush(sim.Time(fromMs+int64(n)*10) * sim.Millisecond); err != nil {
		t.Errorf("%s: heartbeat echo never arrived: %v", c.id, err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestE2EFleetIngestion(t *testing.T) {
	if testing.Short() {
		// CI's race job runs -short for bounded wall time; the smoke job
		// runs the full suite, so this 120-device run is never lost.
		t.Skip("skipping 120-device e2e in -short mode")
	}
	const (
		devices     = 120
		framesEach  = 40
		faultyEvery = 10 // every 10th device streams a deviating level
	)

	pool := fleet.NewPool(fleet.Options{Shards: 4})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(), HelloTimeout: 5 * time.Second}
	defer srv.Close()
	addr := "unix:" + filepath.Join(t.TempDir(), "e2e.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// Phase 1: connect the whole fleet, alternating codecs per connection.
	clients := make([]*e2eClient, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := binaryOpts
			if i%2 == 1 {
				opts.Codec = wire.CodecJSON
			}
			clients[i] = dialE2E(t, addr, fmt.Sprintf("e2e-%06d", i), opts)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitFor(t, "all devices registered", func() bool { return pool.Size() == devices })

	// Phase 2: every device streams concurrently; faulty ones deviate from
	// the spec model's commanded level 0 and must be flagged.
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *e2eClient) {
			defer wg.Done()
			x := 0.0
			if i%faultyEvery == 0 {
				x = 2.0
			}
			c.stream(t, framesEach, x, 10)
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Stats conservation: the fleet rollup equals the per-device sum, every
	// sent frame was dispatched to a live device, and exactly the faulty
	// devices were flagged — across the wire, not just in-process.
	ro := pool.Rollup()
	if ro.Devices != devices {
		t.Fatalf("rollup devices = %d, want %d", ro.Devices, devices)
	}
	wantFrames := uint64(devices * framesEach)
	if ro.Dispatched != wantFrames || ro.Dropped != 0 {
		t.Fatalf("dispatched = %d (dropped %d), want %d dispatched, 0 dropped", ro.Dispatched, ro.Dropped, wantFrames)
	}
	var sum core.MonitorStats
	per := pool.DeviceStats()
	for _, st := range per {
		sum.Add(st)
	}
	if len(per) != devices || sum != ro.Monitor {
		t.Fatalf("per-device sum %+v != rollup %+v over %d devices", sum, ro.Monitor, len(per))
	}
	if sum.OutputsSeen != wantFrames {
		t.Fatalf("monitors saw %d outputs, want %d", sum.OutputsSeen, wantFrames)
	}
	faulty := devices / faultyEvery
	if ro.Reports != uint64(faulty) {
		t.Fatalf("fleet flagged %d devices, want exactly the %d faulty ones", ro.Reports, faulty)
	}
	for i, c := range clients {
		want := 0
		if i%faultyEvery == 0 {
			want = 1
		}
		if got := c.reportCount(); got != want {
			t.Errorf("%s received %d error frames, want %d", c.id, got, want)
		}
	}
	cs := srv.Stats()
	if cs.Accepted != devices || cs.Frames != wantFrames {
		t.Fatalf("server stats = %+v", cs)
	}

	// Phase 3: live churn — half the fleet disconnects mid-session while
	// the survivors keep streaming; the daemon must shed exactly the
	// departed devices and keep ingesting.
	for i := 0; i < devices/2; i++ {
		clients[i].Close()
	}
	waitFor(t, "departed devices removed", func() bool { return pool.Size() == devices/2 })
	for _, c := range clients[devices/2:] {
		wg.Add(1)
		go func(c *e2eClient) {
			defer wg.Done()
			c.stream(t, 10, 0, 10+framesEach*10)
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ro = pool.Rollup()
	if ro.Devices != devices/2 || ro.Dropped != 0 {
		t.Fatalf("after churn: %d devices (dropped %d), want %d", ro.Devices, ro.Dropped, devices/2)
	}

	// A departed ID's shard slot is free: it can reconnect immediately.
	re := dialE2E(t, addr, clients[0].id, binaryOpts)
	defer re.Close()
	waitFor(t, "reconnect", func() bool { return pool.Size() == devices/2+1 })
	re.stream(t, 5, 0, 1000)
}
