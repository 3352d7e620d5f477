// Command tvsim runs the TV simulator as a standalone SUO process: it plays
// a user scenario, injects faults from a schedule, and (optionally) streams
// its events to a traderd monitor over a Unix socket — the full Fig. 2
// deployment across a real process boundary.
//
// With -connect it becomes a fleet of remote SUOs: it spins up N simulated
// TVs, each a device client (internal/client) dialing a `traderd -listen`
// ingestion daemon on its own connection (Unix socket or TCP), performing
// the Hello handshake (-codec picks the wire codec) and streaming its
// events; error reports and control commands pushed down by the daemon are
// counted per device. Every -fault-every'th device runs the fault schedule,
// so a known fraction of the fleet misbehaves. Devices honor the recovery
// control plane of `traderd -recover`: CtrlReset is acknowledged,
// CtrlRestart re-handshakes and resumes streaming, CtrlQuarantine is
// acknowledged and takes the device out of service.
// Each device also carries a spectral flight recorder (internal/diagnose):
// block coverage over the shared program layout, one window per heartbeat,
// served back on the daemon's TypeSnapshotReq pulls so `traderd -diagnose`
// can localize a faulty device's defective code block fleet-wide.
//
// Usage:
//
//	tvsim [-seed 1] [-duration 20] [-socket /tmp/trader.sock]
//	      [-faults video-crash,txt-sync,audio-skew]
//	tvsim -connect unix:/tmp/trader-fleet.sock -n 100 [-codec binary]
//	      [-duration 20] [-faults txt-sync] [-fault-every 10]
//	      [-pace 5] [-blocks 60000]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"trader/internal/client"
	"trader/internal/core"
	"trader/internal/diagnose"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/sim"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// fatal is the slog replacement for log.Fatalf: one error record, exit 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// knownFaults maps schedule names to fault definitions.
var knownFaults = map[string]faults.Fault{
	"video-crash": {ID: "video-crash", Kind: faults.TaskCrash, Target: "video", At: 5 * sim.Second},
	"txt-sync":    {ID: "txt-sync", Kind: faults.SyncLoss, Target: "teletext", At: 8 * sim.Second, Duration: 4 * sim.Second},
	"audio-skew":  {ID: "audio-skew", Kind: faults.ValueCorruption, Target: "audio", At: 12 * sim.Second, Param: -15},
	"overload":    {ID: "overload", Kind: faults.Overload, Target: "video", At: 6 * sim.Second, Duration: 5 * sim.Second, Param: 2.5},
	"bad-input":   {ID: "bad-input", Kind: faults.BadInput, Target: "tuner", At: 4 * sim.Second, Duration: 3 * sim.Second, Param: 0.4},
}

func parseFaults(list string) ([]faults.Fault, error) {
	if list == "" {
		return nil, nil
	}
	var out []faults.Fault
	for _, name := range strings.Split(list, ",") {
		fault, ok := knownFaults[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown fault %q", name)
		}
		out = append(out, fault)
	}
	return out, nil
}

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	duration := flag.Int("duration", 20, "virtual seconds to run")
	socket := flag.String("socket", "", "traderd unix socket to stream events to (empty: standalone)")
	connect := flag.String("connect", "", "traderd -listen address to join as a remote fleet (unix:/path or tcp:host:port)")
	n := flag.Int("n", 100, "number of simulated TVs in -connect mode")
	codec := flag.String("codec", wire.CodecBinary, "wire codec to request in -connect mode: json or binary")
	faultEvery := flag.Int("fault-every", 10, "in -connect mode, run the fault schedule on every k'th device (0: none)")
	faultList := flag.String("faults", "txt-sync", "comma-separated fault schedule; available: video-crash,txt-sync,audio-skew,overload,bad-input")
	blocks := flag.Int("blocks", diagnose.DefaultBlocks, "in -connect mode, spectral-recorder block count (must match traderd -diagnose-blocks)")
	deltas := flag.Bool("deltas", false, "in -connect mode, piggyback a sparse spectrum delta on every heartbeat (traderd -diagnose-continuous folds them as they arrive; also enables delta traffic from chaos baseline clients)")
	pace := flag.Float64("pace", 0, "in -connect mode, virtual seconds per wall second (0: run as fast as possible); paced fleets behave like real-time devices")
	durability := flag.String("durability", string(wire.DurFsync), "in -connect mode, durability class to request in the Hello handshake: fsync (ack = journaled) or dispatch (ack = monitored; long-tail devices)")
	chaos := flag.Bool("chaos", false, "in -connect mode, run the overload soak instead of the fleet scenario: floods, credit-hostile clients, connection churn, flapping, slow readers and byzantine frames around a steady baseline; -duration is wall seconds")
	idPrefix := flag.String("id-prefix", "tvsim", "in -connect mode, device-ID prefix (IDs are PREFIX-000000…); give each tvsim instance its own prefix when several feed one fleet — e.g. one per federation edge — so their device identities stay disjoint")
	logFormat := flag.String("log-format", "text", "structured log output: text or json")
	flag.Parse()

	switch *logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text", "":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fmt.Fprintf(os.Stderr, "tvsim: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}

	schedule, err := parseFaults(*faultList)
	if err != nil {
		fatal("bad -faults", "err", err)
	}
	dur, ok := wire.DurabilityByName(*durability)
	if !ok {
		fatal("unknown -durability", "durability", *durability)
	}

	if *chaos {
		if *connect == "" {
			fatal("-chaos requires -connect (it soaks a live traderd)")
		}
		if err := runChaos(*connect, *idPrefix, *n, *codec, *seed, *duration, dur, *deltas, *blocks); err != nil {
			fatal("chaos soak failed", "err", err)
		}
		return
	}

	if *connect != "" {
		if err := runFleet(*connect, *idPrefix, *n, *codec, *seed, *duration, *faultEvery, *blocks, *pace, dur, *deltas, schedule); err != nil {
			fatal("fleet session failed", "err", err)
		}
		return
	}
	runStandalone(*seed, *duration, *socket, schedule)
}

// scenario schedules the watching user on the TV: power on, teletext,
// periodic volume nudges, and returns the horizon to run to.
func scenario(k *sim.Kernel, tv *tvsim.TV, duration int) sim.Time {
	tv.PressKey(tvsim.KeyPower)
	tv.PressKey(tvsim.KeyText)
	horizon := sim.Time(duration) * sim.Second
	for t := sim.Second; t < horizon; t += 2 * sim.Second {
		up := (t/sim.Second)%4 == 1
		k.ScheduleAt(t, func() {
			if up {
				tv.PressKey(tvsim.KeyVolUp)
			} else {
				tv.PressKey(tvsim.KeyVolDown)
			}
		})
	}
	return horizon
}

// deviceStats aggregates what one remote TV saw during a -connect session:
// the scenario's own counts next to its client's.
type deviceStats struct {
	keys, frames int
	deltas       uint64
	client.Stats
}

// runOne connects one simulated TV to the ingestion daemon and plays the
// scenario to the horizon, streaming every bus event over the wire. The
// client honors whatever the recovery control plane pushes back: resets
// are acked, a restart re-handshakes and resumes (frames emitted while
// down are lost: that is the downtime the controller accounts), a
// quarantine stops the device for good. The device's spectral recorder
// shadows the session: every bus event maps onto the shared program
// layout, a heartbeat each virtual second closes the coverage window, and
// a faulty device's schedule marks the targeted feature's code as
// defective — so a traderd -diagnose pull, answered from the recorder, can
// localize the fault block across the fleet.
func runOne(addr, id, codec string, seed int64, duration, blocks int, pace float64, dur wire.Durability, deltas bool, schedule []faults.Fault) (deviceStats, error) {
	var st deviceStats
	rec := diagnose.NewRecorder(diagnose.RecorderOptions{Blocks: blocks, Seed: seed})
	for _, f := range schedule {
		if feat, ok := diagnose.FeatureOfComponent(f.Target); ok {
			rec.InjectFault(feat)
		}
	}
	d, err := client.New(addr, id, client.Options{Codec: codec, Durability: dur, Snapshot: rec.Snapshot})
	if err != nil {
		return st, err
	}

	k := sim.NewKernel(seed)
	tv := tvsim.New(k, tvsim.Config{})
	for _, f := range schedule {
		tv.Injector().Schedule(f)
	}
	var frames int
	tv.Bus().Subscribe("frame", func(event.Event) { frames++ })
	sub := tv.Bus().Subscribe("", func(e event.Event) {
		if e.Kind == event.Err {
			return
		}
		rec.Observe(e)
		_ = d.Send(e) // dropped while the device is down
	})
	defer sub.Unsubscribe()

	// A heartbeat every virtual second: the flush-barrier pacing for the
	// daemon and the window boundary for the spectral recorder. With -deltas
	// the closing window rides along as a sparse spectrum delta just before
	// the heartbeat — continuous diagnosis evidence, no pull required. Deltas
	// spend no credit: like heartbeats they are bounded per virtual second,
	// not per observation, and the daemon sheds them under pressure instead.
	hb := k.Every(sim.Second, func() {
		at := k.Now()
		if deltas {
			delta := rec.RotateDelta(at)
			if d.Encode(wire.Message{Type: wire.TypeSpectrumDelta, SUO: id, At: at, Delta: delta}) == nil {
				st.deltas++
			}
		} else {
			rec.Rotate(at)
		}
		_ = d.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at})
	})
	defer hb.Stop()

	// With pacing, virtual time tracks wall time (pace virtual seconds per
	// wall second) instead of racing ahead as fast as the CPU allows — the
	// cadence of a real device in the field. A paced fleet keeps the
	// daemon's per-connection backlog near zero, so recovery pushes and
	// diagnosis pulls interleave with the stream the way they would in
	// production rather than racing a seconds-deep queue.
	horizon := scenario(k, tv, duration)
	if pace > 0 {
		// Pace against absolute deadlines on the monotonic clock, not a
		// fixed sleep per burst: sleeping wallStep AFTER each k.Run adds the
		// burst's own processing time to every period, so the cadence
		// drifted late by the accumulated work — minutes over a long paced
		// session. Sleeping until start+i*wallStep absorbs the work time
		// instead of stacking it.
		wallStep := time.Duration(float64(time.Second) / pace)
		start := time.Now()
		for i, t := 1, k.Now()+sim.Second; t <= horizon; i, t = i+1, t+sim.Second {
			k.Run(t)
			time.Sleep(time.Until(start.Add(time.Duration(i) * wallStep)))
		}
	}
	k.Run(horizon)

	// Drain: flush at the horizon, so the daemon has monitored the stream's
	// tail (snapshot replies included) before the connection closes. A
	// device that ended the session down (restarting or quarantined) has
	// nothing to drain.
	_ = d.Flush(horizon)
	d.Close()
	st.keys, st.frames, st.Stats = int(tv.KeysHandled), frames, d.Stats()
	return st, nil
}

// runFleet drives n concurrent remote TVs against the ingestion daemon.
func runFleet(addr, prefix string, n int, codec string, seed int64, duration, faultEvery, blocks int, pace float64, dur wire.Durability, deltas bool, schedule []faults.Fault) error {
	slog.Info("connecting fleet", "component", "fleet",
		"tvs", n, "addr", addr, "codec", codec, "durability", string(dur), "fault_every", faultEvery)
	start := time.Now()
	var wg sync.WaitGroup
	stats := make([]deviceStats, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sched []faults.Fault
			if faultEvery > 0 && i%faultEvery == 0 {
				sched = schedule
			}
			id := fmt.Sprintf("%s-%06d", prefix, i)
			stats[i], errs[i] = runOne(addr, id, codec, seed+int64(i), duration, blocks, pace, dur, deltas, sched)
		}(i)
	}
	wg.Wait()

	var ok int
	var sum deviceStats
	var firstErr error
	for i := range stats {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s-%06d: %w", prefix, i, errs[i])
			}
			continue
		}
		ok++
		st := stats[i]
		sum.keys += st.keys
		sum.frames += st.frames
		sum.deltas += st.deltas
		sum.Reports += st.Reports
		sum.Controls += st.Controls
		sum.Restarts += st.Restarts
		sum.Quarantines += st.Quarantines
		sum.Pulls += st.Pulls
		sum.Stalls += st.Stalls
		sum.RedialFailures += st.RedialFailures
	}
	slog.Info("fleet session done", "component", "fleet",
		"took", time.Since(start).String(), "completed", ok, "tvs", n, "keys", sum.keys,
		"frames", sum.frames, "reports", sum.Reports, "controls", sum.Controls, "restarts", sum.Restarts,
		"quarantines", sum.Quarantines, "snapshots", sum.Pulls, "deltas", sum.deltas)
	if sum.Stalls > 0 {
		slog.Info("flow control honored", "component", "fleet", "credit_stalls", sum.Stalls)
	}
	if sum.RedialFailures > 0 {
		slog.Warn("restart re-handshakes failed", "component", "fleet", "redial_failures", sum.RedialFailures)
	}
	if ok == 0 && firstErr != nil {
		return firstErr
	}
	if firstErr != nil {
		slog.Warn("first device failure", "component", "fleet", "err", firstErr)
	}
	return nil
}

// runStandalone is the original single-TV mode: run locally, optionally
// streaming to the legacy per-connection traderd socket.
func runStandalone(seed int64, duration int, socket string, schedule []faults.Fault) {
	k := sim.NewKernel(seed)
	tv := tvsim.New(k, tvsim.Config{})

	for _, fault := range schedule {
		tv.Injector().Schedule(fault)
		slog.Info("fault scheduled", "component", "standalone", "fault", fmt.Sprint(fault))
	}

	if socket != "" {
		conn, err := net.Dial("unix", socket)
		if err != nil {
			fatal("dial failed", "socket", socket, "err", err)
		}
		defer conn.Close()
		wc := wire.NewConn(conn)
		core.ForwardBus(tv.Bus(), wc, "tvsim", func(err error) {
			slog.Warn("forward failed", "component", "standalone", "err", err)
		})
		// Print error reports coming back from the monitor.
		go func() {
			for {
				msg, err := wc.Decode()
				if err != nil {
					return
				}
				if msg.Type == wire.TypeError && msg.Error != nil {
					slog.Info("monitor error report", "component", "standalone", "report", msg.Error.String())
				}
			}
		}()
		slog.Info("streaming events", "component", "standalone", "socket", socket)
	}

	// Event accounting for the session summary.
	var frames, errors int
	tv.Bus().Subscribe("", func(e event.Event) {
		switch e.Name {
		case "frame":
			frames++
		}
		if e.Kind == event.Err {
			errors++
		}
	})

	horizon := scenario(k, tv, duration)
	k.Run(horizon)

	fmt.Printf("tvsim: ran %s of virtual time\n", horizon)
	fmt.Printf("tvsim: %d keys handled, %d frames shown, %d frame deadline misses\n",
		tv.KeysHandled, frames, tv.FrameMisses())
	for _, a := range tv.Injector().History() {
		to := "…"
		if a.To != 0 {
			to = a.To.String()
		}
		fmt.Printf("tvsim: fault %s active %s → %s\n", a.Fault.ID, a.From, to)
	}
}
