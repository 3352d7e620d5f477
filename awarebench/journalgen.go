package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"trader/internal/control"
	"trader/internal/diagnose"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// Shape of the journal durable boots from: every device streams
// preFrames observations, a global checkpoint covers them, then every
// device streams tailFrames more — the post-checkpoint tail a reboot
// re-dispatches. Devices heartbeat every journalHB frames.
const (
	preFrames  = 24
	tailFrames = 8
	journalHB  = 8
	journalDT  = 10 * sim.Millisecond // virtual time between a device's frames
)

// buildJournal writes the journal a traderd would have left behind after
// serving the given devices: observations and heartbeats, the profile
// marker, and a checkpoint with the control and diagnosis planes, followed
// by a tail. Records go through the same write-ahead AppendThen path the
// server uses, into a live pool, so the checkpoint captures real monitor
// state. Fsync is off: this is input generation, not measurement.
func buildJournal(dir string, ids []string, rng *rand.Rand) (err error) {
	shards := runtime.GOMAXPROCS(0)
	jw, err := journal.CreateSharded(dir, shards, journal.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, jw.Close()) }()
	pool := fleet.NewPool(fleet.Options{Shards: shards})
	defer pool.Stop()
	ctl := control.Attach(pool, control.Options{Journal: jw})
	defer ctl.Close()
	eng := diagnose.Attach(pool, diagnose.Options{Journal: jw, Continuous: true})
	defer eng.Close()

	if err := jw.AppendShard(0, wire.Message{Type: wire.TypeHello, SUO: "traderd", Target: profile}); err != nil {
		return err
	}
	factory := fleet.LightMonitorFactory()
	discard := func(wire.Message) error { return nil }
	for _, id := range ids {
		if err := pool.AddRemoteDevice(id, factory, discard); err != nil {
			return err
		}
	}
	stream := func(from, n int) error {
		for f := from; f < from+n; f++ {
			at := sim.Time(f+1) * journalDT
			for _, id := range ids {
				ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", rng.Float64()*0.4-0.2)
				var derr error
				m := wire.Message{Type: wire.TypeOutput, SUO: id, Event: &ev, At: at}
				if err := jw.AppendThen(m, false, func() { derr = pool.Dispatch(id, ev) }); err != nil {
					return err
				}
				if derr != nil {
					return derr
				}
				if (f+1)%journalHB == 0 {
					hb := wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at}
					if err := jw.AppendThen(hb, false, func() { derr = pool.AdvanceDevice(id, at) }); err != nil {
						return err
					}
					if derr != nil {
						return derr
					}
				}
			}
		}
		return nil
	}
	if err := stream(0, preFrames); err != nil {
		return err
	}
	cper := &fleet.Checkpointer{Pool: pool, Journal: jw, Profile: profile,
		Planes: []func() wire.Message{ctl.Checkpoint, eng.Checkpoint}}
	if err := cper.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := stream(preFrames, tailFrames); err != nil {
		return err
	}
	return pool.Sync()
}

// copyTree copies the journal directory src to dst, which must not exist.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
