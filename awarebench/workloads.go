package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"trader/internal/control"
	"trader/internal/diagnose"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/metrics"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/trace"
	"trader/internal/wire"
)

// workloadParams are one workload's fixed settings. The streaming
// workloads' paced rates sit at roughly 40% of their closed-loop throughput
// on a 2-core host; fault-ladder's ingest is light by design.
type workloadParams struct {
	cfg        stackConfig
	rate       float64  // paced offered load, observation frames/s over all devices
	hbEvery    int      // observation frames per heartbeat
	inflight   int64    // closed-loop window: unacknowledged frames per device
	vstep      sim.Time // virtual time per observation frame
	durability wire.Durability
	deltas     bool    // healthy devices piggyback spectrum deltas on heartbeats
	paced      float64 // share of the run spent in the paced phase; the rest is closed loop
}

var workloads = map[string]workloadParams{
	"durable": {
		cfg: stackConfig{journal: true, checkpointEvery: time.Second, creditWindow: 256,
			shed: true, control: true},
		rate: 6000, hbEvery: 32, inflight: 256, vstep: 100 * sim.Microsecond,
		durability: wire.DurFsync, deltas: true, paced: 0.5,
	},
	"volatile": {
		rate: 160000, hbEvery: 64, inflight: 1024, vstep: 100 * sim.Microsecond,
		paced: 0.4,
	},
	"fault-ladder": {
		cfg: stackConfig{journal: true, checkpointEvery: time.Second, creditWindow: 256,
			shed: true, control: true},
		rate: 2000, hbEvery: 10, vstep: 5 * sim.Millisecond,
		durability: wire.DurDispatch, paced: 1,
	},
}

// durable's pre-built journal holds this many devices; two of them stream
// live after boot.
const journalDevices = 2000

// liveStart is the virtual time live traffic starts at: past every
// recovered device's clock, within one advance window of it.
const liveStart = sim.Second

// result is one run's outcome: every metric it measured, and its
// operation accounting.
type result struct {
	metrics    map[string]float64
	attempted  int64
	failed     int64
	violations []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// check counts one correctness check; a false one is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// runner carries one run's settings.
type runner struct {
	p       workloadParams
	seconds float64
	traced  bool
	work    string // scratch directory, relative to the checkout
	rng     *rand.Rand
	res     *result

	setupTimes []float64 // seconds, one per boot
}

func (r *runner) dur(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}

func runWorkload(name string, seed int64, seconds float64, traced bool, work string) (*result, error) {
	p, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	p.cfg.traced = traced
	r := &runner{p: p, seconds: seconds, traced: traced, work: work,
		rng: rand.New(rand.NewSource(seed)), res: &result{metrics: make(map[string]float64)}}
	var err error
	switch name {
	case "fault-ladder":
		err = r.runLadder()
	default:
		err = r.runStreaming()
	}
	if err != nil {
		return nil, err
	}
	r.res.set("failed_frac", ratio(float64(r.res.failed), float64(r.res.attempted)))
	return r.res, nil
}

// liveIDs draws device IDs from the seed, one per pool shard, so every
// seed spreads the live devices the same way across shards.
func (r *runner) liveIDs(prefix string, n int) []string {
	shards := runtime.GOMAXPROCS(0)
	used := make(map[int]bool)
	var ids []string
	for len(ids) < n {
		id := fmt.Sprintf("%s-%08x", prefix, r.rng.Uint32())
		sh := journal.ShardOf(id, shards)
		if used[sh] && len(used) < shards {
			continue
		}
		used[sh] = true
		ids = append(ids, id)
	}
	return ids
}

// stream is one device's traffic: its client, its virtual clock and its
// recorder's activity model.
type stream struct {
	c      *client
	vt     sim.Time
	step   sim.Time
	rng    *rand.Rand
	home   string // feature used in every coverage window
	deltas bool
}

// featuresPerWindow is how many seeded features, beside its home feature,
// a device exercises in each coverage window.
const featuresPerWindow = 3

// frame sends the next healthy observation, one step after the last.
func (s *stream) frame() error { return s.frameAt(s.vt + s.step) }

// frameAt sends a healthy observation at virtual time vt.
func (s *stream) frameAt(vt sim.Time) error {
	s.vt = vt
	return s.c.observe(vt, s.rng.Float64()*0.4-0.2)
}

// beat ends a coverage window and heartbeats.
func (s *stream) beat(sched time.Time, sample bool) error {
	if rec := s.c.rec; rec != nil {
		fs := spectrum.DefaultTVFeatures
		rec.Press(s.home)
		for i := 0; i < featuresPerWindow; i++ {
			rec.Press(fs[s.rng.Intn(len(fs))])
		}
		if s.deltas {
			if err := s.c.delta(s.vt); err != nil {
				return err
			}
		} else {
			rec.Rotate(s.vt)
		}
	}
	return s.c.heartbeat(s.vt, sched, sample)
}

func (s *stream) drain() bool {
	s.vt += s.step
	return s.c.drain(s.vt, 10*time.Second)
}

// newStream builds a device's traffic source. A device with a recorder
// exercises a seeded home feature and featuresPerWindow seeded others in
// every coverage window.
func (r *runner) newStream(c *client, start sim.Time) *stream {
	s := &stream{c: c, vt: start, step: r.p.vstep, rng: rand.New(rand.NewSource(r.rng.Int63())), deltas: r.p.deltas}
	fs := spectrum.DefaultTVFeatures
	s.home = fs[s.rng.Intn(len(fs))]
	return s
}

// pace drives an open-loop schedule: slot i is due at start + i×interval,
// and every wakeup sends the slots that are due. The lag of each wakeup's
// oldest due slot is how late the generator ran.
func pace(c *client, start time.Time, interval, dur time.Duration, lag *samples, step func(slot int, sched time.Time) error) error {
	for slot := 0; ; {
		now := time.Now()
		if now.Sub(start) >= dur {
			return nil
		}
		due := int(now.Sub(start)/interval) + 1
		if slot < due {
			lag.add(now.Sub(start.Add(time.Duration(slot) * interval)))
		}
		for ; slot < due; slot++ {
			if err := step(slot, start.Add(time.Duration(slot)*interval)); err != nil {
				return err
			}
		}
		if err := c.flush(); err != nil {
			return err
		}
		if d := time.Until(start.Add(time.Duration(slot) * interval)); d > 0 {
			time.Sleep(d)
		}
	}
}

// phase captures the process counters and the stack's traffic counters at
// a phase boundary.
type phase struct {
	proc  procSample
	fleet fleet.Stats
	srv   fleet.ServerStats
	jnl   journal.WriterStats
	spans uint64
}

func (r *runner) mark(s *stack) phase {
	ph := phase{proc: readProc(), fleet: s.pool.Rollup(), srv: s.srv.Stats(), spans: s.tracer.Written()}
	if s.jw != nil {
		ph.jnl = s.jw.Stats()
	}
	return ph
}

// bootFuncs set up one stack: prepare lays out the boot's input (the
// journal it recovers) before the clock starts; boot assembles the stack
// and handshakes every device.
type bootFuncs struct {
	prepare func() error
	boot    func() (*stack, []*client, error)
}

// bootOnce times one set-up: boot plus every device's handshake. It runs
// with the collector paused (see setUp) and collects first, so every boot
// starts from the same heap.
func (r *runner) bootOnce(b bootFuncs) (*stack, []*client, error) {
	if err := b.prepare(); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	start := time.Now()
	s, cs, err := b.boot()
	if err != nil {
		return nil, nil, err
	}
	r.setupTimes = append(r.setupTimes, time.Since(start).Seconds())
	return s, cs, nil
}

// setUp boots and tears down stacks for setupWindow, and at least
// minBoots times, then boots the stack the run measures; setup_s is the
// median over all these boots. A boot takes a millisecond or two on a
// 2-core host, and how fast the host runs it drifts within a second, so
// the window, not a boot count, sets how much of that drift the median
// averages over.
//
// Every timed boot runs before the measured phases: after them the heap is
// larger and collections rarer, so boots run faster, and a median over
// boots from both ends would flip between the two from run to run. The
// collector stays paused until the measured stack is up. Left running, the
// pacer settles per process on one or two collections per boot, and the
// scavenger returns freed pages between boots at its own pace, so a boot
// may pay for either or not; the median then moves between modes more than
// twice apart from one run to the next.
func (r *runner) setUp(b bootFuncs) (*stack, []*client, error) {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	start := time.Now()
	for n := 0; n < minBoots || time.Since(start) < setupWindow; n++ {
		s, cs, err := r.bootOnce(b)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range cs {
			c.hangUp()
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
	s, cs, err := r.bootOnce(b)
	if err != nil {
		return nil, nil, err
	}
	r.res.set("setup_s", median(r.setupTimes))
	return s, cs, nil
}

// setupWindow and minBoots bound the boots setUp times.
const (
	setupWindow = 3 * time.Second
	minBoots    = 5
)

// dialAll connects the clients, counting each handshake as an operation
// and a refused one as a failed operation.
func (r *runner) dialAll(cs []*client) error {
	for _, c := range cs {
		r.res.attempted++
		if err := c.dial(2 * time.Second); err != nil {
			r.res.failed++
			fmt.Fprintf(os.Stderr, "awarebench: %v\n", err)
			return err
		}
	}
	return nil
}

// runStreaming runs durable and volatile: boots, a paced phase, a
// saturation phase, and the checks.
func (r *runner) runStreaming() error {
	sock := filepath.Join(r.work, "s.sock")
	dir := filepath.Join(r.work, "journal")
	live := r.liveIDs("dev", 2)
	var prebuilt string
	if r.p.cfg.journal {
		prebuilt = filepath.Join(r.work, "prebuilt")
		ids := append([]string(nil), live...)
		for len(ids) < journalDevices {
			ids = append(ids, fmt.Sprintf("dev-%08x", r.rng.Uint32()))
		}
		if err := buildJournal(prebuilt, ids, r.rng); err != nil {
			return fmt.Errorf("build journal: %w", err)
		}
	}
	recs := make([]*diagnose.Recorder, len(live))
	for i := range recs {
		if r.p.deltas {
			recs[i] = diagnose.NewRecorder(diagnose.RecorderOptions{Seed: r.rng.Int63()})
		}
	}
	prepare := func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if prebuilt == "" {
			return nil
		}
		return copyTree(prebuilt, dir)
	}
	boots := bootFuncs{prepare: prepare, boot: func() (*stack, []*client, error) {
		return r.bootWith(sock, dir, live, recs)
	}}
	s, clients, err := r.setUp(boots)
	if err != nil {
		return err
	}
	r.setRecovery(s)
	streams := make([]*stream, len(clients))
	for i, c := range clients {
		c.timeSends = r.traced
		streams[i] = r.newStream(c, liveStart)
	}
	spans := newSpanSet()
	stop := r.samplePressure(s, live)

	// Paced phase: open loop at the fixed offered rate, split evenly.
	lag := &samples{}
	before := r.mark(s)
	interval := time.Duration(float64(len(streams)) / r.p.rate * float64(time.Second))
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	start := time.Now()
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = pace(st.c, start, interval, r.dur(r.p.paced), lag, func(slot int, sched time.Time) error {
				if err := st.frame(); err != nil {
					return err
				}
				if (slot+1)%r.p.hbEvery == 0 {
					return st.beat(sched, true)
				}
				return nil
			})
			if errs[i] == nil && !st.drain() {
				errs[i] = fmt.Errorf("%s: paced drain timed out", st.c.id)
			}
		}()
	}
	wg.Wait()
	if err := firstErr(errs); err != nil {
		return err
	}
	lat := s.pool.Latency()
	spans.add(s.tracer)
	var ack []timed
	for _, c := range clients {
		ack = append(ack, c.ackLatencies()...)
	}

	// Saturation phase: closed loop, a bounded window per device.
	stopMeter := startMeter(clients, meterEvery)
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.saturate(st, r.dur(1-r.p.paced))
		}()
	}
	wg.Wait()
	points := stopMeter()
	if err := firstErr(errs); err != nil {
		return err
	}
	after := r.mark(s)
	stop()
	spans.add(s.tracer)
	fps, cpu := meterRates(points)
	r.setE2E(fps, ack, cpu)
	r.checkStreams(s, clients, before, after)
	r.setLayers(s, clients, before, after, lat, spans, lag)
	for _, c := range clients {
		c.dropSamples()
	}
	s.stopCheckpoints()
	r.res.set("heap_live_mb", liveHeapMB())
	for _, c := range clients {
		c.hangUp()
	}
	s.drain(5 * time.Second)
	liveRollup := s.pool.Rollup()
	if err := s.close(); err != nil {
		return err
	}
	if r.p.cfg.journal {
		replayed, err := replayRollup(dir)
		r.res.check(err == nil && replayed == liveRollup,
			"journal replay rollup %+v (err %v) differs from the live rollup %+v", replayed, err, liveRollup)
	}
	return nil
}

// bootWith boots the stack over the journal at dir and dials one client
// per live ID.
func (r *runner) bootWith(sock, dir string, live []string, recs []*diagnose.Recorder) (*stack, []*client, error) {
	s, err := bootStack(r.p.cfg, dir, sock)
	if err != nil {
		return nil, nil, err
	}
	cs := make([]*client, len(live))
	for i, id := range live {
		cs[i] = newClient(s.addr, id, r.p.durability, recs[i])
	}
	if err := r.dialAll(cs); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, cs, nil
}

// saturate streams as fast as the window allows for dur, then drains.
func (r *runner) saturate(st *stream, dur time.Duration) error {
	c := st.c
	window := r.p.inflight
	start := time.Now()
	for time.Since(start) < dur {
		if c.inFlight() >= window {
			if err := c.flush(); err != nil {
				return err
			}
			if !c.waitFor(func() bool { return c.sent-c.acked < window }, 5*time.Second) {
				c.timeouts++
				return fmt.Errorf("%s: window never drained", c.id)
			}
		}
		if err := st.frame(); err != nil {
			return err
		}
		if c.sinceHB == r.p.hbEvery {
			if err := st.beat(time.Now(), false); err != nil {
				return err
			}
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	if !st.drain() {
		return fmt.Errorf("%s: saturation drain timed out", c.id)
	}
	return nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ack quantiles are taken per second of the paced phase and their median
// reported; a bin needs ackBinMin samples to count.
const (
	ackBin    = time.Second
	ackBinMin = 50
)

// setE2E records the end-to-end metrics of the measured phases; a traced
// run files them under traced.* as well.
func (r *runner) setE2E(fps float64, ack []timed, cpuPerFrame float64) {
	r.res.set("frames_per_s", fps)
	r.res.set("ack_p50_ms", ms(binnedQuantile(ack, ackBin, 0.5, ackBinMin)))
	r.res.set("ack_p99_ms", ms(binnedQuantile(ack, ackBin, 0.99, ackBinMin)))
	r.res.set("cpu_us_per_frame", cpuPerFrame)
	if r.traced {
		r.res.set("traced.frames_per_s", fps)
		r.res.set("traced.cpu_us_per_frame", cpuPerFrame)
	}
}

// meterEvery is the saturation phase's sampling interval.
const meterEvery = 500 * time.Millisecond

// meterPoint is one saturation-phase sample: acknowledged frames over all
// clients, and the process CPU time.
type meterPoint struct {
	at    time.Time
	acked int64
	cpu   time.Duration
}

// startMeter samples the clients every interval until the returned stop,
// which takes a last sample and returns them all.
func startMeter(clients []*client, every time.Duration) func() []meterPoint {
	sample := func() meterPoint {
		p := meterPoint{at: time.Now(), cpu: cpuTime()}
		for _, c := range clients {
			p.acked += c.ackedFrames()
		}
		return p
	}
	done := make(chan struct{})
	out := make(chan []meterPoint)
	go func() {
		points := []meterPoint{sample()}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				points = append(points, sample())
			case <-done:
				out <- append(points, sample())
				return
			}
		}
	}()
	return func() []meterPoint {
		close(done)
		return <-out
	}
}

// meterRates returns the median over the sampled intervals of the
// acknowledged frame rate and of the CPU time per acknowledged frame.
func meterRates(points []meterPoint) (fps, cpuPerFrame float64) {
	var rates, cpus []float64
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		frames := float64(b.acked - a.acked)
		rates = append(rates, frames/b.at.Sub(a.at).Seconds())
		if frames > 0 {
			cpus = append(cpus, us(b.cpu-a.cpu)/frames)
		}
	}
	return median(rates), median(cpus)
}

func (r *runner) setRecovery(s *stack) {
	r.res.set("fleet.replay_s", s.replayTime.Seconds())
	r.res.set("fleet.replay_frames", float64(s.replayStats.Frames))
	r.res.set("journal.recover_s", s.recoverTime.Seconds())
}

// checkStreams runs the healthy-device checks: conservation between the
// frames sent and the pool's accounting, every frame acknowledged, no error
// frame on a healthy device.
func (r *runner) checkStreams(s *stack, clients []*client, before, after phase) {
	var sent, acked int64
	for _, c := range clients {
		sent += c.sentFrames()
		acked += c.ackedFrames()
		r.res.check(c.errorCount() == 0, "healthy device %s received %d error frames", c.id, c.errorCount())
		r.res.attempted += int64(c.timeouts)
		r.res.failed += int64(c.timeouts)
	}
	r.res.attempted += sent
	r.res.failed += sent - acked
	dispatched := after.fleet.Dispatched - before.fleet.Dispatched
	shedObs, shedHB := shedSince(before, after)
	r.res.failed += int64(shedObs + shedHB)
	r.res.check(dispatched+shedObs == uint64(sent),
		"conservation: %d frames sent, %d dispatched + %d shed", sent, dispatched, shedObs)
	r.res.check(uint64(acked) <= dispatched, "%d frames acknowledged, only %d dispatched", acked, dispatched)
}

// shedSince returns the observation and heartbeat frames shed between two
// marks. Pool.Rollup's Dispatched counts observations only, so only the
// first enters a conservation sum; both are failed operations.
func shedSince(before, after phase) (obs, hb uint64) {
	return after.fleet.ShedObservations - before.fleet.ShedObservations,
		after.fleet.ShedHeartbeats - before.fleet.ShedHeartbeats
}

// replayRollup replays the journal at dir into a fresh pool and returns
// its rollup.
func replayRollup(dir string) (fleet.Stats, error) {
	pool := fleet.NewPool(fleet.Options{Shards: runtime.GOMAXPROCS(0)})
	defer pool.Stop()
	rd, err := journal.OpenReader(dir)
	if err != nil {
		return fleet.Stats{}, err
	}
	defer rd.Close()
	if _, err := pool.Replay(rd, fleet.LightMonitorFactory()); err != nil {
		return fleet.Stats{}, err
	}
	return pool.Rollup(), nil
}

// samplePressure records the live devices' shard-queue fill every
// millisecond in the traced run; the returned stop ends the sampler and
// files fleet.pressure_max.
func (r *runner) samplePressure(s *stack, ids []string) func() {
	if !r.traced {
		return func() {}
	}
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		peak := 0.0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				result <- peak
				return
			case <-t.C:
				for _, id := range ids {
					peak = max(peak, s.pool.Pressure(id))
				}
			}
		}
	}()
	return func() {
		close(done)
		r.res.set("fleet.pressure_max", <-result)
	}
}

// spanSet gathers tracer spans across snapshots, deduplicated by span ID.
type spanSet map[uint64]trace.Span

func newSpanSet() spanSet { return make(spanSet) }

func (ss spanSet) add(t *trace.Tracer) {
	for _, sp := range t.Snapshot() {
		ss[sp.SpanID] = sp
	}
}

// durations returns the durations of every span of one kind.
func (ss spanSet) durations(k trace.Kind) *samples {
	out := &samples{}
	for _, sp := range ss {
		if sp.Kind == k {
			out.d = append(out.d, time.Duration(sp.Dur))
		}
	}
	return out
}

// setLayers files the per-layer metrics a traced run measures between two
// phase marks.
func (r *runner) setLayers(s *stack, clients []*client, before, after phase, lat metrics.Snapshot, spans spanSet, lag *samples) {
	var sent int64
	var stall, send time.Duration
	var hs samples
	for _, c := range clients {
		sent += c.sentFrames()
		stall += c.stall
		send += c.sendTime
		hs.merge(c.handshakes())
	}
	frames := float64(sent)
	wall := after.proc.wall.Sub(before.proc.wall)
	r.res.set("loadgen.lag_p99_ms", ms(lag.quantile(0.99)))
	r.res.set("fleet.credit_stall_frac", ratio(stall.Seconds(), wall.Seconds()*float64(len(clients))))
	r.res.set("fleet.credit_grants_per_kframe", 1000*ratio(float64(after.srv.CreditGrants-before.srv.CreditGrants), frames))
	shed := (after.fleet.ShedObservations - before.fleet.ShedObservations) + (after.fleet.ShedHeartbeats - before.fleet.ShedHeartbeats)
	r.res.set("fleet.shed_frac", ratio(float64(shed), frames))
	r.res.set("process.allocs_per_frame", ratio(float64(after.proc.mallocs-before.proc.mallocs), frames))
	r.res.set("process.alloc_bytes_per_frame", ratio(float64(after.proc.alloc-before.proc.alloc), frames))
	r.res.set("process.gc_cpu_frac", ratio(after.proc.gcCPU-before.proc.gcCPU, after.proc.allCPU-before.proc.allCPU))
	if !r.traced {
		return
	}
	r.res.set("wire.server_reads_per_frame", ratio(float64(s.wire.reads.Load()), frames))
	r.res.set("wire.server_writes_per_frame", ratio(float64(s.wire.writes.Load()), frames))
	r.res.set("wire.bytes_in_per_frame", ratio(float64(s.wire.bytesIn.Load()), frames))
	r.res.set("wire.client_send_us_per_frame", ratio(us(send), frames))
	r.res.set("wire.handshake_p50_ms", ms(hs.quantile(0.5)))
	r.res.set("fleet.ingest_dispatch_p50_us", us(lat.Quantile(0.5)))
	r.res.set("fleet.ingest_dispatch_p99_us", us(lat.Quantile(0.99)))
	r.res.set("fleet.queue_wait_p99_us", us(spans.durations(trace.KindDispatch).quantile(0.99)))
	r.res.set("core.monitor_step_p50_us", us(spans.durations(trace.KindMonitor).quantile(0.5)))
	r.res.set("trace.spans_per_frame", ratio(float64(after.spans-before.spans), frames))
	r.res.set("trace.forced_overflow", float64(s.tracer.ForcedOverflow()))
	if s.tj != nil {
		r.res.set("journal.append_p50_us", us(s.tj.appendThen.quantile(0.5)))
		r.res.set("journal.append_p99_us", us(s.tj.appendThen.quantile(0.99)))
		r.res.set("journal.appends_per_sync", ratio(float64(after.jnl.Appends-before.jnl.Appends), float64(after.jnl.Syncs-before.jnl.Syncs)))
		r.res.set("journal.bytes_per_frame", ratio(float64(s.tj.bytes.Load()), frames))
		r.res.set("journal.checkpoint_ms", ms(s.tj.checkpoints.quantile(0.5)))
	}
	if s.ctl != nil {
		ro := s.ctl.Rollup()
		r.res.set("control.decide_p50_us", us(s.probe.decide.quantile(0.5)))
		r.res.set("control.push_p50_us", us(s.probe.push.quantile(0.5)))
		r.res.set("control.ack_rtt_p50_ms", ms(s.probe.ackRTT.quantile(0.5)))
		r.res.set("control.actions_per_device", ratio(float64(ro.Tolerated+ro.Resets+ro.Restarts+ro.Quarantines), float64(ro.Devices)))
		r.res.set("control.dropped", float64(ro.Dropped))
		dro := s.eng.Rollup()
		r.res.set("diagnose.pulls_per_episode", ratio(float64(dro.Requests), float64(dro.Episodes)))
		r.res.set("diagnose.snapshot_bytes", s.ev.medianSnapshotBytes())
		r.res.set("diagnose.fold_p50_us", us(spans.durations(trace.KindDiagnose).quantile(0.5)))
		r.res.set("diagnose.delta_handoff_us", us(s.ev.deltaHandoff.quantile(0.5)))
	}
}

// ladderRungs is the action sequence the default policy's ladder takes
// for a device that keeps faulting: 2 tolerate, 2 reset, 1 restart, 1
// quarantine.
func ladderRungs(p control.Policy) []control.Rung {
	var out []control.Rung
	for _, rung := range []control.Rung{control.RungTolerate, control.RungReset, control.RungRestart} {
		n := p.Tolerate
		switch rung {
		case control.RungReset:
			n = p.Resets
		case control.RungRestart:
			n = p.Restarts
		}
		for i := 0; i < n; i++ {
			out = append(out, rung)
		}
	}
	return append(out, control.RungQuarantine)
}

// ladderDevice is one device the fault-ladder slot walked up the ladder.
type ladderDevice struct {
	c        *client
	faults   int // faults injected, each awaited
	complete bool
}

// runLadder runs fault-ladder: one healthy device streams and answers
// pulls while the second slot walks fresh devices up the recovery ladder.
func (r *runner) runLadder() error {
	sock := filepath.Join(r.work, "s.sock")
	dir := filepath.Join(r.work, "journal")
	ids := r.liveIDs("hl", 1)
	healthyRec := diagnose.NewRecorder(diagnose.RecorderOptions{Seed: r.rng.Int63()})
	tag := fmt.Sprintf("%08x", r.rng.Uint32())
	boots := bootFuncs{prepare: func() error { return os.RemoveAll(dir) }, boot: func() (*stack, []*client, error) {
		return r.bootWith(sock, dir, ids, []*diagnose.Recorder{healthyRec})
	}}
	s, clients, err := r.setUp(boots)
	if err != nil {
		return err
	}
	r.setRecovery(s)
	healthy := r.newStream(clients[0], 0)
	healthy.c.timeSends = r.traced
	spans := newSpanSet()
	stop := r.samplePressure(s, ids)

	lag := &samples{}
	var detect, recoverLat, resultLat samples
	var ladder []*ladderDevice
	hits := 0
	before := r.mark(s)
	interval := time.Duration(2 / r.p.rate * float64(time.Second))
	dur := r.dur(r.p.paced)
	start := time.Now()
	var wg sync.WaitGroup
	var healthyErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		healthyErr = pace(healthy.c, start, interval, dur, lag, func(slot int, sched time.Time) error {
			if err := healthy.frameAt(sim.Time(slot+1) * r.p.vstep); err != nil {
				return err
			}
			if (slot+1)%r.p.hbEvery == 0 {
				return healthy.beat(sched, true)
			}
			return nil
		})
	}()
	lane := &ladderLane{r: r, s: s, start: start, interval: interval, dur: dur, lag: lag,
		detect: &detect, recover: &recoverLat}
	ladderErr := func() error {
		for n := 0; time.Since(start) < dur; n++ {
			d, fault, err := lane.walk(fmt.Sprintf("ladder-%s-%04d", tag, n))
			if err != nil {
				return err
			}
			ladder = append(ladder, d)
			// The operator's top-10 query is timed in the traced run
			// only: traderd issues it once per stats tick, not once per
			// ladder, so it stays out of the untraced figures.
			if d.complete && r.traced {
				t0 := time.Now()
				res := s.eng.Result(10)
				resultLat.add(time.Since(t0))
				if inTopK(res, d.c.id, fault) {
					hits++
				}
			}
		}
		return nil
	}()
	wg.Wait()
	if healthyErr == nil && !healthy.drain() {
		healthyErr = fmt.Errorf("%s: drain timed out", healthy.c.id)
	}
	elapsed := time.Since(start)
	if err := firstErr([]error{healthyErr, ladderErr}); err != nil {
		return err
	}
	s.ctl.Sync()
	s.eng.Sync()
	after := r.mark(s)
	stop()
	spans.add(s.tracer)

	ack := healthy.c.ackLatencies()
	all := []*client{healthy.c}
	var acked int64
	for _, d := range ladder {
		all = append(all, d.c)
	}
	for _, c := range all {
		acked += c.ackedFrames()
	}
	cpu := us(after.proc.cpu-before.proc.cpu) / float64(acked)
	r.setE2E(float64(acked)/elapsed.Seconds(), ack, cpu)
	r.res.set("detect_p50_ms", ms(detect.quantile(0.5)))
	r.res.set("detect_p99_ms", ms(detect.quantile(0.99)))
	r.res.set("recover_p50_ms", ms(recoverLat.quantile(0.5)))
	r.res.set("recover_p99_ms", ms(recoverLat.quantile(0.99)))

	// Ladder accounting: every awaited fault drew exactly the ladder's
	// next action, and a completed ladder got exactly one quarantine.
	want := ladderRungs(control.DefaultPolicy())
	complete := 0
	for _, d := range ladder {
		got := s.actionsOf(d.c.id)
		r.res.check(equalRungs(got, want[:d.faults]), "%s: actions %v after %d faults, want %v",
			d.c.id, got, d.faults, want[:d.faults])
		if d.complete {
			complete++
			q := d.c.received(wire.CtrlQuarantine)
			r.res.check(q == 1, "%s received %d quarantines, want exactly 1", d.c.id, q)
		}
	}
	r.res.check(healthy.c.errorCount() == 0, "healthy device %s received %d error frames",
		healthy.c.id, healthy.c.errorCount())
	var sent int64
	for _, c := range all {
		sent += c.sentFrames()
		r.res.attempted += int64(c.timeouts)
		r.res.failed += int64(c.timeouts)
	}
	r.res.attempted += sent
	r.res.failed += sent - acked
	fl := after.fleet
	shedObs, shedHB := shedSince(before, after)
	r.res.failed += int64(shedObs + shedHB)
	monitored := (fl.Dispatched - before.fleet.Dispatched) + (fl.Quarantined - before.fleet.Quarantined)
	accounted := monitored + (fl.Dropped - before.fleet.Dropped) + shedObs
	r.res.check(accounted == uint64(sent), "conservation: %d frames sent, %d dispatched, quarantined, dropped or shed",
		sent, accounted)
	r.res.check(uint64(acked) <= monitored, "%d frames acknowledged, only %d dispatched", acked, monitored)

	r.setLayers(s, all, before, after, s.pool.Latency(), spans, lag)
	if r.traced {
		r.res.set("diagnose.result_ms", ms(resultLat.quantile(0.5)))
		r.res.set("diagnose.hit_frac", ratio(float64(hits), float64(complete)))
		r.res.set("control.ladders_completed", float64(complete))
	}
	for _, c := range all {
		c.dropSamples()
	}
	s.stopCheckpoints()
	r.res.set("heap_live_mb", liveHeapMB())
	healthy.c.hangUp()
	return s.close()
}

// inTopK reports whether the suspect's per-verdict partition ranks the
// injected block among its top entries. Every ladder device carries its own
// fault, so the merged ranking dilutes any one of them; the partition
// isolates the device's failing windows against the shared pass evidence.
func inTopK(res *diagnose.Result, suspect string, block int) bool {
	for _, part := range res.Parts {
		if part.Suspect != suspect {
			continue
		}
		for _, rb := range part.Result.Ranking {
			if rb.Block == block {
				return true
			}
		}
	}
	return false
}

func equalRungs(a, b []control.Rung) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ladderLane is the second connection slot of fault-ladder. It shares the
// healthy device's slot schedule and virtual timeline, so the controller's
// single clock advances with both.
type ladderLane struct {
	r        *runner
	s        *stack
	start    time.Time
	interval time.Duration
	dur      time.Duration
	lag      *samples
	detect   *samples
	recover  *samples
	slot     int
}

// Seeded gaps, in frame slots, before each fault: past the runaway window
// between faults, and past the restart latency before the one after the
// restart.
const (
	gapMin, gapSpan = 16, 16
	restartGapMin   = 80
	ladderErrWait   = 2 * time.Second
	maxFirstAdvance = 250 * sim.Second
)

// tick waits for the lane's next slot and returns its due time and the
// virtual time it carries.
func (l *ladderLane) tick() (time.Time, sim.Time) {
	sched := l.start.Add(time.Duration(l.slot) * l.interval)
	now := time.Now()
	if d := sched.Sub(now); d > 0 {
		time.Sleep(d)
	} else {
		l.lag.add(-d)
	}
	l.slot++
	return sched, sim.Time(l.slot) * l.r.p.vstep
}

// skip moves the lane past slots that went by while it waited.
func (l *ladderLane) skip() {
	l.slot = max(l.slot, int(time.Since(l.start)/l.interval)+1)
}

func (l *ladderLane) over() bool { return time.Since(l.start) >= l.dur }

// walk dials a fresh device and injects faults on its seeded schedule
// until the ladder has quarantined it (or the run ends). It returns the
// device and the fault block its recorder executes.
func (l *ladderLane) walk(id string) (*ladderDevice, int, error) {
	r := l.r
	l.skip() // slots that went by while the previous ladder was diagnosed are not late sends
	rec := diagnose.NewRecorder(diagnose.RecorderOptions{Seed: r.rng.Int63()})
	st := r.newStream(newClient(l.s.addr, id, r.p.durability, rec), 0)
	fault := rec.InjectFault(st.home)
	c := st.c
	c.timeSends = r.traced
	d := &ladderDevice{c: c}
	if r.dialAll([]*client{c}) != nil {
		return d, fault, nil // counted as a failed handshake; the slot moves on
	}
	rungs := ladderRungs(control.DefaultPolicy())
	// A fresh device's clock starts at zero: climb to the lane's timeline
	// in steps within the server's advance window.
	for at := maxFirstAdvance; at < sim.Time(l.slot)*r.p.vstep; at += maxFirstAdvance {
		if err := c.heartbeat(at, time.Now(), false); err != nil {
			return nil, 0, err
		}
	}
	for k, rung := range rungs {
		gap := gapMin + r.rng.Intn(gapSpan)
		if k > 0 && rungs[k-1] == control.RungRestart {
			gap = restartGapMin + r.rng.Intn(gapSpan)
		}
		for i := 0; i < gap; i++ {
			if l.over() {
				return d, fault, l.finish(st)
			}
			_, vt := l.tick()
			if err := st.frameAt(vt); err != nil {
				return nil, 0, err
			}
			if c.sinceHB >= r.p.hbEvery {
				if err := st.beat(time.Now(), false); err != nil {
					return nil, 0, err
				}
			}
			if err := c.flush(); err != nil {
				return nil, 0, err
			}
		}
		ok, err := l.inject(st, rung)
		if err != nil {
			return nil, 0, err
		}
		d.faults++
		if !ok {
			c.hangUp()
			return d, fault, nil
		}
	}
	d.complete = true
	c.hangUp()
	c.rec = nil
	return d, fault, nil
}

// inject sends one transient fault — two deviating observations, enough
// to exceed the light profile's tolerance, then a healthy one at the same
// virtual instant so no periodic compare re-reports the stale deviation —
// heartbeats, and waits for the error frame and the rung's command. It
// carries out restart and reports false when the outcome never came.
func (l *ladderLane) inject(st *stream, rung control.Rung) (bool, error) {
	c := st.c
	sched, vt := l.tick()
	st.vt = vt
	errBase := c.errorCount()
	c.mu.Lock()
	cmdBase := len(c.cmds)
	c.mu.Unlock()
	want := rung.Command()
	for i := 0; i < 2; i++ {
		if err := c.observe(vt, 2+st.rng.Float64()); err != nil {
			return false, err
		}
	}
	proven := c.sentFrames()
	// No healthy sample after the quarantine fault: the server drops the
	// connection once it has acted, so nothing sent after the fault could
	// be acknowledged, and a retired device raises no further reports.
	if rung != control.RungQuarantine {
		if err := st.frameAt(vt); err != nil {
			return false, err
		}
	}
	if err := st.beat(sched, false); err != nil {
		return false, err
	}
	if err := c.flush(); err != nil {
		return false, err
	}
	var got command
	ok := c.waitFor(func() bool {
		if len(c.errs) <= errBase {
			return false
		}
		if want == "" {
			return true
		}
		for _, cmd := range c.cmds[cmdBase:] {
			if cmd.cmd == want {
				got = cmd
				return true
			}
		}
		return false
	}, ladderErrWait)
	l.r.res.attempted++
	if !ok {
		l.r.res.failed++
		l.r.res.violations = append(l.r.res.violations,
			fmt.Sprintf("%s: no error frame or %q command within %s of the fault", c.id, want, ladderErrWait))
		return false, nil
	}
	c.mu.Lock()
	errAt := c.errs[errBase]
	c.acked = max(c.acked, proven) // the error frame proves the fault frames were monitored
	c.mu.Unlock()
	l.detect.add(errAt.Sub(sched))
	if want != "" {
		l.recover.add(got.at.Sub(sched))
	}
	switch rung {
	case control.RungRestart:
		// Honor the restart: drop the connection, re-handshake (the
		// server adopts the journaled device), ack with the push's trace.
		c.hangUp()
		if l.r.dialAll([]*client{c}) != nil {
			return false, nil // counted as a failed handshake; the device is abandoned
		}
		ack := wire.Ack(c.id, wire.CtrlRestart, st.vt)
		ack.Trace = got.trace
		if err := c.encode(ack); err != nil {
			return false, err
		}
		if err := c.flush(); err != nil {
			return false, err
		}
	case control.RungQuarantine:
		// The server disconnects a quarantined device; wait for the close.
		c.waitFor(func() bool { return false }, ladderErrWait)
	}
	l.skip()
	return true, nil
}

// finish drains a device whose ladder the end of the run cut short.
func (l *ladderLane) finish(st *stream) error {
	st.vt = max(st.vt, sim.Time(l.slot)*l.r.p.vstep)
	ok := st.drain()
	st.c.hangUp()
	if !ok {
		return fmt.Errorf("%s: drain timed out", st.c.id)
	}
	return nil
}
