package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/crowd"
	"sensei/internal/dash"
	"sensei/internal/fleet"
	"sensei/internal/mos"
	"sensei/internal/origin"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/qlog"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// stallToleranceSec bounds |fleet − simulator| total stall per session on
// fleet-vclock. The virtual clock keeps whole nanoseconds, so each chunk's
// measured download time carries up to a nanosecond of rounding the
// simulator's float arithmetic does not; over a session that stays far
// below 10 µs, while a real playback divergence is a fraction of a chunk
// (seconds).
const stallToleranceSec = 10e-6

// ringCapacity sizes every event ring of the closed-loop fleet: a
// full-length session under chaos emits well under this, so no ring drops.
const ringCapacity = 1 << 12

// raterPopulation is the size of the fleet's rater pool (the harness
// default).
const raterPopulation = 512

// fleetWorkload is one of the two fleet workloads over its inputs.
type fleetWorkload struct {
	in     *inputs
	seed   uint64
	closed bool // rater cohorts, chaos and the event plane
	// windows counts the crowd campaigns the ingest autopilot ran to
	// re-profile chunk windows.
	windows atomic.Int64
	videos  map[string]*video.Video // catalog videos by name
	served  map[string]*video.Video // the same, as the origin serves them

	// The simulator check's state on fleet-vclock: player.Play's result
	// per slot and the largest stall difference seen.
	oracle     map[slot]*player.Result
	worstStall float64
}

func newFleetWorkload(in *inputs, seed uint64, closed bool) *fleetWorkload {
	fw := &fleetWorkload{in: in, seed: seed, closed: closed,
		videos: map[string]*video.Video{}, served: map[string]*video.Video{}, oracle: map[slot]*player.Result{}}
	for _, v := range in.videos {
		fw.videos[v.Name] = v
		fw.served[v.Name] = wholeBytes(v)
	}
	return fw
}

// profile is the fleet's origin.ProfileFunc: catalog videos get their
// set-up weights; anything else is a chunk window the ingest autopilot is
// re-profiling, which runs a crowd campaign on the spot.
func (fw *fleetWorkload) profile(v *video.Video) ([]float64, error) {
	if p, ok := fw.in.profiles[v.Name]; ok {
		return append([]float64(nil), p.Weights...), nil
	}
	fw.windows.Add(1)
	p, err := crowd.NewProfiler(fw.in.pop).Profile(v)
	if err != nil {
		return nil, err
	}
	return p.Weights, nil
}

func (fw *fleetWorkload) sessions() int {
	return len(fw.in.videos) * len(fw.in.traces) * len(fleet.AllABRs())
}

func (fw *fleetWorkload) chaosSpec() *fleet.ChaosSpec {
	return &fleet.ChaosSpec{Seed: derive(fw.seed, streamChaos, 0) | 1}
}

func (fw *fleetWorkload) raterSeed() uint64 { return derive(fw.seed, streamRaters, 0) | 1 }

// config is one round: every video × trace × ABR slot exactly once (the
// fleet's coprime-stride assignment covers the cross product in one pass),
// at most nproc sessions in flight, real-time pacing on the virtual clock.
func (fw *fleetWorkload) config(clock vclock.Clock) fleet.Config {
	cfg := fleet.Config{
		Sessions:     fw.sessions(),
		Videos:       fw.in.videos,
		Traces:       fw.in.traces,
		ABRs:         fleet.AllABRs(),
		TimeScales:   []float64{1},
		Workers:      runtime.NumCPU(),
		Profile:      fw.profile,
		Clock:        clock,
		KeepOutcomes: true,
	}
	if fw.closed {
		cfg.Raters = &fleet.RaterSpec{PopulationSize: raterPopulation, Seed: fw.raterSeed()}
		cfg.Chaos = fw.chaosSpec()
		cfg.Events = &fleet.EventsSpec{RingCapacity: ringCapacity}
	}
	return cfg
}

// fleetRound is one fleet.Run and what the benchmark measured around it.
type fleetRound struct {
	rep *fleet.Report
	// rate is the run's sessions per second of the wall time the hypervisor
	// did not steal (rep.SessionsPerSec is per plain wall second).
	rate    float64
	cpu     cpuTimes
	leak    string // "" when the run left nothing behind
	windows int64  // window campaigns during the run
}

func (fw *fleetWorkload) round(clock vclock.Clock) (fleetRound, error) {
	g0 := runtime.NumGoroutine()
	w0 := fw.windows.Load()
	c0, steal := processCPU(), startSteal()
	rep, err := fleet.Run(context.Background(), fw.config(clock))
	cpu := processCPU().sub(c0)
	if err != nil {
		return fleetRound{}, err
	}
	return fleetRound{
		rep:     rep,
		rate:    float64(rep.Sessions) / steal.unstolen(rep.ElapsedSec),
		cpu:     cpu,
		leak:    leakCheck(g0, rep),
		windows: fw.windows.Load() - w0,
	}, nil
}

// leakCheck requires /stats to show no live session and the goroutine
// count to return to its pre-run level (connection goroutines exit
// asynchronously after the server closes, so it waits for them a while).
func leakCheck(g0 int, rep *fleet.Report) string {
	if rep.Origin.ActiveSessions != 0 || len(rep.Origin.Sessions) != 0 {
		return fmt.Sprintf("/stats shows %d live sessions after the run", rep.Origin.ActiveSessions)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= g0 {
			return ""
		}
		if time.Now().After(deadline) {
			return fmt.Sprintf("%d goroutines 5s after the run, %d before it", g, g0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runFleet runs fleet-vclock (closed=false) or
// fleet-vclock-closedloop-chaos (closed=true).
func runFleet(cfg runConfig, closed bool) (*outcome, error) {
	var rec *recorder
	var hook func(*crowd.Profiler, *video.Video) (*crowd.Profile, error)
	if cfg.traced {
		rec = newRecorder()
		hook = profileWith(rec)
	}
	spec := setupSpec{videos: fleetVideos, tracesPerClass: cfg.scale.tracesPerClass, excerpt: cfg.scale.excerpt}
	in, setupS, err := timedSetup(spec, cfg.seed, cfg.scale.setupReps, hook)
	if err != nil {
		return nil, err
	}
	fw := newFleetWorkload(in, cfg.seed, closed)
	out := &outcome{}
	if r, err := checkWeights(in); err != nil {
		out.problem("profiled weights: %v", err)
	} else {
		fmt.Fprintf(cfg.log, "# weights: every vector valid, lowest correlation with the true sensitivity %.3f\n", r)
	}
	if cfg.traced {
		return fw.traced(cfg, rec, out)
	}

	start := time.Now()
	var rounds []fleetRound
	for len(rounds) == 0 || time.Since(start) < cfg.seconds {
		r, err := fw.round(vclock.NewVirtual())
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}

	var rates, wallRates, cpuPer []float64
	for i, r := range rounds {
		out.attempted += int64(r.rep.Sessions)
		out.failed += int64(r.rep.Failed)
		rates = append(rates, r.rate)
		wallRates = append(wallRates, r.rep.SessionsPerSec)
		cpuPer = append(cpuPer, ms(r.cpu.total())/float64(r.rep.Sessions))
		fw.checkRound(out, i, r)
	}
	if !closed {
		fw.logParity(cfg)
	}
	all, sensei := trueQoE(rounds)
	m := metrics{}
	m.set("setup_s", "s", setupS)
	m.set("sessions_per_sec", "sessions/s", median(rates))
	m.set("cpu_ms_per_session", "ms", median(cpuPer))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	m.set("mean_true_qoe", "qoe", all)
	m.set("sensei_true_qoe", "qoe", sensei)
	out.metrics = m
	fmt.Fprintf(cfg.log, "# %d rounds of %d sessions; sessions/s per round %.1f, per plain wall second %.1f\n",
		len(rounds), fw.sessions(), rates, wallRates)
	if rep := rounds[0].rep; closed && rep.Chaos != nil && rep.Origin.Ingest != nil {
		var faults int64
		for _, n := range rep.Chaos.Injected {
			faults += n
		}
		fmt.Fprintf(cfg.log, "# closed loop, round 0: %d autonomous epoch bumps, %d faults injected and survived, %d retries, %d ring drops\n",
			rep.Origin.Ingest.RefreshesApplied, faults, rep.Chaos.Retries, rep.Events.Drops)
	}
	byABR := rounds[0].rep.ByABR
	for _, a := range fleet.AllABRs() {
		c := byABR[string(a)]
		fmt.Fprintf(cfg.log, "# true QoE %-10s %.4f  rebuffer %.2fs/session\n", a, c.MeanTrueQoE, c.MeanRebufferSec)
	}
	return out, nil
}

// checkRound applies the per-round checks: no failed session, exact
// ledger reconciliation, no leak, on fleet-vclock the simulator check, and
// on the closed loop the chaos replay, event-ring and autonomy checks.
func (fw *fleetWorkload) checkRound(out *outcome, i int, r fleetRound) {
	rep := r.rep
	if r.leak != "" {
		// A leak is a failed operation, not a wrong output.
		out.failed++
		out.note("round %d leaked: %s", i, r.leak)
	}
	switch {
	case rep.Failed > 0:
		// Failed sessions are counted as failed operations; reconciliation
		// necessarily lists them too.
		out.note("round %d: %d sessions failed: %v", i, rep.Failed, rep.Reconciliation.Problems)
	case !rep.Reconciliation.Ok:
		out.problem("round %d did not reconcile: %v", i, rep.Reconciliation.Problems)
	}
	if !fw.closed {
		fw.checkParity(out, i, rep)
		return
	}
	if rep.Chaos == nil || rep.Events == nil || rep.Origin.Ingest == nil {
		out.problem("round %d: closed-loop chaos report lacks its chaos, events or ingest ledger", i)
		return
	}
	if err := checkChaosReplay(fw.chaosSpec().Policy(), rep.Chaos.Events, rep.Chaos.Injected); err != nil {
		out.problem("round %d: chaos journal: %v", i, err)
	}
	for k, inj := range rep.Chaos.Injected {
		if srv := rep.Chaos.Survived[k]; srv != inj {
			out.problem("round %d: %d %s faults injected, %d survived", i, inj, k, srv)
		}
	}
	if rep.Events.Drops != 0 {
		out.problem("round %d: event rings dropped %d events", i, rep.Events.Drops)
	}
	ing := rep.Origin.Ingest
	if ing.RefreshesApplied < 1 {
		out.problem("round %d: the ingest autopilot made no epoch bump", i)
	}
	if rep.Origin.ProfilesRefreshed != ing.RefreshesApplied {
		out.problem("round %d: %d epoch bumps, %d of them autonomous", i, rep.Origin.ProfilesRefreshed, ing.RefreshesApplied)
	}
	if r.windows != ing.RefreshesApplied {
		out.problem("round %d: %d window campaigns ran for %d autonomous refreshes", i, r.windows, ing.RefreshesApplied)
	}
}

// checkChaosReplay recomputes every (session key, endpoint) fault stream
// from the policy seed alone with chaos.Policy.Replay and requires the
// origin's journal to hold exactly the faults the replay yields, up to each
// stream's last journaled request.
func checkChaosReplay(p chaos.Policy, journal []chaos.Event, injectedBy map[string]int64) error {
	type stream struct {
		key  string
		kind chaos.Kind
	}
	faults := map[stream]map[uint64]chaos.Mode{}
	var total int64
	for _, ev := range journal {
		s := stream{ev.Key, ev.Kind}
		if faults[s] == nil {
			faults[s] = map[uint64]chaos.Mode{}
		}
		faults[s][ev.Seq] = ev.Mode
		total++
	}
	var injected int64
	for _, n := range injectedBy {
		injected += n
	}
	if total != injected || total == 0 {
		return fmt.Errorf("journal holds %d faults, the injector counted %d", total, injected)
	}
	for s, got := range faults {
		var last uint64
		for seq := range got {
			last = max(last, seq)
		}
		for seq, mode := range p.Replay(s.key, s.kind, last+1) {
			if want := got[uint64(seq)]; mode != want {
				return fmt.Errorf("stream %s/%s request %d: journal %q, replay %q", s.key, s.kind, seq, want, mode)
			}
		}
	}
	return nil
}

// slot names one fleet session's inputs.
type slot struct{ video, trace, abr string }

// wholeBytes is a video as the origin serves it: every segment is
// video.ChunkSizeBits rounded down to whole bytes.
func wholeBytes(v *video.Video) *video.Video {
	out := *v
	out.Chunks = append([]video.Chunk(nil), v.Chunks...)
	for i := range out.Chunks {
		sizes := make([]float64, len(v.Chunks[i].SizeBits))
		for r, bits := range v.Chunks[i].SizeBits {
			sizes[r] = math.Floor(bits/8) * 8
		}
		out.Chunks[i].SizeBits = sizes
	}
	return &out
}

// planOn makes an algorithm plan on another copy of the video than the one
// the player downloads, as a fleet client plans on the catalog video while
// it downloads the whole bytes the origin serves.
type planOn struct {
	player.Algorithm
	video *video.Video
}

func (p planOn) Decide(s *player.State) player.Decision {
	st := *s
	st.Video = p.video
	return p.Algorithm.Decide(&st)
}

// simulate plays one slot in the simulator: the video's segments as the
// origin serves them, the algorithm planning on the catalog video, the same
// trace and the full-precision profiled weights that GET /weights serves.
func (fw *fleetWorkload) simulate(key slot) (*player.Result, error) {
	alg, err := fleet.NewAlgorithm(fleet.ABR(key.abr))
	if err != nil {
		return nil, err
	}
	plan := planOn{alg, fw.videos[key.video]}
	return player.Play(fw.served[key.video], fw.in.traces[key.trace], plan, fw.in.weights(key.video), player.Config{})
}

// checkParity compares every session of one fleet-vclock round with the
// simulator: the same rung sequence, the same stall total within
// stallToleranceSec, and bytes equal to the whole-byte encoded sizes of the
// rungs it rendered.
func (fw *fleetWorkload) checkParity(out *outcome, ri int, rep *fleet.Report) {
	for _, o := range rep.Outcomes {
		if o.Err != "" {
			continue
		}
		key := slot{o.Video, o.Trace, o.ABR}
		sim := fw.oracle[key]
		if sim == nil {
			var err error
			if sim, err = fw.simulate(key); err != nil {
				out.problem("simulating %v: %v", key, err)
				continue
			}
			fw.oracle[key] = sim
		}
		if !slices.Equal(o.Rungs, sim.Rendering.Rungs) {
			out.problem("round %d session %d %v: rungs %v, simulator %v", ri, o.Index, key, o.Rungs, sim.Rendering.Rungs)
		}
		d := math.Abs(o.RebufferSec - sim.RebufferSec)
		if d > stallToleranceSec {
			out.problem("round %d session %d %v: stall %.6fs, simulator %.6fs", ri, o.Index, key, o.RebufferSec, sim.RebufferSec)
		}
		fw.worstStall = max(fw.worstStall, d)
		var bytes int64
		for i, rung := range o.Rungs {
			bytes += int64(fw.videos[o.Video].ChunkSizeBits(i, rung) / 8)
		}
		if o.BytesDownloaded != bytes {
			out.problem("round %d session %d %v: %d bytes, its rungs encode to %d", ri, o.Index, key, o.BytesDownloaded, bytes)
		}
	}
}

func (fw *fleetWorkload) logParity(cfg runConfig) {
	fmt.Fprintf(cfg.log, "# simulator parity: %d distinct sessions, largest stall difference %.9fs\n", len(fw.oracle), fw.worstStall)
}

// trueQoE returns the mean latent QoE over every completed session, and
// over the sensei-mpc sessions alone.
func trueQoE(rounds []fleetRound) (all, sensei float64) {
	var sum, sumS float64
	var n, nS int
	for _, r := range rounds {
		for _, o := range r.rep.Outcomes {
			if o.Err != "" {
				continue
			}
			sum += o.TrueQoE
			n++
			if o.ABR == string(fleet.ABRSensei) {
				sumS += o.TrueQoE
				nS++
			}
		}
	}
	return per(sum, n), per(sumS, nS)
}

// traced is the fleet workloads' traced run. Each iteration runs one
// fleet.Run with a counting clock, for the counts its own ledgers give,
// then drives the same session slots through the same public constructors
// with span-recording wrappers around the algorithm, the client's
// transport, the origin handler and the clock.
func (fw *fleetWorkload) traced(cfg runConfig, rec *recorder, out *outcome) (*outcome, error) {
	m := newPerLayer()
	var rated int
	for _, p := range fw.in.profiles {
		rated += p.RatedRenderings
	}
	m.set("crowd.rated_renderings", "count", float64(rated))

	var sessions, rounds int
	var sleeps, parkedNs, retries, refetches, windows, applied, emitted, drops, bytes int64
	var fleetSec, tracedSec float64
	var tracedSessions int
	var conns int64
	start := time.Now()
	for rounds == 0 || time.Since(start) < cfg.seconds {
		clock := &countingClock{Clock: vclock.NewVirtual()}
		rm := startRuntime()
		r, err := fw.round(clock)
		if err != nil {
			return nil, err
		}
		if rounds == 0 {
			// The runtime figures come from the first fleet.Run alone, which
			// runs with no span recording.
			rm.report(m, r.rep.Sessions)
		}
		rounds++
		rep := r.rep
		out.attempted += int64(rep.Sessions)
		out.failed += int64(rep.Failed)
		fw.checkRound(out, rounds-1, r)
		sessions += rep.Sessions
		fleetSec += rep.ElapsedSec
		sleeps += clock.sleeps.Load()
		parkedNs += clock.parkedNs.Load()
		bytes += rep.BytesDownloaded
		windows += r.windows
		if rep.Chaos != nil {
			retries += rep.Chaos.Retries
		}
		if rep.Events != nil {
			emitted += rep.Events.Emitted
			drops += rep.Events.Drops
		}
		if rep.Origin.Ingest != nil {
			applied += rep.Origin.Ingest.RefreshesApplied
		}
		for _, o := range rep.Outcomes {
			refetches += int64(o.WeightRefreshes)
		}

		n, c, sec, err := fw.spanFleet(rec, rep, out)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(n)
		tracedSessions += n
		conns += c
		tracedSec += sec
	}
	m.set("dash.retries_per_session", "count", per(float64(retries), sessions))
	m.set("transport.mb_per_session", "MB", per(float64(bytes)/1e6, sessions))
	m.set("transport.conns_per_session", "count", per(float64(conns), tracedSessions))
	m.set("vclock.sleeps_per_session", "count", per(float64(sleeps), sessions))
	m.set("vclock.parked_ms_per_session", "ms", per(float64(parkedNs)/1e6, sessions))
	m.set("qlog.events_per_session", "count", per(float64(emitted), sessions))
	m.set("qlog.drops", "count", float64(drops))
	m.set("ingest.refreshes_applied", "count", per(float64(applied), rounds))
	m.set("crowd.window_campaigns", "count", per(float64(windows), rounds))
	m.set("sensitivity.refetches_per_session", "count", per(float64(refetches), sessions))
	spanMetrics(m, indexSpans(rec.spans), tracedSessions)
	out.metrics = m
	if !fw.closed {
		fw.logParity(cfg)
	}
	untraced, tracedRate := float64(sessions)/fleetSec, float64(tracedSessions)/tracedSec
	fmt.Fprintf(cfg.log, "# tracing overhead: %.1f sessions/s untraced (fleet.Run), %.1f traced (%+.1f%%)\n",
		untraced, tracedRate, 100*(tracedRate-untraced)/untraced)
	if cfg.spanPath != "" {
		if err := rec.write(cfg.spanPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "# %d spans written to %s\n", len(rec.spans), cfg.spanPath)
	}
	return out, nil
}

// spanFleet replays the session slots of one fleet.Run report the way
// fleet.Run drives them — the same origin configuration, one dash.Client
// per slot, at most nproc in flight on a fresh virtual clock — with every
// layer boundary traced. On fleet-vclock the traced sessions must render
// exactly what fleet.Run rendered. It returns the sessions run, the TCP
// connections the origin accepted and the wall seconds taken.
func (fw *fleetWorkload) spanFleet(rec *recorder, rep *fleet.Report, out *outcome) (int, int64, float64, error) {
	slots := rep.Outcomes
	clock := &countingClock{Clock: vclock.NewVirtual(), rec: rec}
	workers := runtime.NumCPU()
	ocfg := origin.Config{
		Clock:        clock,
		Catalog:      fw.in.videos,
		Profile:      fw.profile,
		Traces:       fw.in.traces,
		DefaultTrace: fw.in.traceNames[0],
		TimeScale:    1,
		MaxSessions:  max(origin.DefaultMaxSessions, len(slots)),
	}
	var raters *mos.Population
	var metrics *qlog.Metrics
	spec := fw.chaosSpec()
	if fw.closed {
		ic := fleet.FleetIngestDefaults()
		ocfg.Ingest = &ic
		p := spec.Policy()
		ocfg.Chaos = &p
		metrics = &qlog.Metrics{}
		ocfg.Events = &origin.EventsConfig{RingCapacity: ringCapacity, Metrics: metrics}
		var err error
		if raters, err = mos.NewPopulation(mos.PopulationConfig{Size: raterPopulation, Seed: fw.raterSeed()}); err != nil {
			return 0, 0, 0, err
		}
	}
	o, err := origin.New(ocfg)
	if err != nil {
		return 0, 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		o.Close()
		return 0, 0, 0, err
	}
	var conns atomic.Int64
	srv := &http.Server{
		Handler: &tracingHandler{inner: o, rec: rec},
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		},
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{
		MaxIdleConns:        workers + 4,
		MaxIdleConnsPerHost: workers + 4,
		// Keep-alive is off under chaos, as in fleet.Run: a transparent
		// retry on a reused connection would hide injected faults.
		DisableKeepAlives: fw.closed,
	}
	httpc := &http.Client{Transport: &tracingTransport{inner: transport, rec: rec}}

	base := "http://" + ln.Addr().String()
	var failed atomic.Int64
	mismatch := make([]string, len(slots))
	t0 := time.Now()
	_ = par.ForEachN(len(slots), workers, func(i int) error {
		clock.Enter()
		defer clock.Exit()
		slot := slots[i]
		alg, err := fleet.NewAlgorithm(fleet.ABR(slot.ABR))
		if err != nil {
			failed.Add(1)
			return nil
		}
		sp := rec.open(spanStream, classOther, 0, int32(slot.Index))
		c := &dash.Client{
			BaseURL:   base,
			Algorithm: traceAlgorithm(alg, slot.ABR, rec, sp),
			Trace:     slot.Trace,
			TimeScale: slot.TimeScale,
			HTTP:      httpc,
			Clock:     clock,
			Metrics:   metrics,
		}
		if fw.closed {
			if c.Rater, err = raters.SessionRater(slot.Index); err != nil {
				failed.Add(1)
				return nil
			}
			c.Events = qlog.NewRing(ringCapacity)
			// The fleet's per-slot chaos key and retry jitter seed.
			c.ChaosKey = fmt.Sprintf("s%04d", slot.Index)
			c.Retry = spec.Retry
			c.Retry.Seed ^= spec.Seed ^ ((uint64(slot.Index) + 1) * 0x9e3779b97f4a7c15)
		}
		ctx := withParent(context.Background(), sp)
		sess, err := c.Stream(ctx, fw.videos[slot.Video])
		rec.close(sp)
		if lerr := c.Leave(ctx); err == nil {
			err = lerr
		}
		if err != nil {
			failed.Add(1)
			return nil
		}
		if !fw.closed && !slices.Equal(sess.Rendering.Rungs, slot.Rungs) {
			mismatch[i] = fmt.Sprintf("traced session %d rendered %v, fleet.Run %v", slot.Index, sess.Rendering.Rungs, slot.Rungs)
		}
		return nil
	})
	elapsed := time.Since(t0).Seconds()
	var errs []error
	if ocfg.Ingest != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, o.DrainIngest(ctx))
		cancel()
	}
	transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	errs = append(errs, srv.Shutdown(ctx))
	cancel()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	if fw.closed {
		if err := fw.checkReplay(rep, o); err != nil {
			out.problem("closed-loop replay of %d sessions: %v", len(slots), err)
		}
	}
	o.Close()
	out.failed += failed.Load()
	for _, p := range mismatch {
		if p != "" {
			out.problem("%s", p)
		}
	}
	return len(slots), conns.Load(), elapsed, errors.Join(errs...)
}

// replayMargin bounds how far the closed-loop replay's request and fault
// totals may stray from the fleet.Run round it replays. Both run the same
// slots on fresh virtual clocks and matched exactly in every round tried;
// the margin leaves room for the ingest autopilot, whose epoch bumps are
// applied by a goroutine of its own.
const replayMargin = 0.05

// checkReplay ties a closed-loop replay to the fleet.Run round it replays,
// so the per-layer figures keep describing what fleet.Run does: the replay
// origin's chaos journal must equal chaos.Policy.Replay, most of its faults
// must be ones fleet.Run's journal holds too (the same per-slot chaos keys
// and request sequences), and its request and fault totals must be within
// replayMargin of fleet.Run's ledgers.
func (fw *fleetWorkload) checkReplay(rep *fleet.Report, o *origin.Origin) error {
	st := o.Stats()
	journal := o.ChaosJournal()
	if st.Chaos == nil || rep.Chaos == nil {
		return errors.New("the replay or fleet.Run ran without chaos")
	}
	if err := checkChaosReplay(fw.chaosSpec().Policy(), journal, st.Chaos.ByKind); err != nil {
		return fmt.Errorf("chaos journal: %w", err)
	}
	inRun := map[chaos.Event]bool{}
	for _, ev := range rep.Chaos.Events {
		inRun[ev] = true
	}
	var shared int
	for _, ev := range journal {
		if inRun[ev] {
			shared++
		}
	}
	requests := func(s origin.Stats) int64 { return s.SegmentsServed + s.ManifestsServed + s.WeightsServed }
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"replay faults fleet.Run's journal holds too, of all replay faults", float64(shared), float64(len(journal))},
		{"injected faults, replay against fleet.Run", float64(len(journal)), float64(len(rep.Chaos.Events))},
		{"segment, manifest and weights requests, replay against fleet.Run", float64(requests(st)), float64(requests(rep.Origin))},
	} {
		if math.Abs(c.got-c.want) > replayMargin*c.want {
			return fmt.Errorf("%s: %.0f against %.0f", c.what, c.got, c.want)
		}
	}
	return nil
}
