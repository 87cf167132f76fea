package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sensei/internal/abr"
	"sensei/internal/crowd"
	"sensei/internal/fleet"
	"sensei/internal/mos"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/video"
)

// Brute-force sample size: sessions re-run with their decisions captured,
// and decisions per such session re-planned by the exhaustive planner.
const (
	bruteSessions       = 8
	bruteDecisionsEvery = 8 // every 8th decision of a sampled session
)

// simSlot is one abr-sim session: a video, a trace and an ABR.
type simSlot struct {
	video *video.Video
	trace string
	abr   fleet.ABR
}

// simSlots is every video × trace × ABR combination.
func simSlots(in *inputs) []simSlot {
	var slots []simSlot
	for _, v := range in.videos {
		for _, t := range in.traceNames {
			for _, a := range fleet.AllABRs() {
				slots = append(slots, simSlot{v, t, a})
			}
		}
	}
	return slots
}

// playRound plays every slot once with at most nproc sessions in flight.
// With a recorder each Play and each Decide gets a span; wrap, when set,
// replaces each session's algorithm.
func playRound(in *inputs, slots []simSlot, rec *recorder, wrap func(i int, alg player.Algorithm) player.Algorithm) ([]*player.Result, []error) {
	results := make([]*player.Result, len(slots))
	errs := make([]error, len(slots))
	_ = par.ForEachN(len(slots), runtime.NumCPU(), func(i int) error {
		s := slots[i]
		alg, err := fleet.NewAlgorithm(s.abr)
		if err != nil {
			errs[i] = err
			return nil
		}
		if wrap != nil {
			alg = wrap(i, alg)
		}
		if rec == nil {
			results[i], errs[i] = player.Play(s.video, in.traces[s.trace], alg, in.weights(s.video.Name), player.Config{})
			return nil
		}
		sp := rec.open(spanPlay, classOther, 0, int32(i))
		results[i], errs[i] = player.Play(s.video, in.traces[s.trace], traceAlgorithm(alg, string(s.abr), rec, sp), in.weights(s.video.Name), player.Config{})
		rec.close(sp)
		return nil
	})
	return results, errs
}

// countFailed counts the sessions that returned an error.
func countFailed(out *outcome, errs []error) {
	for i, err := range errs {
		if err != nil {
			out.failed++
			out.note("session %d: %v", i, err)
		}
	}
}

// runSim runs abr-sim: the paper's evaluation loop in process.
func runSim(cfg runConfig) (*outcome, error) {
	var rec *recorder
	var hook func(*crowd.Profiler, *video.Video) (*crowd.Profile, error)
	if cfg.traced {
		rec = newRecorder()
		hook = profileWith(rec)
	}
	spec := setupSpec{tracesPerClass: cfg.scale.tracesPerClass, excerpt: cfg.scale.excerpt}
	in, setupS, err := timedSetup(spec, cfg.seed, cfg.scale.setupReps, hook)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if r, err := checkWeights(in); err != nil {
		out.problem("profiled weights: %v", err)
	} else {
		fmt.Fprintf(cfg.log, "# weights: every vector valid, lowest correlation with the true sensitivity %.3f\n", r)
	}
	slots := simSlots(in)
	if cfg.traced {
		return simTraced(cfg, in, slots, rec, out)
	}

	// One untimed round first: the first pass over the catalog grows the
	// heap and faults in pages that later rounds reuse.
	_, errs := playRound(in, slots, nil, nil)
	out.attempted += int64(len(slots))
	countFailed(out, errs)

	var first []*player.Result
	var rates, wallRates, cpuPer []float64
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < cfg.seconds {
		c0, t0, steal := processCPU(), time.Now(), startSteal()
		results, errs := playRound(in, slots, nil, nil)
		elapsed, cpu := time.Since(t0).Seconds(), processCPU().sub(c0)
		out.attempted += int64(len(slots))
		countFailed(out, errs)
		rates = append(rates, float64(len(slots))/steal.unstolen(elapsed))
		wallRates = append(wallRates, float64(len(slots))/elapsed)
		cpuPer = append(cpuPer, ms(cpu.total())/float64(len(slots)))
		if first == nil {
			first = results
			continue
		}
		for i, r := range results {
			if r != nil && first[i] != nil && !slices.Equal(r.Rendering.Rungs, first[i].Rendering.Rungs) {
				out.problem("session %d rendered differently in round %d", i, len(rates)-1)
			}
		}
	}

	checkBits(out, slots, first)
	checkPlanner(cfg, out, in, slots, first)
	var all, sensei, n, nS float64
	byABR := map[fleet.ABR][2]float64{}
	for i, r := range first {
		if r == nil {
			continue
		}
		q := mos.TrueQoE(r.Rendering)
		all += q
		n++
		if slots[i].abr == fleet.ABRSensei {
			sensei += q
			nS++
		}
		acc := byABR[slots[i].abr]
		byABR[slots[i].abr] = [2]float64{acc[0] + q, acc[1] + 1}
	}
	m := metrics{}
	m.set("setup_s", "s", setupS)
	m.set("sessions_per_sec", "sessions/s", median(rates))
	m.set("cpu_ms_per_session", "ms", median(cpuPer))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	m.set("mean_true_qoe", "qoe", all/n)
	m.set("sensei_true_qoe", "qoe", sensei/nS)
	out.metrics = m
	fmt.Fprintf(cfg.log, "# %d rounds of %d sessions; sessions/s per round %.1f, per plain wall second %.1f\n",
		len(rates), len(slots), rates, wallRates)
	for _, a := range fleet.AllABRs() {
		fmt.Fprintf(cfg.log, "# true QoE %-10s %.4f\n", a, byABR[a][0]/byABR[a][1])
	}
	return out, nil
}

// checkBits requires each session's traffic to be the sum of the encoded
// chunk sizes of the rungs it rendered.
func checkBits(out *outcome, slots []simSlot, results []*player.Result) {
	for i, r := range results {
		if r == nil {
			continue
		}
		v := slots[i].video
		var bits float64
		for c, rung := range r.Rendering.Rungs {
			bits += v.ChunkSizeBits(c, rung)
		}
		if bits != r.BitsDownloaded {
			out.problem("session %d: %.0f bits downloaded, its rungs encode to %.0f", i, r.BitsDownloaded, bits)
		}
	}
}

// capture records a copy of every state an algorithm was asked about and
// the decision it gave.
type capture struct {
	player.Algorithm
	states    []player.State
	decisions []player.Decision
}

func (c *capture) Decide(s *player.State) player.Decision {
	d := c.Algorithm.Decide(s)
	st := *s
	st.ThroughputBps = append([]float64(nil), s.ThroughputBps...)
	st.DownloadSec = append([]float64(nil), s.DownloadSec...)
	c.states = append(c.states, st)
	c.decisions = append(c.decisions, d)
	return d
}

// checkPlanner re-runs a seeded sample of mpc and sensei-mpc sessions with
// their decisions captured, and re-plans every bruteDecisionsEvery-th
// decision with abr.MPC.BruteForce, the exhaustive planner the tree search
// must match exactly.
func checkPlanner(cfg runConfig, out *outcome, in *inputs, slots []simSlot, first []*player.Result) {
	var mpcSlots []int
	for i, s := range slots {
		if s.abr == fleet.ABRMPC || s.abr == fleet.ABRSensei {
			mpcSlots = append(mpcSlots, i)
		}
	}
	sample := make([]simSlot, 0, bruteSessions)
	index := make([]int, 0, bruteSessions)
	for k := 0; k < bruteSessions && len(mpcSlots) > 0; k++ {
		i := mpcSlots[derive(cfg.seed, streamSample, uint64(k))%uint64(len(mpcSlots))]
		sample = append(sample, slots[i])
		index = append(index, i)
	}
	caps := make([]*capture, len(sample))
	results, errs := playRound(in, sample, nil, func(i int, alg player.Algorithm) player.Algorithm {
		caps[i] = &capture{Algorithm: alg}
		return caps[i]
	})
	checked := 0
	for k, c := range caps {
		if errs[k] != nil || first[index[k]] == nil {
			continue
		}
		if !slices.Equal(results[k].Rendering.Rungs, first[index[k]].Rendering.Rungs) {
			out.problem("session %d rendered differently when re-run for the planner check", index[k])
		}
		brute := abr.NewFugu()
		if sample[k].abr == fleet.ABRSensei {
			brute = abr.NewSenseiFugu()
		}
		brute.BruteForce = true
		for j := 0; j < len(c.states); j += bruteDecisionsEvery {
			st := c.states[j]
			if got, want := c.decisions[j], brute.Decide(&st); got != want {
				out.problem("session %d chunk %d: tree search chose %+v, brute force %+v", index[k], j, got, want)
			}
			checked++
		}
	}
	fmt.Fprintf(cfg.log, "# planner: %d sampled decisions of %d sessions match the brute-force planner\n", checked, len(sample))
}

// tracedSimRounds is how many abr-sim rounds record spans (about 55k
// spans each); the rest of a traced run's time runs untraced rounds, for
// the runtime figures and the tracing overhead.
const tracedSimRounds = 2

// simTraced is abr-sim's traced run: tracedSimRounds rounds with a span
// around every Play and Decide, then untraced rounds until the time is up.
func simTraced(cfg runConfig, in *inputs, slots []simSlot, rec *recorder, out *outcome) (*outcome, error) {
	m := newPerLayer()
	var rated int
	for _, p := range in.profiles {
		rated += p.RatedRenderings
	}
	m.set("crowd.rated_renderings", "count", float64(rated))

	var tracedSec, untracedSec float64
	var tracedRounds, untracedRounds int
	var rm runtimeMeter
	start := time.Now()
	for tracedRounds+untracedRounds <= tracedSimRounds || time.Since(start) < cfg.seconds {
		traced := tracedRounds < tracedSimRounds
		r := rec
		if !traced {
			r = nil
			if untracedRounds == 0 {
				rm = startRuntime()
			}
		}
		t0 := time.Now()
		_, errs := playRound(in, slots, r, nil)
		if traced {
			tracedSec += time.Since(t0).Seconds()
			tracedRounds++
		} else {
			untracedSec += time.Since(t0).Seconds()
			untracedRounds++
		}
		out.attempted += int64(len(slots))
		countFailed(out, errs)
	}
	rm.report(m, untracedRounds*len(slots))
	spanMetrics(m, indexSpans(rec.spans), tracedRounds*len(slots))
	out.metrics = m
	untraced := float64(untracedRounds*len(slots)) / untracedSec
	rate := float64(tracedRounds*len(slots)) / tracedSec
	fmt.Fprintf(cfg.log, "# tracing overhead: %.1f sessions/s untraced, %.1f traced (%+.1f%%)\n",
		untraced, rate, 100*(rate-untraced)/untraced)
	if cfg.spanPath != "" {
		if err := rec.write(cfg.spanPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "# %d spans written to %s\n", len(rec.spans), cfg.spanPath)
	}
	return out, nil
}
