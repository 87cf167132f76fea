package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"sensei/internal/crowd"
	"sensei/internal/mos"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// fleetVideos are the four videos the fleet workloads stream at full
// length: two sports/gaming titles with sharp attention peaks, a short
// nature title with long scenic lulls, and an animation.
var fleetVideos = []string{"Soccer1", "Tank", "Mountain", "Lava"}

// traceClass is one family × mean cell of the trace mix.
type traceClass struct {
	kind    trace.Kind
	label   string
	meanBps float64
}

// traceClasses spans both synthetic families at a low mean (below the
// ladder's middle rung, so stalls and quality drops are frequent and
// sensitivity weights matter) and a mid mean (most of the ladder reachable).
var traceClasses = []traceClass{
	{trace.KindFCC, "fcc-low", 1.2e6},
	{trace.KindFCC, "fcc-mid", 3.0e6},
	{trace.KindHSDPA, "hsdpa-low", 1.2e6},
	{trace.KindHSDPA, "hsdpa-mid", 3.0e6},
}

// traceSeconds outlasts the longest session (a 220 s video plus stalls), so
// no session wraps around its trace.
const traceSeconds = 600

// populationSize is the crowd profiled against, as in the repository's
// examples.
const populationSize = 30000

// Seed streams: each input family draws from its own stream of the
// workload seed, so adding a trace does not perturb the crowd.
const (
	streamTraces uint64 = iota + 1
	streamCrowd
	streamRaters
	streamChaos
	streamSample
)

// derive returns the workload seed's value for one stream and index
// (splitmix64 finalizer over the packed triple).
func derive(seed, stream, i uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// inputs is everything a workload streams, built from its seed.
type inputs struct {
	videos     []*video.Video
	traces     map[string]*trace.Trace
	traceNames []string // sorted
	pop        *mos.Population
	profiles   map[string]*crowd.Profile
}

// setupSpec sizes one workload's inputs.
type setupSpec struct {
	videos         []string // nil selects the whole 16-video catalog
	tracesPerClass int
	excerpt        int // keep only the first chunks of each video (0 = full length)
}

// buildInputs generates the catalog and the traces, synthesizes the crowd
// and profiles every video with it. profile wraps each crowd campaign (the
// traced run records a span around it); nil calls the profiler directly.
func buildInputs(spec setupSpec, seed uint64, profile func(*crowd.Profiler, *video.Video) (*crowd.Profile, error)) (*inputs, error) {
	in := &inputs{traces: map[string]*trace.Trace{}, profiles: map[string]*crowd.Profile{}}
	if spec.videos == nil {
		in.videos = video.TestSet()
	} else {
		for _, name := range spec.videos {
			v, err := video.ByName(name)
			if err != nil {
				return nil, err
			}
			in.videos = append(in.videos, v)
		}
	}
	if spec.excerpt > 0 {
		for i, v := range in.videos {
			x, err := v.Excerpt(0, min(spec.excerpt, v.NumChunks()))
			if err != nil {
				return nil, err
			}
			in.videos[i] = x
		}
	}
	for c, tc := range traceClasses {
		for j := 0; j < spec.tracesPerClass; j++ {
			name := fmt.Sprintf("%s-%d", tc.label, j)
			in.traces[name] = trace.Generate(trace.GenSpec{
				Name:    name,
				Kind:    tc.kind,
				MeanBps: tc.meanBps,
				Seconds: traceSeconds,
				Seed:    derive(seed, streamTraces, uint64(c*1000+j)),
			})
			in.traceNames = append(in.traceNames, name)
		}
	}
	sort.Strings(in.traceNames)
	pop, err := mos.NewPopulation(mos.PopulationConfig{Size: populationSize, Seed: derive(seed, streamCrowd, 0)})
	if err != nil {
		return nil, err
	}
	in.pop = pop
	profiler := crowd.NewProfiler(pop)
	if profile == nil {
		profile = (*crowd.Profiler).Profile
	}
	for _, v := range in.videos {
		p, err := profile(profiler, v)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", v.Name, err)
		}
		in.profiles[v.Name] = p
	}
	return in, nil
}

// weights returns the crowd-profiled weight vector of a catalog video.
func (in *inputs) weights(name string) []float64 { return in.profiles[name].Weights }

// timedSetup builds the inputs reps times and returns the first build and
// the median build time, less the share of the set-up phase the hypervisor
// stole (see stealMeter.unstolen). Every repetition must profile to the
// same weights: the profiler is deterministic in the crowd seed.
func timedSetup(spec setupSpec, seed uint64, reps int, profile func(*crowd.Profiler, *video.Video) (*crowd.Profile, error)) (*inputs, float64, error) {
	var first *inputs
	secs := make([]float64, 0, reps)
	steal, start := startSteal(), time.Now()
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		in, err := buildInputs(spec, seed, profile)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if first == nil {
			first = in
			// Only the first build's spans describe set-up; later builds
			// exist to time it.
			profile = nil
			continue
		}
		for name, p := range first.profiles {
			if !slices.Equal(p.Weights, in.profiles[name].Weights) {
				return nil, 0, fmt.Errorf("set-up repetition %d profiled %s to different weights", r, name)
			}
		}
	}
	wall := time.Since(start).Seconds()
	return first, median(secs) * steal.unstolen(wall) / wall, nil
}

// checkWeights validates every profiled vector against the content's
// latent sensitivity, which the crowd never sees directly: each weight must
// be in crowd.ValidWeight's range and the vector must correlate positively
// with video.TrueSensitivity. It returns the lowest correlation.
func checkWeights(in *inputs) (float64, error) {
	minR := math.Inf(1)
	for _, v := range in.videos {
		w := in.weights(v.Name)
		if len(w) != v.NumChunks() {
			return 0, fmt.Errorf("%s: %d weights for %d chunks", v.Name, len(w), v.NumChunks())
		}
		for i, x := range w {
			if !crowd.ValidWeight(x) {
				return 0, fmt.Errorf("%s: weight %d is %v, outside the valid range", v.Name, i, x)
			}
		}
		r := pearson(w, v.TrueSensitivity())
		if !(r > 0) {
			return 0, fmt.Errorf("%s: profiled weights correlate %.3f with the true sensitivity", v.Name, r)
		}
		minR = math.Min(minR, r)
	}
	return minR, nil
}

// pearson is the sample correlation of two equal-length vectors (NaN when
// either is constant).
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (0 for empty input).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
