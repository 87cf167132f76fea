package main

import (
	"sort"
	"time"
)

// spanIndex answers self-time questions over one traced run.
type spanIndex struct {
	spans    []span
	children map[uint64][]int // parent ID → indexes into spans
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[uint64][]int, len(spans)/2)}
	for i, s := range spans {
		if s.parent != 0 {
			ix.children[s.parent] = append(ix.children[s.parent], i)
		}
	}
	return ix
}

// self is a span's duration minus the part of its interval that its child
// spans cover (overlapping children are counted once).
func (ix *spanIndex) self(s span) time.Duration {
	kids := ix.children[s.id]
	if len(kids) == 0 {
		return s.end - s.start
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := ix.spans[k]
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return s.end - s.start - covered
}

// spanSummary aggregates the spans of one kind and class.
type spanSummary struct {
	count    int
	total    time.Duration // sum of durations
	selfSum  time.Duration
	selfVals []float64 // self times in µs
}

func (ix *spanIndex) summarize(kind spanKind, class func(uint8) bool) spanSummary {
	var out spanSummary
	for _, s := range ix.spans {
		if s.kind != kind || !class(s.class) {
			continue
		}
		self := ix.self(s)
		out.count++
		out.total += s.end - s.start
		out.selfSum += self
		out.selfVals = append(out.selfVals, float64(self)/1e3)
	}
	return out
}

func anyClass(uint8) bool { return true }

func isClass(c uint8) func(uint8) bool { return func(x uint8) bool { return x == c } }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// per divides, returning 0 for an empty base.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// spanMetrics fills the per-layer metrics the spans of a traced run
// measure. sessions is the number of traced sessions (Stream or Play
// spans).
func spanMetrics(m metrics, ix *spanIndex, sessions int) {
	decideMPC := ix.summarize(spanDecide, isClass(classMPC))
	decideAll := ix.summarize(spanDecide, anyClass)
	// Decide spans have no children, so their self time is their duration.
	m.set("abr.mpc_decide_us_p50", "us", quantile(decideMPC.selfVals, 0.50))
	m.set("abr.mpc_decide_us_p99", "us", quantile(decideMPC.selfVals, 0.99))
	m.set("abr.decide_ms_per_session", "ms", per(ms(decideAll.total), sessions))

	play := ix.summarize(spanPlay, anyClass)
	m.set("player.self_ms_per_session", "ms", per(ms(play.selfSum), play.count))

	stream := ix.summarize(spanStream, anyClass)
	m.set("dash.self_ms_per_session", "ms", per(ms(stream.selfSum), stream.count))
	rt := ix.summarize(spanRoundTrip, anyClass)
	m.set("dash.requests_per_session", "count", per(float64(rt.count), stream.count))

	seg := ix.summarize(spanRoundTrip, isClass(classSegment))
	m.set("transport.segment_us_p50", "us", quantile(seg.selfVals, 0.50))
	m.set("transport.segment_us_p99", "us", quantile(seg.selfVals, 0.99))

	oseg := ix.summarize(spanHandler, isClass(classSegment))
	m.set("origin.segment_us_p50", "us", quantile(oseg.selfVals, 0.50))
	m.set("origin.segment_us_p99", "us", quantile(oseg.selfVals, 0.99))
	m.set("origin.control_us_p50", "us", quantile(ix.summarize(spanHandler, isClass(classControl)).selfVals, 0.50))
	m.set("origin.rating_us_p50", "us", quantile(ix.summarize(spanHandler, isClass(classRating)).selfVals, 0.50))

	prof := ix.summarize(spanProfile, anyClass)
	m.set("crowd.profile_ms_per_video", "ms", per(ms(prof.total), prof.count))
}
