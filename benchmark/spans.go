package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/crowd"
	"sensei/internal/player"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanProfile   spanKind = iota // crowd.Profiler.Profile
	spanPlay                      // player.Play
	spanDecide                    // player.Algorithm.Decide
	spanStream                    // dash.Client.Stream
	spanRoundTrip                 // dash.Client's http.RoundTripper, to the last body byte
	spanHandler                   // origin.Origin.ServeHTTP
	spanSleep                     // vclock.Clock.Sleep
)

var spanKindNames = [...]string{"profile", "play", "decide", "stream", "roundtrip", "handler", "sleep"}

// Request classes of round-trip and handler spans, and the planner class
// of decide spans.
const (
	classOther uint8 = iota
	classSegment
	classControl // join, manifest, weights, leave
	classRating
	classMPC // a Decide of mpc or sensei-mpc
)

// span is one timed call across a layer boundary. Times are offsets from
// the recorder's epoch; parent is 0 for a root span.
type span struct {
	id, parent uint64
	session    int32
	kind       spanKind
	class      uint8
	start, end time.Duration
}

// recorder keeps every span of a traced run in memory until the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// open allocates a span ID and stamps the start.
func (r *recorder) open(kind spanKind, class uint8, parent uint64, session int32) span {
	return span{id: r.nextID.Add(1), parent: parent, session: session, kind: kind, class: class, start: r.now()}
}

// close stamps the end and keeps the span.
func (r *recorder) close(s span) {
	s.end = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write dumps the spans as CSV, one span a line, ordered by start.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].start < r.spans[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,session,kind,class,start_ns,end_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.id, s.parent, s.session, spanKindNames[s.kind], s.class, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentKey carries the enclosing span through a context.
type parentKey struct{}

type parentRef struct {
	id      uint64
	session int32
}

func withParent(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, parentKey{}, parentRef{s.id, s.session})
}

func parentOf(ctx context.Context) parentRef {
	p, _ := ctx.Value(parentKey{}).(parentRef)
	return p
}

// tracedAlgorithm records a span around every Decide of one session.
type tracedAlgorithm struct {
	player.Algorithm
	rec     *recorder
	parent  uint64
	session int32
	class   uint8
}

func traceAlgorithm(alg player.Algorithm, abrName string, rec *recorder, parent span) *tracedAlgorithm {
	class := classOther
	if abrName == "mpc" || abrName == "sensei-mpc" {
		class = classMPC
	}
	return &tracedAlgorithm{Algorithm: alg, rec: rec, parent: parent.id, session: parent.session, class: class}
}

func (a *tracedAlgorithm) Decide(s *player.State) player.Decision {
	sp := a.rec.open(spanDecide, a.class, a.parent, a.session)
	d := a.Algorithm.Decide(s)
	a.rec.close(sp)
	return d
}

// profileWith returns a set-up hook that records a span around each
// crowd campaign.
func profileWith(rec *recorder) func(*crowd.Profiler, *video.Video) (*crowd.Profile, error) {
	return func(p *crowd.Profiler, v *video.Video) (*crowd.Profile, error) {
		sp := rec.open(spanProfile, classOther, 0, -1)
		prof, err := p.Profile(v)
		rec.close(sp)
		return prof, err
	}
}

// countingClock forwards to a vclock.Clock, counting sleeps and the wall
// time spent parked in them; with a recorder it also keeps a span per
// sleep, parented by the span in the sleeper's context.
type countingClock struct {
	vclock.Clock
	rec      *recorder
	sleeps   atomic.Int64
	parkedNs atomic.Int64
}

func (c *countingClock) Sleep(ctx context.Context, d time.Duration) bool {
	t0 := time.Now()
	var sp span
	if c.rec != nil {
		p := parentOf(ctx)
		sp = c.rec.open(spanSleep, classOther, p.id, p.session)
	}
	ok := c.Clock.Sleep(ctx, d)
	if c.rec != nil {
		c.rec.close(sp)
	}
	c.sleeps.Add(1)
	c.parkedNs.Add(int64(time.Since(t0)))
	return ok
}

// spanHeader carries the client's round-trip span ID to the origin, so the
// handler span can name it as its parent.
const spanHeader = "X-Bench-Span"

// requestClass sorts a request into the origin's endpoint families.
func requestClass(r *http.Request) uint8 {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v/") && strings.Contains(p, "/segment/"):
		return classSegment
	case p == "/rating":
		return classRating
	case strings.HasPrefix(p, "/v/"), p == "/weights", strings.HasPrefix(p, "/session"):
		return classControl
	}
	return classOther
}

// tracingTransport records a span per request, from the call until the
// last body byte has been read (or the body closed).
type tracingTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := parentOf(req.Context())
	sp := t.rec.open(spanRoundTrip, requestClass(req), p.id, p.session)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp.Body == nil {
		t.rec.close(sp)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, sp: sp}
	return resp, nil
}

// spanBody ends its round-trip span at EOF, on a read error or at Close,
// whichever comes first.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	sp   span
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.rec.close(b.sp)
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// tracingHandler records a span around every request the origin serves,
// parented by the client's round-trip span.
type tracingHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	sp := h.rec.open(spanHandler, requestClass(r), parent, -1)
	// A chaos truncation aborts the handler with a panic; the span still
	// ends, and the panic continues to net/http.
	defer h.rec.close(sp)
	h.inner.ServeHTTP(w, r.WithContext(withParent(r.Context(), sp)))
}
