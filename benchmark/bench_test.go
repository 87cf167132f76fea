package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"sensei/internal/vclock"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallScale keeps every workload and every check but streams 12-chunk
// excerpts over one trace per family × mean, with a single set-up.
var smallScale = scale{tracesPerClass: 1, excerpt: 12, setupReps: 1}

// TestSelf runs every workload at the small scale, untraced and traced,
// through all of its checks, and requires the metrics it reports to be
// exactly the ones BENCHMARK.json declares, with the same units.
func TestSelf(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				var log io.Writer = io.Discard
				if testing.Verbose() {
					log = os.Stdout
				}
				out, err := workloads[name](runConfig{seed: 7, seconds: time.Nanosecond, traced: traced, scale: smallScale, log: log})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range out.problems {
					t.Error("check failed:", p)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Errorf("%d of %d operations failed: %v", out.failed, out.attempted, out.notes)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				checkMetrics(t, out.metrics, want, traced)
			})
		}
	}
}

func checkMetrics(t *testing.T, got metrics, want []specMetric, traced bool) {
	t.Helper()
	var gotNames, wantNames []string
	for n := range got {
		gotNames = append(gotNames, n)
	}
	for _, m := range want {
		wantNames = append(wantNames, m.Name)
		g, ok := got[m.Name]
		if !ok {
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
		if !traced && !(g.Value > 0) {
			t.Errorf("end-to-end metric %s reads %v; it must never be 0", m.Name, g.Value)
		}
	}
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if fmt.Sprint(gotNames) != fmt.Sprint(wantNames) {
		t.Errorf("reported metrics %v\nBENCHMARK.json     %v", gotNames, wantNames)
	}
}

// TestParityDivergence requires the simulator check to flag a fleet-vclock
// session whose stall strays from the simulator's and one whose bytes are
// not its rungs' encoded sizes.
func TestParityDivergence(t *testing.T) {
	spec := setupSpec{videos: fleetVideos, tracesPerClass: smallScale.tracesPerClass, excerpt: smallScale.excerpt}
	in, err := buildInputs(spec, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	fw := newFleetWorkload(in, 7, false)
	r, err := fw.round(vclock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	fw.checkParity(out, 0, r.rep)
	if len(out.problems) != 0 {
		t.Fatalf("unaltered round: %v", out.problems)
	}
	r.rep.Outcomes[0].RebufferSec += 2 * stallToleranceSec
	r.rep.Outcomes[1].BytesDownloaded++
	fw.checkParity(out, 1, r.rep)
	if len(out.problems) != 2 {
		t.Errorf("altered round: problems %v, want one stall and one byte mismatch", out.problems)
	}
}

// TestUsage rejects invalid arguments with a non-zero exit, without
// printing a result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "abr-sim", "--seconds", "0"},
		{"--workload", "abr-sim", "--trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}
