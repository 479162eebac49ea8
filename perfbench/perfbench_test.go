package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"gplus/internal/obs/trace"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare
// against the program.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the metric tables in
// this package naming the same metrics with the same units.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	compare := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s #%d: program %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEndMetrics, spec.EndToEnd)
	compare("per_layer", perLayerMetrics, spec.PerLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEveryWorkload runs each workload at a tiny size in both modes
// and checks that every named metric is emitted, and nothing else.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crawls small universes")
	}
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, mode := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+mode, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", mode,
					"--users", "600", "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !strings.HasPrefix(stdout.String(), "host: {") {
					t.Errorf("output does not start with the host stamp:\n%s", stdout.String())
				}
				if res.Attempted < 1 || res.Failed < 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if mode == "1" {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name := range res.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q breaks the naming rule", name)
					}
				}
				// A tiny universe misses some of the paper's value bands,
				// but a crawl of it must still be exact.
				if w.Name == "crawl" && !res.Correct {
					t.Errorf("crawl failed its checks: %s", stderr.String())
				}
			})
		}
	}
}

// TestSummarizeHandBuiltTree checks self-time, root and retry
// aggregation on a client trace whose server half is a separate trace
// sharing its id:
//
//	crawl.profile [0,100]
//	├── fetch.profile [0,30]
//	│   └── api.profile [0,30]
//	│       ├── attempt [0,10]
//	│       └── attempt [12,30]
//	│           └── server.profile [15,25]   (server-side trace)
//	└── circle.page [30,90]
//	    └── sched.offer [70,80]
func TestSummarizeHandBuiltTree(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	ms := time.Millisecond
	span := func(id, parent, name string, from, to int) *trace.Span {
		return &trace.Span{TraceID: "t1", SpanID: id, Parent: parent, Name: name,
			Start: t0.Add(time.Duration(from) * ms), Dur: time.Duration(to-from) * ms}
	}
	client := &trace.Trace{TraceID: "t1", RootID: "r", Start: t0, Dur: 100 * ms, Spans: []*trace.Span{
		span("r", "", "crawl.profile", 0, 100),
		span("f", "r", "fetch.profile", 0, 30),
		span("p", "f", "api.profile", 0, 30),
		span("a1", "p", "attempt", 0, 10),
		span("a2", "p", "attempt", 12, 30),
		span("c", "r", "circle.page", 30, 90),
		span("o", "c", "sched.offer", 70, 80),
	}}
	srv := span("s", "a2", "server.profile", 15, 25)
	srv.Remote = true
	server := &trace.Trace{TraceID: "t1", RootID: "s", Start: srv.Start, Dur: srv.Dur, Spans: []*trace.Span{srv}}

	sum := summarize([]*trace.Trace{client, server})
	wantSelf := map[string]time.Duration{
		"crawl.profile": 10 * ms, "fetch.profile": 0, "api.profile": 2 * ms, "attempt": 18 * ms,
		"server.profile": 10 * ms, "circle.page": 50 * ms, "sched.offer": 10 * ms,
	}
	var total time.Duration
	for name, want := range wantSelf {
		if got := sum.self[name]; got != want {
			t.Errorf("self[%s] = %v, want %v", name, got, want)
		}
		total += sum.self[name]
	}
	if total != 100*ms {
		t.Errorf("self-times sum to %v, want the root's 100ms", total)
	}
	if sum.roots["crawl.profile"] != 1 || len(sum.roots) != 1 {
		t.Errorf("roots = %v, want one merged crawl.profile", sum.roots)
	}
	if sum.attempts != 2 || sum.ops != 1 {
		t.Errorf("attempts/ops = %d/%d, want 2/1", sum.attempts, sum.ops)
	}
	if got := sum.children["crawl.profile"]; got != 90*ms {
		t.Errorf("children of crawl.profile sum to %v, want 90ms", got)
	}
	if got := sum.spans["attempt"]; len(got) != 2 {
		t.Errorf("attempt durations = %v, want two", got)
	}
}

func TestPercentile(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}, {0.001, time.Millisecond}} {
		if got := percentile(d, c.q); got != c.want {
			t.Errorf("p%g = %v, want %v", c.q*100, got, c.want)
		}
	}
	if d[0] != 100*time.Millisecond {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7ns", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
