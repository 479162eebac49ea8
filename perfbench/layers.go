package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gplus/internal/crawler"
	"gplus/internal/obs/trace"
)

// coreStages are the analysis stages the traced pass times one at a
// time; "nodes" covers the attribute, tel, country, link, field and
// openness tables.
var coreStages = []string{"degrees", "reciprocity", "clustering", "scc", "wcc", "paths", "motifs", "topology", "nodes"}

// perLayerMetrics is every metric the traced pass prints, in README
// order. A layer the workload does not run reads zero.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"gplusd.requests", "count"},
		{"gplusd.busy_s", "s"},
		{"gplusd.profile_p50_us", "us"},
		{"gplusd.profile_p99_us", "us"},
		{"gplusd.circles_p50_us", "us"},
		{"gplusd.circles_p99_us", "us"},
		{"gplusd.non2xx", "count"},
		{"gplusapi.attempt_self_s", "s"},
		{"gplusapi.attempts_per_op", "ratio"},
		{"crawler.crawl_s", "s"},
		{"crawler.pages", "count"},
		{"crawler.frontier_peak", "count"},
		{"crawler.sched_offer_self_s", "s"},
		{"crawler.circle_page_self_s", "s"},
		{"crawler.journal_self_s", "s"},
		{"crawler.journal_bytes", "bytes"},
		{"dataset.sink_calls", "count"},
		{"dataset.sink_s", "s"},
		{"diskcsr.segments_flushed", "count"},
		{"diskcsr.segment_edges", "count"},
		{"diskcsr.compaction_edges", "count"},
		{"dataset.from_segments_s", "s"},
		{"diskcsr.v2_bytes", "bytes"},
		{"diskcsr.bytes_per_edge", "B/edge"},
		{"dataset.load_s", "s"},
		{"diskcsr.mapped_bytes", "bytes"},
	}
	for _, st := range coreStages {
		defs = append(defs,
			metricDef{"core." + st + "_s", "s"},
			metricDef{"core." + st + ".minflt", "count"},
			metricDef{"core." + st + ".alloc_mib", "MiB"})
	}
	return append(defs,
		metricDef{"core.structure_s", "s"},
		metricDef{"core.structure_overlap", "ratio"},
		metricDef{"paper.evaluate_s", "s"},
		metricDef{"paper.checks_passed", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_s", "s"},
		metricDef{"runtime.alloc_mib", "MiB"},
		metricDef{"trace.traces", "count"},
		metricDef{"trace.overhead_s", "s"},
	)
}()

// endToEndMetrics is every metric an untraced run prints.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"profiles_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

type metricDef struct{ name, unit string }

// Head-sampling rates of the traced pass: a crawl makes one trace per
// profile, so a tenth of them is kept; an analysis makes a handful.
const (
	crawlSampleRate   = 0.1
	analyzeSampleRate = 1.0
)

// traceLayers is the traced pass's state: the tracers handed to the
// program and to the benchmark's own spans, their shared recorder, and
// the per-layer metrics filled so far.
type traceLayers struct {
	rec *trace.Recorder
	// program is handed to crawler, gplusd and core at the workload's
	// head-sampling rate; bench records the benchmark's own spans around
	// each top-level call, always sampled.
	program, bench *trace.Tracer
	metrics        map[string]metric
	units          map[string]string
}

func newTraceLayers(rc *runConfig) *traceLayers {
	rate, ring := analyzeSampleRate, 1024
	if rc.workload == "crawl" {
		// A sampled profile makes one client trace plus one server trace
		// per request (about four); a ring of 4×users plus slack keeps
		// every sampled trace at a tenth sampling with a wide margin.
		rate, ring = crawlSampleRate, 4*rc.users+1024
	}
	rec := trace.NewRecorder(ring, trace.Rules{})
	tl := &traceLayers{
		rec:     rec,
		program: trace.New(trace.Config{SampleRate: rate, Recorder: rec}),
		bench:   trace.New(trace.Config{SampleRate: 1, Recorder: rec}),
		metrics: map[string]metric{},
		units:   map[string]string{},
	}
	for _, d := range perLayerMetrics {
		tl.units[d.name] = d.unit
		tl.metrics[d.name] = metric{0, d.unit}
	}
	return tl
}

// set records one per-layer metric; the name must be declared.
func (tl *traceLayers) set(name string, v float64) {
	unit, ok := tl.units[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	tl.metrics[name] = metric{v, unit}
}

// programTracer is the tracer handed to the program (nil when untraced).
func (tl *traceLayers) programTracer() *trace.Tracer {
	if tl == nil {
		return nil
	}
	return tl.program
}

// span times one top-level public call. In the traced pass it also
// records a benchmark span, carried by the returned context. Safe on a
// nil receiver, where it only times.
func (tl *traceLayers) span(ctx context.Context, name string) (context.Context, func() time.Duration) {
	var sp *trace.Span
	if tl != nil {
		ctx, sp = tl.bench.StartSpan(ctx, "bench."+name)
	}
	start := time.Now()
	return ctx, func() time.Duration {
		d := time.Since(start)
		sp.Finish()
		return d
	}
}

// stage runs one core stage. In the traced pass it is timed alone
// under a benchmark span, with its minor faults and allocations.
func (tl *traceLayers) stage(ctx context.Context, name string, fn func(context.Context) error) error {
	if tl == nil {
		return fn(ctx)
	}
	mark := markRuntime()
	sctx, done := tl.span(ctx, "core."+name)
	err := fn(sctx)
	d := done()
	delta := mark.since()
	tl.set("core."+name+"_s", d.Seconds())
	tl.set("core."+name+".minflt", float64(delta.minFaults))
	tl.set("core."+name+".alloc_mib", delta.allocMiB)
	return err
}

func (tl *traceLayers) setRuntime(d runtimeDelta) {
	tl.set("runtime.gc_cycles", float64(d.gcCycles))
	tl.set("runtime.gc_pause_s", d.gcPause.Seconds())
	tl.set("runtime.alloc_mib", d.allocMiB)
}

// finish records how many traces the pass kept and returns how many it
// lost: ring overwrites plus exemplar overflow. The ring is sized so
// that this is zero.
func (tl *traceLayers) finish() int64 {
	st := tl.rec.Stats()
	tl.set("trace.traces", float64(st.Completed))
	return st.Completed - int64(st.Ring) + st.Dropped
}

// traceSummary is the per-layer view of a set of traces.
type traceSummary struct {
	// self is critical-path self-time by span name.
	self map[string]time.Duration
	// roots counts merged traces by root span name.
	roots map[string]int
	// attempts and ops count gplusapi wire attempts and the logical
	// operations that made them.
	attempts, ops int
	// spans holds every span's duration by name.
	spans map[string][]time.Duration
	// children sums, per parent span name, the durations of its direct
	// children.
	children map[string]time.Duration
}

// summarize merges client and server halves by trace id and aggregates
// critical-path self-times, root counts and retry amplification.
func summarize(traces []*trace.Trace) traceSummary {
	s := traceSummary{
		self:     map[string]time.Duration{},
		roots:    map[string]int{},
		spans:    map[string][]time.Duration{},
		children: map[string]time.Duration{},
	}
	a := trace.Analyze(traces, 1)
	for _, p := range a.Path {
		s.self[p.Name] = p.Total
	}
	for _, r := range a.Retries {
		if strings.HasPrefix(r.Name, "api.") {
			s.attempts += r.Attempts
			s.ops += r.Ops
		}
	}
	for _, tr := range trace.MergeByTraceID(traces) {
		if root := tr.Root(); root != nil {
			s.roots[root.Name]++
		}
		byID := make(map[string]*trace.Span, len(tr.Spans))
		for _, sp := range tr.Spans {
			byID[sp.SpanID] = sp
			s.spans[sp.Name] = append(s.spans[sp.Name], sp.Dur)
		}
		for _, sp := range tr.Spans {
			if parent := byID[sp.Parent]; parent != nil {
				s.children[parent.Name] += sp.Dur
			}
		}
	}
	return s
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of durations.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// serverProbe wraps gplusd's http.Handler: it counts requests and
// non-2xx responses always, and in the traced pass also records each
// request's handler time by endpoint.
type serverProbe struct {
	h        http.Handler
	requests atomic.Int64
	non2xx   atomic.Int64
	timed    bool

	mu      sync.Mutex
	busy    time.Duration
	latency map[string][]time.Duration
}

func (p *serverProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	p.h.ServeHTTP(sw, r)
	d := time.Since(start)
	p.requests.Add(1)
	if sw.code < 200 || sw.code > 299 {
		p.non2xx.Add(1)
	}
	if !p.timed {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busy += d
	if p.latency == nil {
		p.latency = map[string][]time.Duration{}
	}
	ep := endpointOf(r.URL.Path)
	p.latency[ep] = append(p.latency[ep], d)
}

// endpointOf classifies a gplusd path: /people/{id} is "profile",
// /people/{id}/circles/{dir} is "circles".
func endpointOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/people/")
	switch {
	case !ok:
		return strings.TrimPrefix(path, "/")
	case strings.Contains(rest, "/circles/"):
		return "circles"
	default:
		return "profile"
	}
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// sinkProbe wraps the crawl's EdgeSink, counting and timing its calls.
type sinkProbe struct {
	sink  crawler.EdgeSink
	calls atomic.Int64
	nanos atomic.Int64
}

func (s *sinkProbe) ObserveEdge(from, to string) error {
	start := time.Now()
	err := s.sink.ObserveEdge(from, to)
	s.nanos.Add(int64(time.Since(start)))
	s.calls.Add(1)
	return err
}

// checkList counts correctness checks and the ones that failed.
type checkList struct {
	run    int64
	failed []string
}

// expect records one check; a false ok marks it failed with the message.
func (c *checkList) expect(ok bool, format string, args ...any) {
	c.run++
	if !ok {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// expectNil records one check that passes when err is nil.
func (c *checkList) expectNil(err error) {
	c.expect(err == nil, "%v", err)
}

// reportFailures prints each failed check to standard error.
func reportFailures(rc *runConfig, c checkList) {
	for _, msg := range c.failed {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", rc.workload, msg)
	}
}
