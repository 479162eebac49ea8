package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"gplus/internal/core"
	"gplus/internal/crawler"
	"gplus/internal/dataset"
	"gplus/internal/gplusapi"
	"gplus/internal/gplusd"
	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
	"gplus/internal/obs"
	"gplus/internal/synth"
)

// circleCap is the live service's circle-list cap (§2.2), the default
// gplusd serves with; the lost-edge estimate is taken against it.
const circleCap = 10_000

// crawlBench is the crawl workload: a universe served by gplusd on
// loopback, crawled from /seed with journal and segment sink, compacted
// into a mapped dataset, then the cheap crawl-side analyses.
type crawlBench struct {
	rc  *runConfig
	u   *synth.Universe
	srv *server
	// uIndex maps a service id to its universe node, for the edge check.
	uIndex map[string]graph.NodeID
}

func newCrawlBench(rc *runConfig) pipeline { return &crawlBench{rc: rc} }

// server is gplusd behind a serverProbe on a loopback listener.
type server struct {
	probe *serverProbe
	srv   *http.Server
	url   string
	done  chan struct{}
}

func startServer(u *synth.Universe, opts gplusd.Options, timed bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		probe: &serverProbe{h: gplusd.New(u, opts), timed: timed},
		url:   "http://" + ln.Addr().String(),
		done:  make(chan struct{}),
	}
	s.srv = &http.Server{Handler: s.probe}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck — always ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	s.srv.Close() //nolint:errcheck — closing listeners of a finished run
	<-s.done
}

func (c *crawlBench) setUp() error {
	c.close()
	cfg := synth.DefaultConfig(c.rc.users)
	cfg.Seed = c.rc.seed
	u, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	srv, err := startServer(u, gplusd.Options{}, false)
	if err != nil {
		return err
	}
	c.u, c.srv = u, srv
	return nil
}

func (c *crawlBench) prepare() error {
	c.uIndex = make(map[string]graph.NodeID, len(c.u.IDs))
	for i, id := range c.u.IDs {
		c.uIndex[id] = graph.NodeID(i)
	}
	return nil
}

func (c *crawlBench) close() {
	if c.srv != nil {
		c.srv.close()
		c.srv = nil
	}
}

// crawlOutput is what one measured crawl phase leaves for the checks.
type crawlOutput struct {
	res      *crawler.Result
	ds       *dataset.Dataset
	lost     core.LostEdgeEstimate
	crawlDur time.Duration
}

func (c *crawlBench) iterate(ctx context.Context, tl *traceLayers) (*iteration, error) {
	srv := c.srv
	if tl != nil {
		// gplusd takes its tracer at construction, so the traced pass
		// serves the same universe from a traced, timed server.
		var err error
		if srv, err = startServer(c.u, gplusd.Options{Tracer: tl.program}, true); err != nil {
			return nil, err
		}
		defer srv.close()
	}
	dir, err := os.MkdirTemp(c.rc.workDir, "crawl-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var reg *obs.Registry
	var met *diskcsr.Metrics
	if tl != nil {
		reg = obs.NewRegistry()
		met = diskcsr.NewMetrics(reg)
	}
	requests0, non2xx0 := srv.probe.requests.Load(), srv.probe.non2xx.Load()

	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	mark := markRuntime()
	start := time.Now()
	out, err := c.measured(ctx, tl, srv, dir, met)
	wall := time.Since(start)
	rt := mark.since()
	if err != nil {
		return nil, err
	}
	defer out.ds.Close() //nolint:errcheck — read-only mapping
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	var checks checkList
	checks.expect(out.res.Stats.ProfilesCrawled == len(c.u.IDs) && out.ds.NumCrawled() == len(c.u.IDs),
		"crawled %d profiles (dataset holds %d) of %d universe users",
		out.res.Stats.ProfilesCrawled, out.ds.NumCrawled(), len(c.u.IDs))
	checks.expectNil(c.sameEdges(out.ds))
	checks.expect(out.lost.LostFraction == 0, "lost-edge fraction %g at cap %d, want 0", out.lost.LostFraction, circleCap)
	reportFailures(c.rc, checks)

	requests := srv.probe.requests.Load() - requests0
	non2xx := srv.probe.non2xx.Load() - non2xx0
	st := out.res.Stats
	it := &iteration{
		wall:      wall,
		profiles:  float64(st.ProfilesCrawled) / out.crawlDur.Seconds(),
		edgesPerS: float64(st.EdgesObserved) / out.crawlDur.Seconds(),
		peakRSS:   peak,
		attempted: requests + checks.run,
		failed:    non2xx + int64(st.ProfileErrors+st.CircleErrors) + int64(len(checks.failed)),
		runtime:   rt,
	}
	if tl != nil {
		c.layers(tl, srv, out, dir, reg)
	}
	return it, nil
}

// measured is the timed phase: fetch the seed, crawl with journal and
// segment sink, compact into a mapped dataset, run the crawl-side
// analyses. The caller closes the returned dataset.
func (c *crawlBench) measured(ctx context.Context, tl *traceLayers, srv *server, dir string, met *diskcsr.Metrics) (*crawlOutput, error) {
	_, done := tl.span(ctx, "gplusapi.FetchSeed")
	seed, err := (&gplusapi.Client{BaseURL: srv.url}).FetchSeed(ctx)
	done()
	if err != nil {
		return nil, fmt.Errorf("fetching seed: %w", err)
	}
	journal, err := crawler.OpenJournal(filepath.Join(dir, "crawl.journal"), crawler.JournalOptions{})
	if err != nil {
		return nil, err
	}
	sink, err := dataset.NewSegmentSink(filepath.Join(dir, "segments"), 0, met)
	if err != nil {
		journal.Close() //nolint:errcheck — unwinding a failed set-up
		return nil, err
	}
	cfg := crawler.Config{
		BaseURL:  srv.url,
		Seeds:    []string{seed},
		Workers:  c.rc.workers,
		FetchIn:  true,
		FetchOut: true,
		Journal:  journal,
		EdgeSink: sink,
	}
	var frontier frontierPeak
	if tl != nil {
		probe := &sinkProbe{sink: sink}
		cfg.EdgeSink = probe
		cfg.Tracer = tl.program
		cfg.ProgressInterval = 100 * time.Millisecond
		cfg.OnProgress = frontier.observe
		defer func() {
			tl.set("dataset.sink_calls", float64(probe.calls.Load()))
			tl.set("dataset.sink_s", time.Duration(probe.nanos.Load()).Seconds())
			tl.set("crawler.frontier_peak", float64(frontier.peak()))
		}()
	}

	// The crawl's own spans stay roots (head-sampled per profile), so the
	// benchmark span around the call is not handed to it.
	_, done = tl.span(ctx, "crawler.Crawl")
	res, err := crawler.Crawl(ctx, cfg)
	crawlDur := done()
	if jerr := journal.Close(); err == nil && jerr != nil {
		err = fmt.Errorf("closing journal: %w", jerr)
	}
	if err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}

	_, done = tl.span(ctx, "dataset.FromCrawlSegments")
	ds, err := dataset.FromCrawlSegments(res, sink, filepath.Join(dir, "dataset"), met)
	fromSegments := done()
	if err != nil {
		return nil, err
	}
	if tl != nil {
		tl.set("dataset.from_segments_s", fromSegments.Seconds())
	}
	out := &crawlOutput{res: res, ds: ds, crawlDur: crawlDur}
	study := core.New(ds, core.Options{Tracer: tl.programTracer()})
	err = errors.Join(
		tl.stage(ctx, "degrees", func(context.Context) error {
			_, err := study.Degrees()
			return err
		}),
		tl.stage(ctx, "nodes", func(context.Context) error {
			out.lost = study.LostEdges(circleCap)
			study.AttributeTable()
			study.TelUsers()
			study.TopCountries(10)
			return nil
		}))
	if err != nil {
		ds.Close() //nolint:errcheck — unwinding a failed analysis
		return nil, err
	}
	return out, nil
}

// layers fills the crawl's per-layer metrics after the traced pass.
func (c *crawlBench) layers(tl *traceLayers, srv *server, out *crawlOutput, dir string, reg *obs.Registry) {
	p := srv.probe
	p.mu.Lock()
	tl.set("gplusd.requests", float64(p.requests.Load()))
	tl.set("gplusd.non2xx", float64(p.non2xx.Load()))
	tl.set("gplusd.busy_s", p.busy.Seconds())
	tl.set("gplusd.profile_p50_us", micros(percentile(p.latency["profile"], 0.50)))
	tl.set("gplusd.profile_p99_us", micros(percentile(p.latency["profile"], 0.99)))
	tl.set("gplusd.circles_p50_us", micros(percentile(p.latency["circles"], 0.50)))
	tl.set("gplusd.circles_p99_us", micros(percentile(p.latency["circles"], 0.99)))
	p.mu.Unlock()

	st := out.res.Stats
	tl.set("crawler.crawl_s", out.crawlDur.Seconds())
	tl.set("crawler.pages", float64(st.PagesFetched))
	tl.set("crawler.journal_bytes", float64(fileSize(filepath.Join(dir, "crawl.journal"))))
	tl.set("diskcsr.segments_flushed", float64(reg.Counter("diskcsr_segments_flushed_total").Value()))
	tl.set("diskcsr.segment_edges", float64(reg.Counter("diskcsr_segment_edges_total").Value()))
	tl.set("diskcsr.compaction_edges", float64(reg.Counter("diskcsr_compaction_edges_total").Value()))
	tl.set("diskcsr.mapped_bytes", float64(reg.Gauge("diskcsr_mapped_bytes").Value()))
	v2 := fileSize(filepath.Join(dir, "dataset", "graph.v2"))
	tl.set("diskcsr.v2_bytes", float64(v2))
	if m := out.ds.View().NumEdges(); m > 0 {
		tl.set("diskcsr.bytes_per_edge", float64(v2)/float64(m))
	}

	// Self-times come from the sampled traces; scaling by crawled
	// profiles per sampled crawl.profile root estimates the whole crawl.
	sum := summarize(tl.rec.Traces())
	scale := 0.0
	if n := sum.roots["crawl.profile"]; n > 0 {
		scale = float64(st.ProfilesCrawled) / float64(n)
	}
	selfS := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += sum.self[n]
		}
		return d.Seconds() * scale
	}
	tl.set("gplusapi.attempt_self_s", selfS("attempt"))
	tl.set("crawler.sched_offer_self_s", selfS("sched.offer"))
	tl.set("crawler.circle_page_self_s", selfS("circle.page"))
	tl.set("crawler.journal_self_s", selfS("journal.profile", "journal.append"))
	if sum.ops > 0 {
		tl.set("gplusapi.attempts_per_op", float64(sum.attempts)/float64(sum.ops))
	}
}

// sameEdges checks that the crawled graph, keyed by service id, is the
// universe's graph: same users, same arcs.
func (c *crawlBench) sameEdges(ds *dataset.Dataset) error {
	g, ug := ds.View(), c.u.Graph
	if g.NumNodes() != ug.NumNodes() || g.NumEdges() != ug.NumEdges() {
		return fmt.Errorf("crawled graph has %d nodes and %d edges, universe %d and %d",
			g.NumNodes(), g.NumEdges(), ug.NumNodes(), ug.NumEdges())
	}
	toU := make([]graph.NodeID, len(ds.IDs))
	for i, id := range ds.IDs {
		u, ok := c.uIndex[id]
		if !ok {
			return fmt.Errorf("crawled id %q is not a universe user", id)
		}
		toU[i] = u
	}
	var row []graph.NodeID
	for v := range toU {
		row = row[:0]
		for _, w := range g.Out(graph.NodeID(v)) {
			row = append(row, toU[w])
		}
		slices.Sort(row)
		if want := ug.Out(toU[v]); !slices.Equal(row, want) {
			return fmt.Errorf("user %s: crawled %d out-edges, universe has %d (or different targets)",
				ds.IDs[v], len(row), len(want))
		}
	}
	return nil
}

// frontierPeak tracks the largest frontier the progress reports show.
type frontierPeak struct {
	mu  sync.Mutex
	max int
}

func (f *frontierPeak) observe(p crawler.Progress) {
	f.mu.Lock()
	f.max = max(f.max, p.Frontier)
	f.mu.Unlock()
}

func (f *frontierPeak) peak() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.max
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
