package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/obs/trace"
	"gplus/internal/paper"
	"gplus/internal/synth"
)

// analyzeBench is an analyze workload: a universe saved as a v2 dataset
// during set-up, then loaded (memory-mapped or materialized) and
// audited against the paper in the measured phase.
type analyzeBench struct {
	rc     *runConfig
	mapped bool
	u      *synth.Universe // the last set-up's universe, until prepare
	dir    string          // the saved dataset
	// refHash is the hash of paper.Results over the materialized graph
	// of the same dataset, computed outside every timed window.
	refHash string
}

func newAnalyzeBench(rc *runConfig, mapped bool) pipeline {
	return &analyzeBench{rc: rc, mapped: mapped}
}

func (a *analyzeBench) setUp() error {
	a.close()
	u, err := synth.Generate(synth.DefaultConfig(a.rc.users))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(a.rc.workDir, "dataset-")
	if err != nil {
		return err
	}
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("saving dataset: %w", err)
	}
	a.u, a.dir = u, dir
	return nil
}

// prepare hashes the audit over the materialized graph: loaded from the
// saved files for the mapped workload, and the in-memory dataset the
// files were saved from for the RAM workload, whose measured path
// already is the materialized load.
func (a *analyzeBench) prepare() error {
	var ref *dataset.Dataset
	if a.mapped {
		var err error
		if ref, err = dataset.Load(a.dir); err != nil {
			return err
		}
	} else {
		ref = dataset.FromUniverse(a.u)
	}
	a.u = nil
	r, err := paper.Collect(context.Background(), core.New(ref, a.studyOptions(nil)))
	if err != nil {
		return err
	}
	a.refHash = hashResults(r)
	return nil
}

// studyOptions are the program's defaults, sampling seed included: the
// analysis seed sets how many path-length sources the sampler draws
// before it converges, so it would change the measured work by a fifth.
func (a *analyzeBench) studyOptions(tr *trace.Tracer) core.Options {
	return core.Options{Tracer: tr}
}

func (a *analyzeBench) close() {
	if a.dir != "" {
		os.RemoveAll(a.dir)
		a.dir = ""
	}
}

func (a *analyzeBench) load(ctx context.Context, tl *traceLayers) (*dataset.Dataset, time.Duration, error) {
	_, done := tl.span(ctx, "dataset.LoadWith")
	ds, err := dataset.LoadWith(a.dir, dataset.Options{Mapped: a.mapped})
	return ds, done(), err
}

func (a *analyzeBench) iterate(ctx context.Context, tl *traceLayers) (*iteration, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	mark := markRuntime()
	start := time.Now()
	ds, loadDur, err := a.load(ctx, tl)
	if err != nil {
		return nil, fmt.Errorf("loading dataset: %w", err)
	}
	defer ds.Close() //nolint:errcheck — read-only mapping
	cctx, done := tl.span(ctx, "paper.Collect")
	r, err := paper.Collect(cctx, core.New(ds, a.studyOptions(tl.programTracer())))
	done()
	if err != nil {
		return nil, err
	}
	_, done = tl.span(ctx, "paper.Evaluate")
	outcomes := paper.Evaluate(r)
	evalDur := done()
	wall := time.Since(start)
	rt := mark.since()
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	var checks checkList
	passed := 0
	for _, o := range outcomes {
		checks.expect(o.Pass, "paper check %s: measured %g outside [%g, %g]", o.Check.ID, o.Measured, o.Check.Min, o.Check.Max)
		if o.Pass {
			passed++
		}
	}
	checks.expect(hashResults(r) == a.refHash, "audit results differ from the materialized reference")
	reportFailures(a.rc, checks)

	if tl != nil {
		tl.set("dataset.load_s", loadDur.Seconds())
		tl.set("diskcsr.mapped_bytes", float64(fileSize(filepath.Join(a.dir, "graph.v2"))))
		tl.set("paper.evaluate_s", evalDur.Seconds())
		tl.set("paper.checks_passed", float64(passed))
		sum := summarize(tl.rec.Traces())
		if st := sum.spans["analyze.structure"]; len(st) == 1 && st[0] > 0 {
			tl.set("core.structure_s", st[0].Seconds())
			tl.set("core.structure_overlap", float64(sum.children["analyze.structure"])/float64(st[0]))
		}
		if err := a.stages(ctx, tl); err != nil {
			return nil, err
		}
	}
	return &iteration{
		wall:      wall,
		profiles:  float64(ds.NumCrawled()) / wall.Seconds(),
		peakRSS:   peak,
		attempted: checks.run,
		failed:    int64(len(checks.failed)),
		runtime:   rt,
	}, nil
}

// stages times each public core stage alone, serially, over a fresh
// load of the dataset, so a mapped load faults its pages in again.
func (a *analyzeBench) stages(ctx context.Context, tl *traceLayers) error {
	ds, _, err := a.load(ctx, tl)
	if err != nil {
		return err
	}
	defer ds.Close() //nolint:errcheck — read-only mapping
	s := core.New(ds, a.studyOptions(tl.program))
	for _, st := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"degrees", func(context.Context) error { _, err := s.Degrees(); return err }},
		{"reciprocity", func(context.Context) error { s.Reciprocity(); return nil }},
		{"clustering", func(context.Context) error { s.Clustering(); return nil }},
		{"scc", func(context.Context) error { s.SCC(); return nil }},
		{"wcc", func(context.Context) error { s.WCC(); return nil }},
		{"paths", func(ctx context.Context) error { s.PathLengths(ctx); return nil }},
		{"motifs", func(context.Context) error { _, err := s.Motifs(); return err }},
		{"topology", func(ctx context.Context) error { s.Topology(ctx); return nil }},
		{"nodes", func(context.Context) error {
			s.AttributeTable()
			s.TelUsers()
			s.TopCountries(0)
			s.Penetration()
			s.CountryLinks()
			s.FieldsShared()
			for _, country := range []string{"ID", "MX", "US", "DE"} {
				s.OpennessScore(country, 6)
			}
			return nil
		}},
	} {
		if err := tl.stage(ctx, st.name, st.run); err != nil {
			return fmt.Errorf("core stage %s: %w", st.name, err)
		}
	}
	return nil
}
