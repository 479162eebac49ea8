// Command perfbench is the repository's end-to-end benchmark. It drives
// the paper pipeline through the public packages — a synthetic universe
// served by gplusd over loopback, a bidirectional crawl with journal and
// segment sink, compaction into a v2 dataset, and the paper audit over
// the memory-mapped or materialized graph — times it, checks every
// output, and prints one JSON result line last on standard output.
//
//	bash perfbench/run.sh --workload crawl --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off;
// --trace 1 runs the separate traced pass and prints the per-layer
// metrics. README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	users    int
	workers  int
	seconds  time.Duration
	traced   bool
	workDir  string
	commit   string
}

const (
	// setUpReps is how many times a run builds its input; setup_s is
	// the median, and the last build is the one measured.
	setUpReps = 3
	// minIters is the fewest measured iterations a run makes, even when
	// the first ones already used up the measuring time.
	minIters = 3
)

// pipeline is one workload: built several times, then measured.
type pipeline interface {
	// setUp builds the workload's input afresh, replacing any earlier one.
	setUp() error
	// prepare computes, once and outside every timed window, the
	// reference the iterations are checked against.
	prepare() error
	// iterate runs the measured phase once and checks its output. With
	// tl non-nil it runs the traced pass and fills tl's per-layer
	// metrics.
	iterate(ctx context.Context, tl *traceLayers) (*iteration, error)
	close()
}

// iteration is one measured phase and the outcome of its checks.
type iteration struct {
	wall      time.Duration
	profiles  float64 // profiles per second, as the workload defines it
	peakRSS   float64 // MiB
	attempted int64
	failed    int64
	edgesPerS float64 // crawl only: observed edges per second of the crawl
	runtime   runtimeDelta
}

// workloads maps a workload name to its default size and constructor.
var workloads = map[string]struct {
	users int
	build func(*runConfig) pipeline
}{
	"crawl":        {20_000, newCrawlBench},
	"analyze-mmap": {14_000, func(rc *runConfig) pipeline { return newAnalyzeBench(rc, true) }},
	"analyze-ram":  {40_000, func(rc *runConfig) pipeline { return newAnalyzeBench(rc, false) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: crawl, analyze-mmap or analyze-ram")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "how long the measured iterations run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	users := fs.Int("users", 0, "universe size (0 = the workload's default)")
	workDir := fs.String("workdir", "", "scratch directory for datasets (default: a new temp dir)")
	commit := fs.String("commit", "unknown", "commit the binary was built from, for the host stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload crawl|analyze-mmap|analyze-ram, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	rc := &runConfig{
		workload: *workload,
		seed:     *seed,
		users:    w.users,
		workers:  runtime.NumCPU(),
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		commit:   *commit,
	}
	if *users > 0 {
		rc.users = *users
	}
	dir, err := os.MkdirTemp(*workDir, "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc.workDir = dir

	res, err := execute(context.Background(), rc, w.build(rc), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute builds the workload, measures it in the mode rc asks for, and
// returns the result line. Informational lines (host stamp, projection)
// go to out before it.
func execute(ctx context.Context, rc *runConfig, p pipeline, out io.Writer) (*result, error) {
	defer p.close()
	var setups []float64
	reps := setUpReps
	if rc.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := p.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := p.prepare(); err != nil {
		return nil, fmt.Errorf("preparing reference: %w", err)
	}
	writeHostStamp(out, rc)
	if rc.traced {
		return executeTraced(ctx, rc, p, out)
	}

	var iters []*iteration
	res := &result{Metrics: map[string]metric{}}
	began := time.Now()
	for len(iters) < minIters || time.Since(began) < rc.seconds {
		it, err := p.iterate(ctx, nil)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	res.Correct = res.Failed == 0
	pick := func(f func(*iteration) float64) float64 {
		v := make([]float64, len(iters))
		for i, it := range iters {
			v[i] = f(it)
		}
		return median(v)
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["wall_s"] = metric{pick(func(it *iteration) float64 { return it.wall.Seconds() }), "s"}
	res.Metrics["profiles_per_s"] = metric{pick(func(it *iteration) float64 { return it.profiles }), "1/s"}
	res.Metrics["peak_rss_mib"] = metric{pick(func(it *iteration) float64 { return it.peakRSS }), "MiB"}
	walls := make([]string, len(iters))
	peaks := make([]string, len(iters))
	for i, it := range iters {
		walls[i] = fmt.Sprintf("%.3f", it.wall.Seconds())
		peaks[i] = fmt.Sprintf("%.1f", it.peakRSS)
	}
	fmt.Fprintf(out, "iterations: %d; wall_s each: %s; peak_rss_mib each: %s; fail_ratio: %g (%d failed of %d attempted)\n",
		len(iters), strings.Join(walls, " "), strings.Join(peaks, " "), ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	if rc.workload == "crawl" {
		writeProjection(out, rc, res.Metrics["profiles_per_s"].Value,
			pick(func(it *iteration) float64 { return it.edgesPerS }))
	}
	return res, checkFinite(res.Metrics)
}

// executeTraced runs one untraced iteration and then the traced pass,
// and reports every per-layer metric; layers the workload does not run
// read zero.
func executeTraced(ctx context.Context, rc *runConfig, p pipeline, out io.Writer) (*result, error) {
	plain, err := p.iterate(ctx, nil)
	if err != nil {
		return nil, err
	}
	tl := newTraceLayers(rc)
	traced, err := p.iterate(ctx, tl)
	if err != nil {
		return nil, err
	}
	tl.set("trace.overhead_s", traced.wall.Seconds()-plain.wall.Seconds())
	tl.setRuntime(plain.runtime)
	dropped := tl.finish()
	res := &result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   tl.metrics,
	}
	if dropped != 0 {
		res.Failed++
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "traced pass: %d traces kept, %d dropped; untraced wall %.3fs, traced wall %.3fs, overhead %.3fs\n",
		int64(tl.metrics["trace.traces"].Value), dropped, plain.wall.Seconds(), traced.wall.Seconds(),
		traced.wall.Seconds()-plain.wall.Seconds())
	return res, checkFinite(res.Metrics)
}

// writeHostStamp prints what a result is only comparable under.
func writeHostStamp(out io.Writer, rc *runConfig) {
	stamp := map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        rc.commit,
		"seed":          rc.seed,
		"workload":      rc.workload,
		"users":         rc.users,
		"crawl_workers": rc.workers,
		"traced":        rc.traced,
	}
	line, _ := json.Marshal(stamp) // a map of plain values always encodes
	fmt.Fprintf(out, "host: %s\n", line)
}

// The paper's crawl (PAPER.md): 27.5M profiles and 575M edges, collected
// by 11 machines over 45 days.
const (
	paperProfiles = 27.5e6
	paperEdges    = 575e6
)

// writeProjection prints what the paper's crawl would cost on this host
// at the measured rates. It is derived output, not a metric.
func writeProjection(out io.Writer, rc *runConfig, profilesPerS, edgesPerS float64) {
	cores := float64(runtime.GOMAXPROCS(0))
	if profilesPerS <= 0 || edgesPerS <= 0 {
		return
	}
	hours := math.Max(paperProfiles/profilesPerS, paperEdges/edgesPerS) / 3600
	fmt.Fprintf(out, "projection: %.0f profiles/s and %.0f edges/s (%.0f and %.0f per core, %d workers on %.0f cores); "+
		"the paper's 27.5M-profile, 575M-edge crawl would take %.1f h here (%.1f core-hours), against 45 days on 11 machines\n",
		profilesPerS, edgesPerS, profilesPerS/cores, edgesPerS/cores, rc.workers, cores, hours, hours*cores)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func checkFinite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return errors.New("metric " + name + " is not a finite number")
		}
	}
	return nil
}
