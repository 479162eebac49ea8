// Command benchjson converts `go test -bench` text output into a JSON
// baseline file so successive PRs can diff performance numbers without
// parsing benchmark text. It echoes stdin through unchanged (the console
// still shows the live run) and collects every benchmark result line:
//
//	go test -bench . -benchmem ./... | benchjson -out BENCH_hotpath.json
//
// Each result becomes {"name", "iterations", "metrics": {unit: value}},
// covering the standard ns/op, B/op, allocs/op units and any custom
// b.ReportMetric units.
//
// With -out, rows already in the file that this run did not measure —
// such as the PaperScale/* rows `make paperscale` merges into
// BENCH_storage.json — stay where they are: the run replaces rows with
// the names it parsed, in place, and inserts new names after the last
// row it replaced. Names match with the -N GOMAXPROCS suffix ignored,
// since go test omits it at GOMAXPROCS=1. The file is rewritten
// atomically.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

type result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "merge the JSON baseline into this file (default: stdout after the echoed stream)")
	flag.Parse()

	results, err := parseStream(os.Stdin, os.Stdout)
	if err != nil {
		log.Fatalf("reading stdin: %v", err)
	}
	if *out == "" {
		raw, err := encode(results)
		if err != nil {
			log.Fatalf("encoding: %v", err)
		}
		os.Stdout.Write(raw) //nolint:errcheck — best effort to the console
		return
	}
	if err := mergeFile(*out, results); err != nil {
		log.Fatalf("writing %s: %v", *out, err)
	}
	log.Printf("merged %d benchmark results -> %s", len(results), *out)
}

// parseStream echoes in to echo line by line and collects every
// benchmark result line.
func parseStream(in io.Reader, echo io.Writer) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if r, ok := parseBench(line); ok {
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

func encode(results []result) ([]byte, error) {
	raw, err := json.MarshalIndent(results, "", "  ")
	return append(raw, '\n'), err
}

// mergeFile merges fresh into the baseline at path (see merge) and
// writes the result atomically: a temp file in the same directory,
// synced, then renamed over path. A baseline that exists but does not
// parse is an error, not something to overwrite.
func mergeFile(path string, fresh []result) error {
	var old []result
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("existing baseline unparseable: %w", err)
		}
	}
	raw, err := encode(merge(old, fresh))
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(raw)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// merge returns old with every row named in fresh replaced by fresh's
// rows of that name (all of them, at the first old row's position) and
// fresh's remaining names inserted, in order, after the last replaced
// row — or appended when none was replaced. Rows of other names keep
// their place.
func merge(old, fresh []result) []result {
	byName := make(map[string][]result)
	for _, r := range fresh {
		byName[benchKey(r.Name)] = append(byName[benchKey(r.Name)], r)
	}
	out := make([]result, 0, len(old)+len(fresh))
	insert := -1
	for _, r := range old {
		group, measured := byName[benchKey(r.Name)]
		switch {
		case !measured:
			out = append(out, r)
		case group != nil:
			out = append(out, group...)
			byName[benchKey(r.Name)] = nil // placed; later old rows of the name drop
			insert = len(out)
		}
	}
	var added []result
	for _, r := range fresh {
		if byName[benchKey(r.Name)] != nil {
			added = append(added, r)
		}
	}
	if insert < 0 {
		insert = len(out)
	}
	return slices.Insert(out, insert, added...)
}

// benchKey is a row name without its trailing -N GOMAXPROCS suffix.
func benchKey(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBench parses one benchmark result line:
//
//	BenchmarkFoo/case=x-8   1234   987 ns/op   12 B/op   3 allocs/op
//
// Lines that are not results (headers, PASS/ok, test logs) report false.
func parseBench(line string) (result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iters: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
