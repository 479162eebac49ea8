package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func names(rs []result) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Name)
	}
	return out
}

// TestMergeFileKeepsUnmeasuredRows is the bench-storage/paperscale
// sequence: a baseline holding storage rows followed by PaperScale/*
// rows is re-recorded from a run that measures the storage rows again
// plus one new benchmark. The PaperScale rows must survive in place,
// the measured rows must take the new values, and the new row must land
// right after the last replaced one.
func TestMergeFileKeepsUnmeasuredRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := []result{
		{Name: "BenchmarkScan/ram", Iters: 1, Metrics: map[string]float64{"ns/op": 10}},
		{Name: "BenchmarkScan/mmap", Iters: 1, Metrics: map[string]float64{"ns/op": 90}},
		{Name: "PaperScale/compact", Iters: 1, Metrics: map[string]float64{"ns/op": 5e10}},
		{Name: "PaperScale/rss_after_ram", Iters: 1, Metrics: map[string]float64{"peak_rss_bytes": 6e9}},
	}
	raw, err := encode(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stream := strings.Join([]string{
		"goos: linux",
		"BenchmarkScan/ram-2    1   11 ns/op   0 allocs/op",
		"BenchmarkScan/mmap-2   1   40 ns/op   0 allocs/op",
		"BenchmarkHasArc/mmap-2 1   70 ns/op   0 allocs/op",
		"PASS",
	}, "\n")
	fresh, err := parseStream(strings.NewReader(stream), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := mergeFile(path, fresh); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	// The old rows were recorded at GOMAXPROCS=1, so they carry no -N
	// suffix; they are still the rows this run re-measured.
	want := []string{"BenchmarkScan/ram-2", "BenchmarkScan/mmap-2", "BenchmarkHasArc/mmap-2",
		"PaperScale/compact", "PaperScale/rss_after_ram"}
	if !reflect.DeepEqual(names(got), want) {
		t.Fatalf("merged rows %v, want %v", names(got), want)
	}
	if got[1].Metrics["ns/op"] != 40 || got[3].Metrics["ns/op"] != 5e10 {
		t.Fatalf("values not replaced/kept: %+v", got)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("temp files left behind: %v %v", entries, err)
	}
}

// TestMergeFileRefusesUnparseableBaseline pins that a corrupt baseline
// is reported, not silently replaced by this run's rows alone.
func TestMergeFileRefusesUnparseableBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte("[{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeFile(path, []result{{Name: "BenchmarkX"}}); err == nil {
		t.Fatal("unparseable baseline overwritten")
	}
	if data, _ := os.ReadFile(path); string(data) != "[{" {
		t.Fatalf("baseline changed to %q", data)
	}
}

// TestMergeNewFile covers the first recording: no baseline yet, rows
// written in run order.
func TestMergeNewFile(t *testing.T) {
	fresh := []result{{Name: "BenchmarkB"}, {Name: "BenchmarkA"}, {Name: "BenchmarkB"}}
	if got := names(merge(nil, fresh)); !reflect.DeepEqual(got, []string{"BenchmarkB", "BenchmarkA", "BenchmarkB"}) {
		t.Fatalf("merge into nothing = %v", got)
	}
}
