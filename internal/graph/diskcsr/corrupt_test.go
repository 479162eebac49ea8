package diskcsr

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gplus/internal/graph"
)

// v2Bytes returns the encoded v2 file of a small fixed graph.
func v2Bytes(t testing.TB) []byte {
	t.Helper()
	g := graph.FromEdges(5, 0, 1, 0, 2, 1, 2, 2, 3, 3, 0, 4, 0)
	path := filepath.Join(t.TempDir(), "g.v2")
	if err := WriteGraph(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openBytes runs the full Open validation on raw bytes without a file.
func openBytes(data []byte, opt Options) (*Mapped, error) {
	return newMapped(data, func() error { return nil }, opt)
}

// TestOpenRejectsCorruption drives the corrupt-input corpus from the
// issue: every mutation must be rejected with a descriptive error, not
// a panic and not a silently wrong graph.
func TestOpenRejectsCorruption(t *testing.T) {
	base := v2Bytes(t)
	h, err := parseHeader(base)
	if err != nil {
		t.Fatal(err)
	}
	idx := uint64(headerSize)
	arr := 8 * (h.n + 1)
	outBlobStart := idx + 4*arr

	cases := map[string]struct {
		mutate func([]byte) []byte
		want   string // substring of the expected error
	}{
		"bad magic": {
			func(b []byte) []byte { b[0] = 'X'; return b },
			"bad magic",
		},
		"short file": {
			func(b []byte) []byte { return b[:headerSize-1] },
			"shorter than header",
		},
		"size mismatch": {
			func(b []byte) []byte { return b[:len(b)-1] },
			"header implies",
		},
		"hostile node count": {
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[8:], maxNodes+1)
				return b
			},
			"exceeds limit",
		},
		"hostile edge count": {
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[16:], maxEdges+1)
				return b
			},
			"exceeds limit",
		},
		"degree sum mismatch": {
			// Bump node 0's out count: cnt prefix no longer reaches m.
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[idx+8:], u64at(b[idx:], 1)+1)
				return b
			},
			"", // either non-monotonic or degree-sum, both rejected
		},
		"decreasing counts": {
			func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[idx+8:], ^uint64(0)>>1)
				return b
			},
			"",
		},
		"truncated varint run": {
			// Set a continuation bit on the last byte of the out blob:
			// the final varint now runs off the end of its row.
			func(b []byte) []byte {
				b[outBlobStart+h.outBlobLen-1] |= 0x80
				return b
			},
			"truncated varint",
		},
		"out of range target": {
			// Rewrite node 0's first neighbor delta to a huge value.
			func(b []byte) []byte {
				b[outBlobStart] = 0x7f
				return b
			},
			"out of range",
		},
		"wrapping gap": {
			func([]byte) []byte { return wrappingGapFile() },
			"out of range",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), base...))
			_, err := openBytes(mut, Options{})
			if err == nil {
				t.Fatal("corrupt file accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// wrappingGapFile is an otherwise consistent v2 file (3 nodes, arcs
// 0->1 and 0->2) whose node 0 out-row claims id 1 and then a gap of
// 2^64-1, which a running sum would wrap back to id 1: a non-ascending
// row that every bound check on the sum alone accepts.
func wrappingGapFile() []byte {
	out := binary.AppendUvarint(binary.AppendUvarint(nil, 1), ^uint64(0))
	in := []byte{0, 0} // in(1) = in(2) = [0]
	h := header{n: 3, m: 2, outBlobLen: uint64(len(out)), inBlobLen: uint64(len(in))}
	data := h.marshal()
	for _, arr := range [][]uint64{
		{0, 2, 2, 2}, {0, uint64(len(out)), uint64(len(out)), uint64(len(out))},
		{0, 0, 1, 2}, {0, 0, 1, 2},
	} {
		for _, v := range arr {
			data = binary.LittleEndian.AppendUint64(data, v)
		}
	}
	return append(append(data, out...), in...)
}

// TestCompactRejectsTornSegment pins the crash-mid-flush story: a
// segment truncated partway (as a torn write would leave it) must fail
// compaction loudly instead of silently dropping edges.
func TestCompactRejectsTornSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := w.Add(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Compact(dir, filepath.Join(t.TempDir(), "g.v2"), CompactOptions{NumNodes: 64})
	if err == nil || !strings.Contains(err.Error(), "torn segment") {
		t.Fatalf("want torn-segment error, got %v", err)
	}
}

// FuzzOpenV2 feeds arbitrary bytes through the full Open validation:
// it must never panic, and anything accepted must materialize into a
// graph that passes Validate and round-trips through WriteGraph, and
// whose lazy row accessors and early-exit HasArc answer exactly as the
// materialized graph does.
func FuzzOpenV2(f *testing.F) {
	f.Add(v2Bytes(f))
	f.Add([]byte{})
	f.Add([]byte("GPLGRPH2"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Seed each corpus corruption class from the issue.
	base := v2Bytes(f)
	trunc := append([]byte(nil), base...)
	trunc[len(trunc)-1] |= 0x80
	f.Add(trunc)
	mism := append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(mism[16:], 999)
	f.Add(mism)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := openBytes(data, Options{})
		if err != nil {
			return // rejected: fine
		}
		g, err := m.Materialize()
		if err != nil {
			t.Fatalf("accepted file fails to materialize: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		mappedMatches(t, m, g)
		path := filepath.Join(t.TempDir(), "again.v2")
		if err := WriteGraph(path, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("re-open failed: %v", err)
		}
		defer again.Close()
		g2, err := again.Materialize()
		if err != nil {
			t.Fatalf("re-materialize failed: %v", err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatal("accepted graph does not round trip")
		}
	})
}

// mappedMatches checks m's buffered rows and arc probes against its
// materialized graph g: every row, and HasArc over every ordered pair
// among the first 64 nodes plus every arc of the graph.
func mappedMatches(t *testing.T, m *Mapped, g *graph.Graph) {
	t.Helper()
	n := g.NumNodes()
	var out, in []graph.NodeID
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		out, in = m.Out(id, out...), m.In(id, in...)
		if !rowsEqual(out, g.Out(id)) || !rowsEqual(in, g.In(id)) {
			t.Fatalf("node %d: mapped rows %v/%v, materialized %v/%v", u, out, in, g.Out(id), g.In(id))
		}
		for _, v := range g.Out(id) {
			if !m.HasArc(id, v) {
				t.Fatalf("HasArc(%d, %d) = false for an arc of the graph", u, v)
			}
		}
	}
	for u := 0; u < min(n, 64); u++ {
		for v := 0; v < min(n, 64); v++ {
			a, b := graph.NodeID(u), graph.NodeID(v)
			if got, want := m.HasArc(a, b), g.HasEdge(a, b); got != want {
				t.Fatalf("HasArc(%d, %d) = %v, materialized graph says %v", u, v, got, want)
			}
		}
	}
}
