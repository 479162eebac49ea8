package diskcsr

import (
	"encoding/binary"
	"fmt"
	"os"

	"gplus/internal/graph"
)

// Options configures Open.
type Options struct {
	// SkipVerify skips the full O(m) decode check of both adjacency
	// blobs. Structural validation of the header and index arrays still
	// runs; only per-edge checks (varint well-formedness, ascending
	// rows, in-range targets) are waived. Use only for files this
	// process just wrote and fsynced.
	SkipVerify bool
	// Metrics, when non-nil, receives open/close accounting.
	Metrics *Metrics
}

// Mapped is a v2 graph file exposed through the graph.View surface.
// Adjacency bytes live in a shared read-only memory map (plain memory
// on platforms without mmap) and fault in on first touch, so opening a
// file costs index validation, not an edge-list read, and resident
// memory grows only with the rows actually visited. Out and In decode
// a row into the caller's buffer and HasArc scans a row in place, so
// nothing is shared between calls and a kernel holding one buffer per
// goroutine reads the whole graph without allocating. A returned row is
// valid until its buffer is reused.
//
// Mapped implements graph.View and graph.WorkPrefixer. All methods are
// safe for concurrent use. Close unmaps the file; no method may be
// called afterwards.
type Mapped struct {
	h       header
	data    []byte
	unmap   func() error
	met     *Metrics
	out, in direction
}

// direction is one adjacency direction's part of the file: the
// per-node edge-count and byte-offset prefix arrays ((n+1)
// little-endian uint64s each) and the encoded rows they index.
type direction struct {
	name     string
	cnt, pos []byte
	blob     []byte
}

// span returns u's edge count and encoded row bytes.
func (d *direction) span(u uint64) (int, []byte) {
	return int(u64at(d.cnt, u+1) - u64at(d.cnt, u)), d.blob[u64at(d.pos, u):u64at(d.pos, u+1)]
}

// Open maps the v2 file at path and validates it. By default every
// byte of both blobs is decoded once (sequentially — the cheap access
// pattern for a fresh map) so that corrupt files fail here rather than
// as garbage analysis results later.
func Open(path string, opt Options) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("diskcsr: mapping %s: %w", path, err)
	}
	m, err := newMapped(data, unmap, opt)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("diskcsr: %s: %w", path, err)
	}
	if opt.Metrics != nil {
		opt.Metrics.mappedOpens.Inc()
		opt.Metrics.mappedBytes.Add(int64(len(data)))
	}
	return m, nil
}

// newMapped slices the index sections out of data and validates.
func newMapped(data []byte, unmap func() error, opt Options) (*Mapped, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) != h.fileSize() {
		return nil, fmt.Errorf("file is %d bytes, header implies %d", len(data), h.fileSize())
	}
	idx := uint64(headerSize)
	arr := 8 * (h.n + 1)
	blobs := idx + 4*arr
	m := &Mapped{h: h, data: data, unmap: unmap, met: opt.Metrics,
		out: direction{name: "out", cnt: data[idx : idx+arr], pos: data[idx+arr : idx+2*arr],
			blob: data[blobs : blobs+h.outBlobLen]},
		in: direction{name: "in", cnt: data[idx+2*arr : idx+3*arr], pos: data[idx+3*arr : idx+4*arr],
			blob: data[blobs+h.outBlobLen : blobs+h.outBlobLen+h.inBlobLen]},
	}
	for _, d := range []*direction{&m.out, &m.in} {
		if err := m.validateIndex(d); err != nil {
			return nil, err
		}
	}
	if !opt.SkipVerify {
		for _, d := range []*direction{&m.out, &m.in} {
			if err := m.verifyBlob(d); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// validateIndex checks the O(n) invariants of one direction's index:
// prefix arrays start at zero, never decrease, and end at the header's
// edge count and blob length. After this, every pos/cnt delta a reader
// computes is in range, so lazy row access never faults outside a blob
// whatever the blob bytes contain.
func (m *Mapped) validateIndex(d *direction) error {
	n, name, cnt, pos, blobLen := m.h.n, d.name, d.cnt, d.pos, uint64(len(d.blob))
	if u64at(cnt, 0) != 0 || u64at(pos, 0) != 0 {
		return fmt.Errorf("%s index does not start at zero", name)
	}
	for u := uint64(0); u < n; u++ {
		if u64at(cnt, u+1) < u64at(cnt, u) {
			return fmt.Errorf("%s edge counts decrease at node %d", name, u)
		}
		if u64at(pos, u+1) < u64at(pos, u) {
			return fmt.Errorf("%s byte offsets decrease at node %d", name, u)
		}
	}
	if got := u64at(cnt, n); got != m.h.m {
		return fmt.Errorf("%s degree sum %d does not match edge count %d", name, got, m.h.m)
	}
	if got := u64at(pos, n); got != blobLen {
		return fmt.Errorf("%s offsets end at %d, want blob length %d", name, got, blobLen)
	}
	return nil
}

// verifyBlob decodes a whole blob once, checking each row against its
// index entries: exact byte length, exact count, strictly ascending,
// all targets below n.
func (m *Mapped) verifyBlob(d *direction) error {
	var scratch []graph.NodeID
	for u := uint64(0); u < m.h.n; u++ {
		count, row := d.span(u)
		var used int
		var err error
		scratch, used, err = decodeRow(row, count, m.h.n, scratch[:0])
		if err != nil {
			return fmt.Errorf("%s row %d: %w", d.name, u, err)
		}
		if used != len(row) {
			return fmt.Errorf("%s row %d: %d encoded bytes, index claims %d", d.name, u, used, len(row))
		}
	}
	return nil
}

func u64at(arr []byte, i uint64) uint64 {
	return binary.LittleEndian.Uint64(arr[8*i:])
}

// Close releases the mapping. Not safe to call concurrently with reads.
func (m *Mapped) Close() error {
	if m.unmap == nil {
		return nil
	}
	if m.met != nil {
		m.met.mappedBytes.Add(-int64(len(m.data)))
	}
	u := m.unmap
	m.unmap = nil
	m.data = nil
	m.out, m.in = direction{}, direction{}
	return u()
}

// NumNodes implements graph.View.
func (m *Mapped) NumNodes() int { return int(m.h.n) }

// NumEdges implements graph.View.
func (m *Mapped) NumEdges() int64 { return int64(m.h.m) }

// OutDegree implements graph.View in O(1) from the count index.
func (m *Mapped) OutDegree(u graph.NodeID) int { return m.out.degree(u) }

// InDegree implements graph.View in O(1) from the count index.
func (m *Mapped) InDegree(u graph.NodeID) int { return m.in.degree(u) }

func (d *direction) degree(u graph.NodeID) int {
	return int(u64at(d.cnt, uint64(u)+1) - u64at(d.cnt, uint64(u)))
}

// Out implements graph.View: u's out-neighbors, decoded into buf[:0]
// (grown only when too short). The decode trusts Open's verification;
// a row that fails to decode here means the file changed underneath the
// map, and panicking beats silently analyzing garbage.
func (m *Mapped) Out(u graph.NodeID, buf ...graph.NodeID) []graph.NodeID {
	return m.row(&m.out, u, buf)
}

// In implements graph.View: u's in-neighbors, decoded into buf[:0].
func (m *Mapped) In(u graph.NodeID, buf ...graph.NodeID) []graph.NodeID {
	return m.row(&m.in, u, buf)
}

func (m *Mapped) row(d *direction, u graph.NodeID, buf []graph.NodeID) []graph.NodeID {
	count, enc := d.span(uint64(u))
	row, _, err := decodeRow(enc, count, m.h.n, buf[:0])
	if err != nil {
		panic(fmt.Sprintf("diskcsr: verified %s row %d unreadable: %v", d.name, u, err))
	}
	return row
}

// HasArc implements graph.View: it scans the shorter of u's out-row and
// v's in-row in place and stops at the first id >= the target, so a
// probe decodes only a prefix of one row and allocates nothing. It
// panics on an undecodable row, as Out does.
func (m *Mapped) HasArc(u, v graph.NodeID) bool {
	d, row, target := &m.out, u, v
	if m.out.degree(u) > m.in.degree(v) {
		d, row, target = &m.in, v, u
	}
	count, enc := d.span(uint64(row))
	found, err := rowContains(enc, count, m.h.n, target)
	if err != nil {
		panic(fmt.Sprintf("diskcsr: verified %s row %d unreadable: %v", d.name, row, err))
	}
	return found
}

// WorkPrefix implements graph.WorkPrefixer with the same weight the
// in-RAM graph uses (outdeg + indeg + 1 per node, as a prefix sum), so
// degree-balanced shard cuts are identical across backends.
func (m *Mapped) WorkPrefix(u int) int64 {
	return int64(u64at(m.out.cnt, uint64(u)) + u64at(m.in.cnt, uint64(u)) + uint64(u))
}

// Materialize decodes the whole file into an in-RAM graph.Graph — the
// escape hatch when RAM affords it and repeated random access makes
// decode-per-row too slow.
func (m *Mapped) Materialize() (*graph.Graph, error) {
	outOff, outAdj, err := m.materializeDir(&m.out)
	if err != nil {
		return nil, err
	}
	inOff, inAdj, err := m.materializeDir(&m.in)
	if err != nil {
		return nil, err
	}
	return graph.FromCSR(outOff, outAdj, inOff, inAdj)
}

func (m *Mapped) materializeDir(d *direction) ([]int64, []graph.NodeID, error) {
	n := m.h.n
	off := make([]int64, n+1)
	adj := make([]graph.NodeID, 0, m.h.m)
	for u := uint64(0); u < n; u++ {
		off[u+1] = int64(u64at(d.cnt, u+1))
		count, row := d.span(u)
		var err error
		adj, _, err = decodeRow(row, count, n, adj)
		if err != nil {
			return nil, nil, fmt.Errorf("diskcsr: %s direction: row %d: %w", d.name, u, err)
		}
	}
	return off, adj, nil
}
