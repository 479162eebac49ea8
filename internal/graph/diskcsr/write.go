package diskcsr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"gplus/internal/graph"
)

// WriteGraph encodes g as a v2 file at path, atomically. This is the
// direct conversion path — an in-RAM graph (or any other View) snapshots
// to the compressed on-disk form without going through segments.
func WriteGraph(path string, g graph.View) error {
	n := g.NumNodes()
	m := g.NumEdges()
	if int64(n) > maxNodes || m > maxEdges {
		return fmt.Errorf("diskcsr: graph too large to encode (%d nodes, %d edges)", n, m)
	}

	// Sizing pass: per-direction count and byte-offset prefix arrays.
	outCnt, outPos := sizeDirection(n, g.Out)
	inCnt, inPos := sizeDirection(n, g.In)
	if outCnt[n] != uint64(m) || inCnt[n] != uint64(m) {
		return fmt.Errorf("diskcsr: view is inconsistent: %d out rows, %d in rows, %d edges",
			outCnt[n], inCnt[n], m)
	}
	h := header{n: uint64(n), m: uint64(m), outBlobLen: outPos[n], inBlobLen: inPos[n]}

	return writeFileAtomic(path, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		if _, err := bw.Write(h.marshal()); err != nil {
			return err
		}
		for _, arr := range [][]uint64{outCnt, outPos, inCnt, inPos} {
			if err := writeUint64s(bw, arr); err != nil {
				return err
			}
		}
		if err := writeBlob(bw, n, g.Out); err != nil {
			return err
		}
		if err := writeBlob(bw, n, g.In); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// rowFunc is a View's Out or In.
type rowFunc = func(u graph.NodeID, buf ...graph.NodeID) []graph.NodeID

func sizeDirection(n int, row rowFunc) (cnt, pos []uint64) {
	cnt = make([]uint64, n+1)
	pos = make([]uint64, n+1)
	var r []graph.NodeID
	for u := 0; u < n; u++ {
		r = row(graph.NodeID(u), r...)
		cnt[u+1] = cnt[u] + uint64(len(r))
		pos[u+1] = pos[u] + uint64(rowSize(r))
	}
	return cnt, pos
}

func writeUint64s(bw *bufio.Writer, arr []uint64) error {
	var buf [8]byte
	for _, v := range arr {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeBlob(bw *bufio.Writer, n int, row rowFunc) error {
	var scratch []byte
	var r []graph.NodeID
	for u := 0; u < n; u++ {
		r = row(graph.NodeID(u), r...)
		scratch = appendRow(scratch[:0], r)
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return nil
}
