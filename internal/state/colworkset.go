package state

import (
	"fmt"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// ColWorkset is the columnar counterpart of Workset: each partition's
// pending updates are two parallel append-only columns — the dense
// vertex index of the update's target and its numeric payload — so the
// columnar superstep source streams them without per-item boxing.
// Snapshot captures alias the column backing arrays exactly like
// Workset.SnapshotShared (append-only between clears makes that safe),
// and checkpoint encoders dump the columns as they are (see
// densebytes.go for the section layout).
type ColWorkset[V any] struct {
	name     string
	idx      [][]int32
	val      [][]V
	versions []uint64
}

// NewColWorkset creates an empty columnar workset with nparts
// partitions.
func NewColWorkset[V any](name string, nparts int) *ColWorkset[V] {
	if nparts < 1 {
		panic(fmt.Sprintf("state: workset %q: nparts must be >= 1, got %d", name, nparts))
	}
	return &ColWorkset[V]{
		name:     name,
		idx:      make([][]int32, nparts),
		val:      make([][]V, nparts),
		versions: make([]uint64, nparts),
	}
}

// Name returns the workset's name.
func (w *ColWorkset[V]) Name() string { return w.name }

// NumPartitions returns the partition count.
func (w *ColWorkset[V]) NumPartitions() int { return len(w.idx) }

// Add appends one update to partition p. Each fold task appends only to
// its own partition, so no locking is required.
func (w *ColWorkset[V]) Add(p int, idx int32, val V) {
	w.idx[p] = append(w.idx[p], idx)
	w.val[p] = append(w.val[p], val)
	w.bump(p)
}

// Len returns the total number of updates.
func (w *ColWorkset[V]) Len() int {
	n := 0
	for _, c := range w.idx {
		n += len(c)
	}
	return n
}

// PartitionLen returns the number of updates in partition p.
func (w *ColWorkset[V]) PartitionLen(p int) int { return len(w.idx[p]) }

// Cols returns partition p's columns; the caller must not modify them.
func (w *ColWorkset[V]) Cols(p int) ([]int32, []V) { return w.idx[p], w.val[p] }

// ClearAll empties every partition.
func (w *ColWorkset[V]) ClearAll() {
	for p := range w.idx {
		w.ClearPartition(p)
	}
}

// ClearPartition empties partition p (the crash of its owner).
func (w *ColWorkset[V]) ClearPartition(p int) {
	w.idx[p] = nil
	w.val[p] = nil
	w.bump(p)
}

// Version returns the change counter of partition p.
func (w *ColWorkset[V]) Version(p int) uint64 { return w.versions[p] }

func (w *ColWorkset[V]) bump(p int) { w.versions[p]++ }

// Swap exchanges the contents of two worksets (current vs next). A
// partition empty on both sides keeps its version, mirroring
// Workset.Swap.
func (w *ColWorkset[V]) Swap(other *ColWorkset[V]) {
	for p := range w.idx {
		if len(w.idx[p]) != 0 || len(other.idx[p]) != 0 {
			w.bump(p)
			other.bump(p)
		}
	}
	w.idx, other.idx = other.idx, w.idx
	w.val, other.val = other.val, w.val
}

// SnapshotShared returns an O(parts) capture sharing the column backing
// arrays, safe because partitions are append-only between clears (see
// Workset.SnapshotShared).
func (w *ColWorkset[V]) SnapshotShared() *ColWorkset[V] {
	c := &ColWorkset[V]{
		name:     w.name,
		idx:      make([][]int32, len(w.idx)),
		val:      make([][]V, len(w.val)),
		versions: append([]uint64(nil), w.versions...),
	}
	for p := range w.idx {
		c.idx[p] = w.idx[p][:len(w.idx[p]):len(w.idx[p])]
		c.val[p] = w.val[p][:len(w.val[p]):len(w.val[p])]
	}
	return c
}

// SnapshotLen is the exact length of AppendSnapshot's section for
// partitions [lo, hi).
func (w *ColWorkset[V]) SnapshotLen(c Codec[V], lo, hi int) int {
	n := headerLen(w.name)
	for p := lo; p < hi; p++ {
		n += 4 + len(w.idx[p])*(4+c.Width)
	}
	return n
}

// AppendSnapshot appends a snapshot section of partitions [lo, hi):
// per partition the I32 index column, then the value column. Append
// order is deterministic (fold tasks emit in ascending destination
// order per superstep), so equal histories encode to identical bytes.
func (w *ColWorkset[V]) AppendSnapshot(dst []byte, c Codec[V], lo, hi int) []byte {
	dst = appendHeader(dst, w.name, lo, hi)
	for p := lo; p < hi; p++ {
		dst = colbytes.AppendI32s(dst, w.idx[p])
		for _, v := range w.val[p] {
			dst = c.Append(dst, v)
		}
	}
	return dst
}

// WorksetImage is a parsed and validated ColWorkset section that has
// not touched the workset yet.
type WorksetImage[V any] struct {
	w   *ColWorkset[V]
	lo  int
	idx [][]int32
	val [][]V
}

// ReadSnapshot parses a section written by AppendSnapshot for the same
// partition range. Every index must be a vertex of pt that partition p
// owns: the engine routes each update to its owner, so any other index
// is corruption that would otherwise fail the next superstep.
func (w *ColWorkset[V]) ReadSnapshot(r *colbytes.Reader, c Codec[V], pt *graph.Partitioning, lo, hi int) (*WorksetImage[V], error) {
	if err := readHeader(r, w.name, lo, hi); err != nil {
		return nil, err
	}
	img := &WorksetImage[V]{w: w, lo: lo, idx: make([][]int32, hi-lo), val: make([][]V, hi-lo)}
	for i := range img.idx {
		p := lo + i
		// A failed read leaves n zero; the final Err check reports it.
		n := int(r.U32())
		if n*(4+c.Width) > r.Remaining() {
			return nil, corrupt(w.name, p, "%d updates overrun the %d bytes left", n, r.Remaining())
		}
		idx, val := make([]int32, n), make([]V, n)
		for j := range idx {
			x := int32(r.U32())
			if x < 0 || int(x) >= len(pt.PartOf) || int(pt.PartOf[x]) != p {
				return nil, corrupt(w.name, p, "index %d is not a vertex the partition owns", x)
			}
			idx[j] = x
		}
		for j := range val {
			val[j] = c.Read(r)
		}
		img.idx[i], img.val[i] = idx, val
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: workset %q: %w", ErrSnapshotCorrupt, w.name, err)
	}
	return img, nil
}

// Install replaces the image's partitions in the workset. The image
// must not be used afterwards.
func (img *WorksetImage[V]) Install() {
	for i := range img.idx {
		p := img.lo + i
		img.w.idx[p], img.w.val[p] = img.idx[i], img.val[i]
		img.w.bump(p)
	}
}
