// Columnar Connected Components: the same delta iteration as cc.go, but
// executed on the typed columnar superstep engine. Labels live in a
// dense per-partition column store, the workset is two parallel
// (index, label) columns, and the superstep is one exec.ColStep —
// ExpandCopy over the CSR adjacency folded with min — so a converged
// steady-state superstep allocates nothing. Recovery semantics are
// identical to the boxed path: same compensation function, same pending
// re-activation log. Snapshots are flat column sections (state's
// columnar codec), not the boxed path's gob streams.
package cc

import (
	"bytes"
	"fmt"

	"optiflow/internal/checkpoint"
	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/state"
)

// colCC holds the columnar internals of a CC job. It is driven through
// the owning CC's methods, never directly.
type colCC struct {
	d  *graph.Dense
	pt *graph.Partitioning

	engine *exec.ColEngine[uint64]
	step   *exec.ColStep[uint64] // built once, reused every superstep

	labels  *state.DenseStore[uint64]
	workset *state.ColWorkset[uint64]
	next    *state.ColWorkset[uint64]

	// pending mirrors CC.pending: the in-place label writes of the
	// attempt currently executing, as columns. On abort they merge back
	// into the current workset so lowered labels re-propagate.
	pendingIdx [][]int32
	pendingVal [][]uint64

	// updates counts label changes per partition for step stats; each
	// fold task writes only its own slot.
	updates []int64
}

func newColCC(g *graph.Graph, parallelism int) *colCC {
	d := g.Dense()
	pt := d.Partitioning(parallelism)
	c := &colCC{
		d:          d,
		pt:         pt,
		engine:     &exec.ColEngine[uint64]{Parallelism: parallelism},
		labels:     state.NewDenseStore[uint64]("labels", d, pt),
		workset:    state.NewColWorkset[uint64]("workset", parallelism),
		next:       state.NewColWorkset[uint64]("next-workset", parallelism),
		pendingIdx: make([][]int32, parallelism),
		pendingVal: make([][]uint64, parallelism),
		updates:    make([]int64, parallelism),
	}
	c.step = &exec.ColStep[uint64]{
		Adj:    d,
		Parts:  pt,
		Expand: exec.ExpandCopy,
		Fold:   exec.FoldMin,
		Source: c.source,
		Apply:  c.apply,
	}
	c.seedInitial()
	return c
}

func (c *colCC) seedInitial() {
	ids := c.d.IDs()
	for p, owned := range c.pt.Owned {
		for slot, idx := range owned {
			label := uint64(ids[idx])
			c.labels.SetSlot(p, int32(slot), label)
			c.workset.Add(p, idx, label)
		}
	}
}

// source streams partition part's workset columns into the engine.
func (c *colCC) source(part int, emit func(src int32, val uint64) bool) error {
	idx, val := c.workset.Cols(part)
	for i, src := range idx {
		if !emit(src, val[i]) {
			return nil
		}
	}
	return nil
}

// apply is the label-update join of Fig. 1a on columns: compare each
// folded candidate to the current label, lower it in place, log the
// write to the pending column and activate the vertex in the next
// workset. The engine routes updates to the partition owning them, so
// the per-partition appends are race-free.
func (c *colCC) apply(part int, dst exec.KeyCol, val exec.ValCol[uint64]) error {
	slot := c.pt.Slot
	for i, d := range dst {
		cand := val[i]
		s := slot[d]
		cur, ok := c.labels.GetSlot(part, s)
		if ok && cur <= cand {
			continue
		}
		c.labels.SetSlot(part, s, cand)
		c.pendingIdx[part] = append(c.pendingIdx[part], d)
		c.pendingVal[part] = append(c.pendingVal[part], cand)
		c.next.Add(part, d, cand)
		c.updates[part]++
	}
	return nil
}

// runStep executes one columnar superstep and returns (messages,
// updates) for the step stats.
func (c *colCC) runStep(fault *exec.FaultInjection) (int64, int64, error) {
	for p := range c.updates {
		c.updates[p] = 0
	}
	stats, err := c.engine.Run(c.step, fault)
	if err != nil {
		c.abortAttempt()
		return 0, 0, fmt.Errorf("cc: superstep: %w", err)
	}
	c.clearPending()
	c.workset.Swap(c.next)
	c.next.ClearAll()
	var updates int64
	for _, n := range c.updates {
		updates += n
	}
	return stats.Messages, updates, nil
}

func (c *colCC) abortAttempt() {
	for p, idx := range c.pendingIdx {
		vals := c.pendingVal[p]
		for i, d := range idx {
			c.workset.Add(p, d, vals[i])
		}
	}
	c.clearPending()
	c.next.ClearAll()
}

func (c *colCC) clearPending() {
	for p := range c.pendingIdx {
		c.pendingIdx[p] = nil
		c.pendingVal[p] = nil
	}
}

func (c *colCC) worksetLen() int { return c.workset.Len() }

func (c *colCC) components() map[graph.VertexID]graph.VertexID {
	out := make(map[graph.VertexID]graph.VertexID, c.d.NumVertices())
	c.labels.Range(func(k uint64, v uint64) bool {
		out[graph.VertexID(k)] = graph.VertexID(v)
		return true
	})
	return out
}

func (c *colCC) convergedCount(truth map[graph.VertexID]graph.VertexID) int {
	n := 0
	c.labels.Range(func(k uint64, v uint64) bool {
		if truth[graph.VertexID(k)] == graph.VertexID(v) {
			n++
		}
		return true
	})
	return n
}

func (c *colCC) snapshotTo(buf *bytes.Buffer) error {
	appendSnapshot(buf, c.labels, c.workset, 0, c.pt.N)
	return nil
}

func (c *colCC) restoreFrom(data []byte) error {
	if err := c.restore(data, 0, c.pt.N); err != nil {
		return err
	}
	c.next.ClearAll()
	return nil
}

// appendSnapshot writes the label and workset sections of partitions
// [lo, hi) with one Grow: the full snapshot is [0, N), the
// per-partition and async forms [p, p+1).
func appendSnapshot(buf *bytes.Buffer, labels *state.DenseStore[uint64], workset *state.ColWorkset[uint64], lo, hi int) {
	buf.Grow(labels.SnapshotLen(state.U64, lo, hi) + workset.SnapshotLen(state.U64, lo, hi))
	b := labels.AppendSnapshot(buf.AvailableBuffer(), state.U64, lo, hi)
	buf.Write(workset.AppendSnapshot(b, state.U64, lo, hi))
}

// parse reads a blob of appendSnapshot without touching the job.
func (c *colCC) parse(data []byte, lo, hi int) (*state.DenseImage[uint64], *state.WorksetImage[uint64], error) {
	r := colbytes.NewReader(data)
	labels, err := c.labels.ReadSnapshot(r, state.U64, lo, hi)
	if err != nil {
		return nil, nil, err
	}
	workset, err := c.workset.ReadSnapshot(r, state.U64, c.pt, lo, hi)
	if err != nil {
		return nil, nil, err
	}
	return labels, workset, state.CheckEnd(r)
}

// restore installs a blob of appendSnapshot once all of it has parsed.
func (c *colCC) restore(data []byte, lo, hi int) error {
	labels, workset, err := c.parse(data, lo, hi)
	if err != nil {
		return err
	}
	labels.Install()
	workset.Install()
	return nil
}

func (c *colCC) clearPartitions(parts []int) {
	for _, p := range parts {
		c.labels.ClearPartition(p)
		c.workset.ClearPartition(p)
	}
}

// compensate is fix-components on the dense view: restore lost vertices
// to their initial labels and re-activate them plus their surviving
// neighbors, walking neighbors as contiguous CSR ranges.
func (c *colCC) compensate(lost []int) error {
	lostSet := make([]bool, c.pt.N)
	for _, p := range lost {
		lostSet[p] = true
	}
	ids := c.d.IDs()
	for _, p := range lost {
		for slot, idx := range c.pt.Owned[p] {
			label := uint64(ids[idx])
			c.labels.SetSlot(p, int32(slot), label)
			c.workset.Add(p, idx, label)
		}
	}
	seeded := make([]bool, c.d.NumVertices())
	offsets, targets := c.d.Offsets, c.d.Targets
	for _, p := range lost {
		for _, idx := range c.pt.Owned[p] {
			for j := offsets[idx]; j < offsets[idx+1]; j++ {
				n := targets[j]
				np := c.pt.PartOf[n]
				if lostSet[np] || seeded[n] {
					continue
				}
				seeded[n] = true
				if l, ok := c.labels.GetSlot(int(np), c.pt.Slot[n]); ok {
					c.workset.Add(int(np), n, l)
				}
			}
		}
	}
	return nil
}

func (c *colCC) partitionVersions() []uint64 {
	out := make([]uint64, c.pt.N)
	for p := range out {
		out[p] = c.labels.Version(p) + c.workset.Version(p)
	}
	return out
}

func (c *colCC) snapshotPartition(p int, buf *bytes.Buffer) error {
	appendSnapshot(buf, c.labels, c.workset, p, p+1)
	return nil
}

func (c *colCC) restorePartition(p int, data []byte) error {
	return c.restore(data, p, p+1)
}

// captureSnapshot is the async-checkpoint capture: O(partitions)
// copy-on-write views of the label columns and shared slice views of
// the workset columns, encoded from checkpoint goroutines in the same
// sections as snapshotPartition.
func (c *colCC) captureSnapshot() checkpoint.PartitionSnapshot {
	return colCCCapture{labels: c.labels.SnapshotShared(), workset: c.workset.SnapshotShared()}
}

type colCCCapture struct {
	labels  *state.DenseStore[uint64]
	workset *state.ColWorkset[uint64]
}

func (s colCCCapture) NumPartitions() int { return s.labels.NumPartitions() }

func (s colCCCapture) SnapshotPartition(p int, buf *bytes.Buffer) error {
	appendSnapshot(buf, s.labels, s.workset, p, p+1)
	return nil
}

// snapshotDelta writes the label delta section and a full workset
// section.
func (c *colCC) snapshotDelta(buf *bytes.Buffer) error {
	buf.Grow(c.labels.DeltaLen(state.U64) + c.workset.SnapshotLen(state.U64, 0, c.pt.N))
	b := c.labels.AppendDelta(buf.AvailableBuffer(), state.U64)
	buf.Write(c.workset.AppendSnapshot(b, state.U64, 0, c.pt.N))
	return nil
}

// restoreFromChain applies every delta to the parsed base image and
// installs only once the whole chain has parsed; the newest workset
// wins.
func (c *colCC) restoreFromChain(base []byte, deltas [][]byte) error {
	labels, workset, err := c.parse(base, 0, c.pt.N)
	if err != nil {
		return err
	}
	for i, d := range deltas {
		r := colbytes.NewReader(d)
		if err := labels.ReadDelta(r, state.U64); err != nil {
			return fmt.Errorf("cc: delta %d: %w", i, err)
		}
		if workset, err = c.workset.ReadSnapshot(r, state.U64, c.pt, 0, c.pt.N); err != nil {
			return fmt.Errorf("cc: delta %d: %w", i, err)
		}
		if err := state.CheckEnd(r); err != nil {
			return fmt.Errorf("cc: delta %d: %w", i, err)
		}
	}
	labels.Install()
	workset.Install()
	c.next.ClearAll()
	c.labels.MarkClean()
	return nil
}

func (c *colCC) resetToInitial() error {
	c.labels.ClearAll()
	c.workset.ClearAll()
	c.next.ClearAll()
	c.seedInitial()
	return nil
}
