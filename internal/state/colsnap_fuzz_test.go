package state_test

// External test package: the fuzz target drives the columnar codec
// through the CC and PageRank jobs that own it, which import state.

import (
	"bytes"
	"runtime"
	"testing"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// Restore forms exercised by FuzzRestoreColumnarSnapshot.
const (
	formCCFull = iota
	formCCPartition
	formCCDelta
	formPRFull
	formPRPartition
	numForms
)

const fuzzParts, fuzzPart = 4, 1

type fuzzFixture struct {
	ccGraph, prGraph *graph.Graph
	ccBase           []byte // the full snapshot delta seeds apply to
	seeds            [][]byte
	seedForms        []uint8
}

func (fx *fuzzFixture) add(form uint8, blob []byte) {
	fx.seedForms = append(fx.seedForms, form)
	fx.seeds = append(fx.seeds, bytes.Clone(blob))
}

// newFuzzFixture takes real snapshots of every form from small CC and
// PageRank jobs mid-iteration.
func newFuzzFixture(tb testing.TB) *fuzzFixture {
	tb.Helper()
	fx := &fuzzFixture{ccGraph: gen.Grid(5, 5), prGraph: gen.Twitter(40, 1)}
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	take := func(f func(*bytes.Buffer) error) []byte {
		buf.Reset()
		must(f(&buf))
		return bytes.Clone(buf.Bytes())
	}

	c := cc.NewColumnar(fx.ccGraph, fuzzParts)
	_, err := c.Step(nil)
	must(err)
	fx.ccBase = take(c.SnapshotTo)
	fx.add(formCCFull, fx.ccBase)
	take(c.SnapshotDelta) // drain: the next delta starts at the base
	_, err = c.Step(nil)
	must(err)
	fx.add(formCCDelta, take(c.SnapshotDelta))
	c.ClearPartitions([]int{2})
	must(c.Compensate([]int{2}))
	fx.add(formCCDelta, take(c.SnapshotDelta)) // a wiped partition
	fx.add(formCCFull, take(c.SnapshotTo))
	for p := 0; p < fuzzParts; p++ {
		fx.add(formCCPartition, take(func(b *bytes.Buffer) error { return c.SnapshotPartition(p, b) }))
	}

	pr := pagerank.NewColumnar(fx.prGraph, fuzzParts, 0.85, nil)
	_, err = pr.Step(nil)
	must(err)
	fx.add(formPRFull, take(pr.SnapshotTo))
	for p := 0; p < fuzzParts; p++ {
		fx.add(formPRPartition, take(func(b *bytes.Buffer) error { return pr.SnapshotPartition(p, b) }))
	}
	return fx
}

// partitionState is a job's restorable state without run-local
// scalars such as PageRank's convergence marker, which a partition
// restore resets even when it fails.
func partitionState(t *testing.T, job recovery.IncrementalJob) []byte {
	t.Helper()
	var buf bytes.Buffer
	for p := range job.PartitionVersions() {
		if err := job.SnapshotPartition(p, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func snapshotTo(t *testing.T, job recovery.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := job.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestoreColumnarSnapshot feeds arbitrary bytes to the columnar
// restore paths of CC (full, partition, delta chain) and PageRank
// (full, partition). Every input must fail with an error that leaves
// the job untouched, or restore state that re-encodes to the input —
// for a delta, state whose full snapshot round-trips — and that a
// superstep can run on. No input may allocate beyond the bytes it
// carries plus the job's own columns.
func FuzzRestoreColumnarSnapshot(f *testing.F) {
	fx := newFuzzFixture(f)
	for i, blob := range fx.seeds {
		f.Add(fx.seedForms[i], blob)
	}
	f.Fuzz(func(t *testing.T, form uint8, data []byte) {
		var (
			job interface {
				recovery.IncrementalJob
				Step(*iterate.Context) (iterate.StepStats, error)
			}
			restore func() error
			encode  func() []byte
		)
		switch form % numForms {
		case formCCFull, formCCPartition, formCCDelta:
			c := cc.NewColumnar(fx.ccGraph, fuzzParts)
			job = c
			switch form % numForms {
			case formCCFull:
				restore = func() error { return c.RestoreFrom(data) }
				encode = func() []byte { return snapshotTo(t, c) }
			case formCCPartition:
				restore = func() error { return c.RestorePartition(fuzzPart, data) }
				encode = func() []byte {
					var buf bytes.Buffer
					if err := c.SnapshotPartition(fuzzPart, &buf); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
			default:
				restore = func() error { return c.RestoreFromChain(fx.ccBase, [][]byte{data}) }
			}
		default:
			pr := pagerank.NewColumnar(fx.prGraph, fuzzParts, 0.85, nil)
			job = pr
			if form%numForms == formPRFull {
				restore = func() error { return pr.RestoreFrom(data) }
				encode = func() []byte { return snapshotTo(t, pr) }
			} else {
				restore = func() error { return pr.RestorePartition(fuzzPart, data) }
				encode = func() []byte {
					var buf bytes.Buffer
					if err := pr.SnapshotPartition(fuzzPart, &buf); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
			}
		}
		before := partitionState(t, job)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := restore()
		runtime.ReadMemStats(&m1)
		// Decoded columns are at most the job's slot columns plus the
		// input's own bytes; 64 KiB covers error formatting and images.
		if grew, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(4*len(before)+4*len(data)+64<<10); grew > limit {
			t.Fatalf("restore of %d bytes allocated %d bytes, limit %d", len(data), grew, limit)
		}

		if err != nil {
			if !bytes.Equal(partitionState(t, job), before) {
				t.Fatalf("failed restore (%v) modified the job", err)
			}
			return
		}
		if encode != nil {
			if again := encode(); !bytes.Equal(again, data) {
				t.Fatalf("restored state re-encodes differently:\n in  %x\n out %x", data, again)
			}
		} else {
			full := snapshotTo(t, job)
			again := cc.NewColumnar(fx.ccGraph, fuzzParts)
			if err := again.RestoreFrom(full); err != nil {
				t.Fatalf("snapshot of a delta-restored job does not restore: %v", err)
			}
			if !bytes.Equal(snapshotTo(t, again), full) {
				t.Fatal("snapshot of a delta-restored job does not round-trip")
			}
		}
		// Whatever restores must also run.
		if _, err := job.Step(nil); err != nil {
			t.Fatalf("superstep after restore: %v", err)
		}
	})
}
