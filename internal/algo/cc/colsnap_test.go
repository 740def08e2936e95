package cc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"optiflow/internal/graph/gen"
	"optiflow/internal/state"
)

func colSnapshot(t *testing.T, c *CC) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstWorksetIndex is the offset of the first index of partition 0's
// workset column in a full columnar CC snapshot: after the label
// section, the workset header and partition 0's update count.
func firstWorksetIndex(c *CC) int {
	n := c.col.pt.N
	return c.col.labels.SnapshotLen(state.U64, 0, n) + c.col.workset.SnapshotLen(state.U64, 0, 0) + 4
}

func patchI32(blob []byte, off int, v int32) []byte {
	out := bytes.Clone(blob)
	binary.LittleEndian.PutUint32(out[off:], uint32(v))
	return out
}

// A corrupt columnar snapshot must fail at restore with a typed error
// and leave the job untouched. Before the raw codec, a workset index
// outside the graph restored with a nil error and the next superstep
// panicked in the expand task.
func TestColumnarRestoreRejectsCorruptSnapshot(t *testing.T) {
	g := gen.Grid(8, 8)
	src := NewColumnar(g, 4)
	good := colSnapshot(t, src)
	off := firstWorksetIndex(src)
	foreign := src.col.pt.Owned[1][0]
	var part bytes.Buffer
	if err := src.SnapshotPartition(0, &part); err != nil {
		t.Fatal(err)
	}
	otherGraph := colSnapshot(t, NewColumnar(gen.Grid(8, 9), 4))

	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"index not a vertex", patchI32(good, off, 1<<30), state.ErrSnapshotCorrupt},
		{"negative index", patchI32(good, off, -1), state.ErrSnapshotCorrupt},
		{"index of another partition", patchI32(good, off, foreign), state.ErrSnapshotCorrupt},
		{"slot count of another graph", otherGraph, state.ErrSnapshotCorrupt},
		{"trailing bytes", append(bytes.Clone(good), 0), state.ErrSnapshotCorrupt},
		{"truncated", good[:len(good)-1], state.ErrSnapshotCorrupt},
		{"partition blob", part.Bytes(), state.ErrSnapshotMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := NewColumnar(g, 4)
			if _, err := job.Step(nil); err != nil {
				t.Fatal(err)
			}
			before := colSnapshot(t, job)
			if err := job.RestoreFrom(tc.blob); !errors.Is(err, tc.want) {
				t.Fatalf("RestoreFrom: err = %v, want %v", err, tc.want)
			}
			if !bytes.Equal(colSnapshot(t, job), before) {
				t.Fatal("failed restore modified the job")
			}
			if _, err := job.Step(nil); err != nil {
				t.Fatalf("step after a rejected restore: %v", err)
			}
		})
	}
}

func TestColumnarRestorePartitionRejectsForeignIndex(t *testing.T) {
	g := gen.Grid(8, 8)
	job := NewColumnar(g, 4)
	var part bytes.Buffer
	if err := job.SnapshotPartition(2, &part); err != nil {
		t.Fatal(err)
	}
	// The partition section's workset column starts after the label
	// section and the workset header and count.
	off := job.col.labels.SnapshotLen(state.U64, 2, 3) + job.col.workset.SnapshotLen(state.U64, 0, 0) + 4
	bad := patchI32(part.Bytes(), off, job.col.pt.Owned[3][0])
	before := colSnapshot(t, job)
	if err := job.RestorePartition(2, bad); !errors.Is(err, state.ErrSnapshotCorrupt) {
		t.Fatalf("RestorePartition: err = %v, want ErrSnapshotCorrupt", err)
	}
	if err := job.RestorePartition(1, part.Bytes()); !errors.Is(err, state.ErrSnapshotMismatch) {
		t.Fatalf("misrouted partition: err = %v, want ErrSnapshotMismatch", err)
	}
	if !bytes.Equal(colSnapshot(t, job), before) {
		t.Fatal("failed restore modified the job")
	}
}

// A delta chain installs nothing unless every link parses.
func TestColumnarRestoreFromChainIsAllOrNothing(t *testing.T) {
	g := gen.Grid(8, 8)
	src := NewColumnar(g, 4)
	base := colSnapshot(t, src)
	var drain, delta bytes.Buffer
	if err := src.SnapshotDelta(&drain); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Step(nil); err != nil {
		t.Fatal(err)
	}
	if err := src.SnapshotDelta(&delta); err != nil {
		t.Fatal(err)
	}

	job := NewColumnar(g, 4)
	for i := 0; i < 2; i++ {
		if _, err := job.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	before := colSnapshot(t, job)
	bad := delta.Bytes()[:delta.Len()-1]
	if err := job.RestoreFromChain(base, [][]byte{delta.Bytes(), bad}); !errors.Is(err, state.ErrSnapshotCorrupt) {
		t.Fatalf("RestoreFromChain: err = %v, want ErrSnapshotCorrupt", err)
	}
	if !bytes.Equal(colSnapshot(t, job), before) {
		t.Fatal("failed chain restore modified the job")
	}
	if err := job.RestoreFromChain(base, [][]byte{delta.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(colSnapshot(t, job), colSnapshot(t, src)) {
		t.Fatal("chain restore differs from the state it logged")
	}
}
