package sssp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"optiflow/internal/graph/gen"
	"optiflow/internal/state"
)

func ssspSnapshot(t *testing.T, c *colSSSP) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A columnar SSSP snapshot whose workset names a vertex outside the
// graph, or one its partition does not own, must fail at restore with a
// typed error and leave the job untouched.
func TestColumnarRestoreRejectsCorruptWorkset(t *testing.T) {
	g := gen.Grid(7, 9)
	src := newColSSSP(g, 0, 4)
	if _, err := src.Step(nil); err != nil {
		t.Fatal(err)
	}
	good := ssspSnapshot(t, src)
	// Offset of the first index of the first non-empty workset partition.
	n := src.pt.N
	off := src.dist.SnapshotLen(state.F64, 0, n) + src.workset.SnapshotLen(state.F64, 0, 0)
	p := 0
	for ; src.workset.PartitionLen(p) == 0; p++ {
		off += 4
	}
	off += 4
	foreign := src.pt.Owned[(p+1)%n][0]

	for _, idx := range []int32{1 << 30, -1, foreign} {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint32(bad[off:], uint32(idx))
		job := newColSSSP(g, 0, 4)
		before := ssspSnapshot(t, job)
		if err := job.RestoreFrom(bad); !errors.Is(err, state.ErrSnapshotCorrupt) {
			t.Fatalf("index %d: err = %v, want ErrSnapshotCorrupt", idx, err)
		}
		if !bytes.Equal(ssspSnapshot(t, job), before) {
			t.Fatalf("index %d: failed restore modified the job", idx)
		}
		if _, err := job.Step(nil); err != nil {
			t.Fatalf("index %d: step after a rejected restore: %v", idx, err)
		}
	}
	job := newColSSSP(g, 0, 4)
	if err := job.RestoreFrom(good); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ssspSnapshot(t, job), good) {
		t.Fatal("restored snapshot re-encodes differently")
	}
}
