package proc

// fuzz_test.go fuzzes the two decoders that take bytes from outside
// the process — frames off a socket and snapshot blobs off a
// checkpoint store — seeded from the committed golden fixtures. Each
// target demands an error or a value, never a panic, and that every
// accepted input is exactly the encoding of what it decoded to. Run
// one target at a time, e.g.
//
//	go test ./internal/cluster/proc -run '^$' -fuzz FuzzReadFrame -fuzztime 20s

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/colbytes"
)

// fuzzFrameCap is the frame cap under fuzzing: small, so a corrupt
// length prefix cannot drive a large read buffer.
const fuzzFrameCap = 1 << 16

// addGoldenSeeds adds every committed testdata/raw_*.hex fixture to the
// fuzz corpus.
func addGoldenSeeds(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "raw_*.hex"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden fixtures to seed from: %v", err)
	}
	for _, p := range paths {
		f.Add(goldenBytes(f, strings.TrimSuffix(filepath.Base(p), ".hex")))
	}
}

func FuzzReadFrame(f *testing.F) {
	addGoldenSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		id, m, err := readFrame(r, fuzzFrameCap)
		if err != nil {
			return
		}
		consumed := b[:len(b)-r.Len()]
		again, err := appendFrame(nil, id, m, fuzzFrameCap)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		if !bytes.Equal(again, consumed) {
			t.Fatalf("%T re-encodes differently:\n in  %x\n out %x", m, consumed, again)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	addGoldenSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		if again := appendSnapshot(nil, s); !bytes.Equal(again, b) {
			t.Fatalf("snapshot re-encodes differently:\n in  %x\n out %x", b, again)
		}
	})
}

// TestAdjacencyEdgeCountOverflow is the regression test for a LoadReq
// whose declared edge count exceeds the frame: the count must be
// checked against the bytes left before anything is allocated, and
// the frame must fail with colbytes.ErrTruncated.
func TestAdjacencyEdgeCountOverflow(t *testing.T) {
	frame, err := appendFrame(nil, 1, LoadReq{
		Job: "j", Kind: KindCC, NumPartitions: 1, TotalVertices: 1, PartOf: []int32{0},
		Parts: []PartitionData{{Part: 0, Owned: []int32{0}, Degrees: []int32{1}, Targets: []int32{0}}},
	}, fuzzFrameCap)
	if err != nil {
		t.Fatal(err)
	}
	edgesAt := len(frame) - 8 // the target count, then one 4-byte target
	for _, edges := range []uint32{1 << 30, ^uint32(0)} {
		bad := bytes.Clone(frame)
		binary.LittleEndian.PutUint32(bad[edgesAt:], edges)
		_, _, err := decodeRawPayload(bad[netfault.HeaderLen+1:])
		if !errors.Is(err, colbytes.ErrTruncated) {
			t.Errorf("edges=%#x: err = %v, want colbytes.ErrTruncated", edges, err)
		}
	}
}
