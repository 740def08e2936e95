package proc

// rawgolden_test.go pins the raw columnar wire format byte for byte:
// one golden fixture per payload kind (plus the raw snapshot blob),
// committed as hex under testdata/. The fixtures catch silent format
// drift — an encoder change that still round-trips locally but
// breaks decoding against processes running the committed format fails
// here — and the fixtures are additionally fed to a fresh subprocess
// decoder, proving the committed bytes (not just today's encoder
// output) stay decodable across a process boundary. Regenerate with
// OPTIFLOW_UPDATE_GOLDEN=1 go test ./internal/cluster/proc -run RawGolden
// after a deliberate, version-bumped format change.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiflow/internal/cluster/proc/wire"
)

// goldenRawCases returns one populated sample per payload kind, in a
// fixed order. Values exercise multi-partition sections, empty
// groups and non-trivial floats.
func goldenRawCases() []struct {
	name string
	m    any
} {
	return []struct {
		name string
		m    any
	}{
		{"stepreq", StepReq{
			Superstep: 7, Rescatter: true, Dangling: 0.375,
			Inbox: []MsgRun{
				{Part: 0, Src: 1, Dst: []int32{3, 4}, Val: []uint64{1, 2}},
				{Part: 0, Src: 3, Dst: []int32{4}, Val: []uint64{1}},
				{Part: 2, Src: 0, Dst: []int32{9}, Val: []uint64{0x3fc0000000000000}},
			},
		}},
		{"stepresp", StepResp{
			Outbox: []MsgRun{{Part: 1, Src: 2, Dst: []int32{5}, Val: []uint64{0x3fd0000000000000}}},
			Sums:   []PartSums{{Part: 2, Dangling: 0.0625, L1: 2.5}, {Part: 3}},
			Folded: true, Messages: 42, Updates: 7,
		}},
		{"fetchresp", FetchResp{Parts: []PartState{
			{Part: 0, Vals: []uint64{1, 1}},
			{Part: 3},
		}}},
		{"restorereq", RestoreReq{Parts: []PartState{
			{Part: 2, First: 3, Vals: []uint64{2}},
		}}},
		{"loadreq", LoadReq{
			Job: "golden", Kind: KindPageRank, NumPartitions: 4, TotalVertices: 6, Damping: 0.85,
			PartOf: []int32{0, 1, 2, 3, 0, 1},
			Parts: []PartitionData{
				{Part: 1, Owned: []int32{1, 5}, Degrees: []int32{2, 0}, Targets: []int32{2, 3}},
			},
		}},
		{"datafetch", DataFetchReq{Stream: 9, ChunkVerts: 4096, Parts: []int{0, 2, 3}}},
		{"datarestore", DataRestoreReq{Stream: 10}},
		{"datachunk", DataChunk{
			Stream: 10, Seq: 3, Done: true,
			Parts: []PartState{{Part: 1, First: 4096, Vals: []uint64{4, 0x3fd3333333333333}}},
		}},
		{"dataack", DataAck{Stream: 10}},
		{"dataerr", DataErr{Stream: 11, Msg: "worker 2: partition 9 not hosted"}},
		{"hello", Hello{Proto: 4, Worker: 3, Token: "0123456789abcdef", Conn: "data/1"}},
		{"hellook", HelloOK{Proto: 4}},
		{"heartbeat", Heartbeat{Worker: 3, Seq: 1 << 40}},
		{"okresp", OKResp{}},
		{"errresp", ErrResp{Msg: "fenced: worker is no longer a member"}},
		{"pingreq", PingReq{}},
		{"commitreq", CommitReq{Superstep: 12}},
		{"abortreq", AbortReq{}},
		{"fetchreq", FetchReq{Parts: []int{1, 4}}},
		{"clearreq", ClearReq{Parts: []int{5}}},
		{"resetreq", ResetReq{}},
		{"shutdownreq", ShutdownReq{}},
		{"statsreq", StatsReq{}},
		{"workerstats", WorkerStats{Handled: 17, Replayed: 2}},
	}
}

// goldenSnapshot is the raw snapshot blob fixture's source value.
func goldenSnapshot() JobSnapshot {
	return JobSnapshot{
		Kind:      KindCC,
		Parts:     []PartState{{Part: 0, Vals: []uint64{0, 1}}},
		Inbox:     []MsgRun{{Part: 0, Src: 1, Dst: []int32{2}, Val: []uint64{1}}},
		Dangling:  0.125,
		Rescatter: true,
	}
}

// checkGolden compares got against the named fixture, rewriting it
// when OPTIFLOW_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	if os.Getenv("OPTIFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := goldenBytes(t, name); !bytes.Equal(got, want) {
		t.Errorf("%s: encoding drifted from the committed format\n got  %x\n want %x", name, got, want)
	}
}

// goldenBytes reads the named committed fixture.
func goldenBytes(t testing.TB, name string) []byte {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with OPTIFLOW_UPDATE_GOLDEN=1): %v", path, err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("corrupt golden fixture %s: %v", path, err)
	}
	return b
}

// TestRawGoldenFrames pins every payload kind's frame bytes and proves
// the committed bytes decode in a fresh subprocess.
func TestRawGoldenFrames(t *testing.T) {
	var all bytes.Buffer
	cases := goldenRawCases()
	msgs := make([]any, len(cases))
	for i, c := range cases {
		msgs[i] = c.m
	}
	checkKindCoverage(t, msgs)
	for _, c := range cases {
		b, err := appendFrame(nil, 77, c.m, wire.MaxFrame)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if codec := b[4]; codec != wire.CodecRaw {
			t.Fatalf("%s: encoded with codec %#x, want raw", c.name, codec)
		}
		checkGolden(t, "raw_"+c.name, b)
		all.Write(b)
	}
	got := decodeInChild(t, all.Bytes())
	if len(got) != len(cases) {
		t.Fatalf("child decoded %d frames, want %d", len(got), len(cases))
	}
	for i, c := range cases {
		if want := fmt.Sprintf("%#v", c.m); got[i] != want {
			t.Errorf("%s mutated across the process boundary:\n sent %s\n got  %s", c.name, want, got[i])
		}
	}
}

// TestRawGoldenSnapshot pins the raw checkpoint blob format and its
// round trip, and that a blob without the snapshot magic is rejected.
func TestRawGoldenSnapshot(t *testing.T) {
	snap := goldenSnapshot()
	b := appendSnapshot(nil, snap)
	checkGolden(t, "raw_snapshot", b)
	if _, err := decodeSnapshot(b[1:]); err == nil {
		t.Fatal("blob without the snapshot magic decoded")
	}
	got, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", snap) {
		t.Errorf("snapshot mutated:\n sent %#v\n got  %#v", snap, got)
	}
}

// TestRawVersionMismatch pins the forward-compatibility guard: a raw
// frame or snapshot blob stamped with a future format version is
// rejected with a typed *wire.VersionError, not misparsed.
func TestRawVersionMismatch(t *testing.T) {
	b, err := appendFrame(nil, 1, DataAck{Stream: 5}, wire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	b[5]++ // frame = 4B length, codec tag, then the raw version byte
	_, _, err = readFrame(bytes.NewReader(b), wire.MaxFrame)
	var ve *wire.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("decode of future-version frame: err = %v, want *wire.VersionError", err)
	}
	if ve.Got != wire.Version+1 || ve.Want != wire.Version {
		t.Errorf("VersionError = %+v, want Got=%d Want=%d", ve, wire.Version+1, wire.Version)
	}

	sb := appendSnapshot(nil, goldenSnapshot())
	sb[len(snapshotMagic)]++ // version byte follows the magic
	if _, err := decodeSnapshot(sb); !errors.As(err, &ve) {
		t.Fatalf("decode of future-version snapshot: err = %v, want *wire.VersionError", err)
	}
}
