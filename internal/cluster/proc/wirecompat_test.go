package proc

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	oexec "os/exec"
	"testing"

	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/cluster/proc/wire"
)

// sampleMessages returns one populated instance per payload kind.
// Every field is non-zero where possible so the round trip exercises
// real payloads.
func sampleMessages() []any {
	return []any{
		Hello{Proto: ProtoVersion, Worker: 3, Token: "tok", Conn: ConnCtrl},
		HelloOK{Proto: ProtoVersion},
		Heartbeat{Worker: 3, Seq: 41},
		OKResp{},
		ErrResp{Msg: "worker 3: boom"},
		PingReq{},
		LoadReq{
			Job: "cc-demo", Kind: KindCC, NumPartitions: 4, TotalVertices: 9, Damping: 0.85,
			PartOf: []int32{0, 1, 2, 3, 0, 1, 2, 3, 0},
			Parts:  []PartitionData{{Part: 2, Owned: []int32{2, 6}, Degrees: []int32{2, 0}, Targets: []int32{1, 8}}},
		},
		StepReq{
			Superstep: 5, Rescatter: true, Dangling: 0.125,
			Inbox: []MsgRun{{Part: 1, Src: 3, Dst: []int32{5, 9}, Val: []uint64{2, 0x3fe0000000000000}}},
		},
		StepResp{
			Outbox: []MsgRun{{Part: 0, Src: 2, Dst: []int32{1}, Val: []uint64{1}}},
			Sums:   []PartSums{{Part: 2, Dangling: 0.0625, L1: 1.5}},
			Folded: true, Messages: 12, Updates: 3,
		},
		CommitReq{Superstep: 5},
		AbortReq{},
		FetchReq{Parts: []int{0, 2}},
		FetchResp{Parts: []PartState{{Part: 2, Vals: []uint64{1, 7}}}},
		RestoreReq{Parts: []PartState{{Part: 0, First: 4, Vals: []uint64{3}}}},
		ClearReq{Parts: []int{3}},
		ResetReq{},
		ShutdownReq{},
		StatsReq{},
		WorkerStats{Handled: 17, Replayed: 2},
		DataFetchReq{Stream: 11, ChunkVerts: 4096, Parts: []int{0, 3}},
		DataRestoreReq{Stream: 12},
		DataChunk{
			Stream: 12, Seq: 2, Done: true,
			Parts: []PartState{{Part: 3, First: 2, Vals: []uint64{2, 8}}},
		},
		DataAck{Stream: 12},
		DataErr{Stream: 13, Msg: "worker 3: partition 9 not hosted"},
	}
}

// decodeInChild pipes the frame bytes into a freshly started
// subprocess decoder (this test binary re-executed with the wire-check
// env set — nothing shared with the encoder) and returns the child's
// per-frame %#v digests.
func decodeInChild(t *testing.T, frames []byte) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := oexec.Command(exe)
	cmd.Env = append(os.Environ(), envWireCheck+"=1")
	cmd.Stdin = bytes.NewReader(frames)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("wire-check child: %v (stderr: %s)", err, stderr.String())
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var got []string
	for sc.Scan() {
		got = append(got, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading child output: %v", err)
	}
	return got
}

// checkKindCoverage fails the test unless msgs holds a message of
// every payload kind in kindNames.
func checkKindCoverage(t *testing.T, msgs []any) {
	t.Helper()
	seen := make(map[byte]bool)
	for _, m := range msgs {
		b, err := appendFrame(nil, 0, m, wire.MaxFrame)
		if err != nil {
			t.Fatalf("encoding %T: %v", m, err)
		}
		seen[b[netfault.HeaderLen+2]] = true // after the codec and version bytes
	}
	for k, name := range kindNames {
		if name != "" && !seen[byte(k)] {
			t.Errorf("no sample of payload kind %d (%s)", k, name)
		}
	}
}

// TestWireCompatAcrossProcesses round-trips one populated sample of
// every payload kind through a fresh subprocess decoder. A kind
// without a sample, or a codec asymmetry, fails here instead of
// mid-superstep in production.
func TestWireCompatAcrossProcesses(t *testing.T) {
	samples := sampleMessages()
	checkKindCoverage(t, samples)
	var frames bytes.Buffer
	for _, m := range samples {
		if err := writeFrame(&frames, 0, m, wire.MaxFrame); err != nil {
			t.Fatalf("encoding %T: %v", m, err)
		}
	}
	got := decodeInChild(t, frames.Bytes())
	if len(got) != len(samples) {
		t.Fatalf("child decoded %d frames, want %d:\n%s", len(got), len(samples), got)
	}
	for i, m := range samples {
		if want := fmt.Sprintf("%#v", m); got[i] != want {
			t.Errorf("frame %d (%T) mutated across the process boundary:\n sent %s\n got  %s",
				i, m, want, got[i])
		}
	}
}

// TestEncodeRejectsNonWireType pins that a type without a payload kind
// is an encode error rather than a frame.
func TestEncodeRejectsNonWireType(t *testing.T) {
	for _, m := range []any{JobSnapshot{}, struct{}{}, nil} {
		if b, err := appendFrame(nil, 0, m, wire.MaxFrame); err == nil || len(b) != 0 {
			t.Errorf("appendFrame(%T) = %d bytes, %v; want an error and no bytes", m, len(b), err)
		}
	}
}
