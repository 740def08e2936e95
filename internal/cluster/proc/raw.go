package proc

// raw.go is the proc half of the wire format: per-message encoders and
// decoders composing the column segments of internal/colbytes under
// the frame format of internal/cluster/proc/wire. Control messages
// are a handful of scalars and strings; hot-path payloads — superstep
// message runs, partition state, partition CSR rows, the checkpoint
// snapshot blob and the data-plane stream messages — are a few scalars
// per partition or run followed by its columns as colbytes segments
// (int32 dense vertex indices, uint64 payloads). Decoders copy each
// column into one exactly-sized slice, so a decode costs O(1)
// allocations per partition or run and nothing aliases the (pooled)
// receive buffer. Every count read from the wire is checked against
// the bytes remaining before anything is allocated.

import (
	"errors"
	"fmt"

	"optiflow/internal/cluster/proc/wire"
	"optiflow/internal/colbytes"
)

// kindNames names every payload kind, indexed by kind byte; an empty
// entry is not a kind. It is the registry diagnostics and the
// compatibility suite enumerate.
var kindNames = [...]string{
	wire.KStepReq:     "StepReq",
	wire.KStepResp:    "StepResp",
	wire.KFetchResp:   "FetchResp",
	wire.KRestoreReq:  "RestoreReq",
	wire.KLoadReq:     "LoadReq",
	wire.KDataFetch:   "DataFetchReq",
	wire.KDataRestore: "DataRestoreReq",
	wire.KDataChunk:   "DataChunk",
	wire.KDataAck:     "DataAck",
	wire.KDataErr:     "DataErr",
	wire.KHello:       "Hello",
	wire.KHelloOK:     "HelloOK",
	wire.KHeartbeat:   "Heartbeat",
	wire.KOKResp:      "OKResp",
	wire.KErrResp:     "ErrResp",
	wire.KPingReq:     "PingReq",
	wire.KCommitReq:   "CommitReq",
	wire.KAbortReq:    "AbortReq",
	wire.KFetchReq:    "FetchReq",
	wire.KClearReq:    "ClearReq",
	wire.KResetReq:    "ResetReq",
	wire.KShutdownReq: "ShutdownReq",
	wire.KStatsReq:    "StatsReq",
	wire.KWorkerStats: "WorkerStats",
}

// appendRawPayload appends the complete raw payload (codec tag,
// version, kind, token, body) for m. A message type with no kind is an
// error, and dst comes back unchanged.
func appendRawPayload(dst []byte, id uint64, m any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, wire.CodecRaw, wire.Version, 0)
	dst = colbytes.AppendU64(dst, id)
	var kind byte
	switch r := m.(type) {
	case StepReq:
		kind = wire.KStepReq
		dst = colbytes.AppendU32(dst, uint32(r.Superstep))
		dst = colbytes.AppendBool(dst, r.Rescatter)
		dst = colbytes.AppendF64(dst, r.Dangling)
		dst = appendRuns(dst, r.Inbox)
	case StepResp:
		kind = wire.KStepResp
		dst = appendRuns(dst, r.Outbox)
		dst = colbytes.AppendU32(dst, uint32(len(r.Sums)))
		for _, ps := range r.Sums {
			dst = colbytes.AppendU32(dst, uint32(ps.Part))
			dst = colbytes.AppendF64(dst, ps.Dangling)
			dst = colbytes.AppendF64(dst, ps.L1)
		}
		dst = colbytes.AppendBool(dst, r.Folded)
		dst = colbytes.AppendU64(dst, uint64(r.Messages))
		dst = colbytes.AppendU64(dst, uint64(r.Updates))
	case FetchResp:
		kind = wire.KFetchResp
		dst = appendStates(dst, r.Parts)
	case RestoreReq:
		kind = wire.KRestoreReq
		dst = appendStates(dst, r.Parts)
	case LoadReq:
		kind = wire.KLoadReq
		dst = colbytes.AppendString(dst, r.Job)
		dst = colbytes.AppendString(dst, r.Kind)
		dst = colbytes.AppendU32(dst, uint32(r.NumPartitions))
		dst = colbytes.AppendU64(dst, uint64(r.TotalVertices))
		dst = colbytes.AppendF64(dst, r.Damping)
		dst = colbytes.AppendI32s(dst, r.PartOf)
		dst = colbytes.AppendU32(dst, uint32(len(r.Parts)))
		for _, pd := range r.Parts {
			dst = colbytes.AppendU32(dst, uint32(pd.Part))
			dst = colbytes.AppendI32s(dst, pd.Owned)
			dst = colbytes.AppendI32s(dst, pd.Degrees)
			dst = colbytes.AppendI32s(dst, pd.Targets)
		}
	case DataFetchReq:
		kind = wire.KDataFetch
		dst = colbytes.AppendU64(dst, r.Stream)
		dst = colbytes.AppendU32(dst, uint32(r.ChunkVerts))
		dst = appendPartIDs(dst, r.Parts)
	case DataRestoreReq:
		kind = wire.KDataRestore
		dst = colbytes.AppendU64(dst, r.Stream)
	case DataChunk:
		kind = wire.KDataChunk
		dst = colbytes.AppendU64(dst, r.Stream)
		dst = colbytes.AppendU32(dst, r.Seq)
		dst = colbytes.AppendBool(dst, r.Done)
		dst = appendStates(dst, r.Parts)
	case DataAck:
		kind = wire.KDataAck
		dst = colbytes.AppendU64(dst, r.Stream)
	case DataErr:
		kind = wire.KDataErr
		dst = colbytes.AppendU64(dst, r.Stream)
		dst = colbytes.AppendString(dst, r.Msg)
	case Hello:
		kind = wire.KHello
		dst = colbytes.AppendU32(dst, uint32(r.Proto))
		dst = colbytes.AppendU32(dst, uint32(r.Worker))
		dst = colbytes.AppendString(dst, r.Token)
		dst = colbytes.AppendString(dst, r.Conn)
	case HelloOK:
		kind = wire.KHelloOK
		dst = colbytes.AppendU32(dst, uint32(r.Proto))
	case Heartbeat:
		kind = wire.KHeartbeat
		dst = colbytes.AppendU32(dst, uint32(r.Worker))
		dst = colbytes.AppendU64(dst, r.Seq)
	case OKResp:
		kind = wire.KOKResp
	case ErrResp:
		kind = wire.KErrResp
		dst = colbytes.AppendString(dst, r.Msg)
	case PingReq:
		kind = wire.KPingReq
	case CommitReq:
		kind = wire.KCommitReq
		dst = colbytes.AppendU32(dst, uint32(r.Superstep))
	case AbortReq:
		kind = wire.KAbortReq
	case FetchReq:
		kind = wire.KFetchReq
		dst = appendPartIDs(dst, r.Parts)
	case ClearReq:
		kind = wire.KClearReq
		dst = appendPartIDs(dst, r.Parts)
	case ResetReq:
		kind = wire.KResetReq
	case ShutdownReq:
		kind = wire.KShutdownReq
	case StatsReq:
		kind = wire.KStatsReq
	case WorkerStats:
		kind = wire.KWorkerStats
		dst = colbytes.AppendU64(dst, r.Handled)
		dst = colbytes.AppendU64(dst, r.Replayed)
	default:
		return dst[:start], fmt.Errorf("proc: encoding %T: not a wire message", m)
	}
	dst[start+2] = kind
	return dst, nil
}

// decodeRawPayload decodes a raw payload (the frame payload minus the
// leading codec tag): version, kind, idempotence token, body. Bytes
// left over after the body are an error, so every accepted payload is
// exactly what appendRawPayload writes for the decoded message.
func decodeRawPayload(p []byte) (uint64, any, error) {
	r := colbytes.NewReader(p)
	ver := r.U8()
	kind := r.U8()
	id := r.U64()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("proc: raw frame header: %w", err)
	}
	if ver != wire.Version {
		return 0, nil, &wire.VersionError{Got: ver, Want: wire.Version}
	}
	var m any
	switch kind {
	case wire.KStepReq:
		v := StepReq{
			Superstep: int(r.U32()),
			Rescatter: r.Bool(),
			Dangling:  r.F64(),
		}
		v.Inbox = readRuns(r)
		m = v
	case wire.KStepResp:
		v := StepResp{Outbox: readRuns(r)}
		if n := readCount(r, 20, "partition sums"); n > 0 {
			v.Sums = make([]PartSums, n)
			for i := range v.Sums {
				v.Sums[i] = PartSums{Part: int(r.U32()), Dangling: r.F64(), L1: r.F64()}
			}
		}
		v.Folded = r.Bool()
		v.Messages = int64(r.U64())
		v.Updates = int64(r.U64())
		m = v
	case wire.KFetchResp:
		m = FetchResp{Parts: readStates(r)}
	case wire.KRestoreReq:
		m = RestoreReq{Parts: readStates(r)}
	case wire.KLoadReq:
		v := LoadReq{
			Job:           r.String(),
			Kind:          r.String(),
			NumPartitions: int(r.U32()),
			TotalVertices: int(r.U64()),
			Damping:       r.F64(),
			PartOf:        r.I32s(nil),
		}
		if n := readCount(r, 16, "partition data"); n > 0 {
			v.Parts = make([]PartitionData, n)
			for i := range v.Parts {
				v.Parts[i] = PartitionData{Part: int(r.U32()), Owned: r.I32s(nil), Degrees: r.I32s(nil), Targets: r.I32s(nil)}
			}
		}
		m = v
	case wire.KDataFetch:
		v := DataFetchReq{Stream: r.U64(), ChunkVerts: int(r.U32())}
		v.Parts = readPartIDs(r)
		m = v
	case wire.KDataRestore:
		m = DataRestoreReq{Stream: r.U64()}
	case wire.KDataChunk:
		v := DataChunk{Stream: r.U64(), Seq: r.U32(), Done: r.Bool()}
		v.Parts = readStates(r)
		m = v
	case wire.KDataAck:
		m = DataAck{Stream: r.U64()}
	case wire.KDataErr:
		m = DataErr{Stream: r.U64(), Msg: r.String()}
	case wire.KHello:
		m = Hello{Proto: int(r.U32()), Worker: int(r.U32()), Token: r.String(), Conn: r.String()}
	case wire.KHelloOK:
		m = HelloOK{Proto: int(r.U32())}
	case wire.KHeartbeat:
		m = Heartbeat{Worker: int(r.U32()), Seq: r.U64()}
	case wire.KOKResp:
		m = OKResp{}
	case wire.KErrResp:
		m = ErrResp{Msg: r.String()}
	case wire.KPingReq:
		m = PingReq{}
	case wire.KCommitReq:
		m = CommitReq{Superstep: int(r.U32())}
	case wire.KAbortReq:
		m = AbortReq{}
	case wire.KFetchReq:
		m = FetchReq{Parts: readPartIDs(r)}
	case wire.KClearReq:
		m = ClearReq{Parts: readPartIDs(r)}
	case wire.KResetReq:
		m = ResetReq{}
	case wire.KShutdownReq:
		m = ShutdownReq{}
	case wire.KStatsReq:
		m = StatsReq{}
	case wire.KWorkerStats:
		m = WorkerStats{Handled: r.U64(), Replayed: r.U64()}
	default:
		return 0, nil, fmt.Errorf("proc: raw frame with unknown kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("proc: decoding raw %s frame: %w", kindNames[kind], err)
	}
	if n := r.Remaining(); n != 0 {
		return 0, nil, fmt.Errorf("proc: raw %s frame has %d trailing bytes", kindNames[kind], n)
	}
	return id, m, nil
}

// appendPartIDs writes a partition-ID list: a count, then one u32 per
// ID.
func appendPartIDs(dst []byte, parts []int) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = colbytes.AppendU32(dst, uint32(p))
	}
	return dst
}

// readCount reads a u32 element count, failing the reader unless the
// bytes remaining could hold that many elements of at least minBytes
// each — checked by division, so no count can overflow the check or
// drive an oversized allocation.
func readCount(r *colbytes.Reader, minBytes int, context string) int {
	n := int(r.U32())
	if r.Err() != nil {
		return 0
	}
	if n > r.Remaining()/minBytes {
		r.Fail(context)
		return 0
	}
	return n
}

// readPartIDs decodes a partition-ID list. An empty list decodes as
// nil.
func readPartIDs(r *colbytes.Reader) []int {
	n := readCount(r, 4, "partition id list")
	if n == 0 {
		return nil
	}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = int(r.U32())
	}
	return parts
}

// appendRuns writes message runs: a count, then per run its
// destination and source partition and its Dst and Val columns.
func appendRuns(dst []byte, runs []MsgRun) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(runs)))
	for _, run := range runs {
		dst = colbytes.AppendU32(dst, uint32(run.Part))
		dst = colbytes.AppendU32(dst, uint32(run.Src))
		dst = colbytes.AppendI32s(dst, run.Dst)
		dst = colbytes.AppendU64s(dst, run.Val)
	}
	return dst
}

// readRuns decodes what appendRuns writes. The columns may differ in
// length here; whoever folds or relays a run checks that.
func readRuns(r *colbytes.Reader) []MsgRun {
	n := readCount(r, 16, "message runs")
	if n == 0 {
		return nil
	}
	runs := make([]MsgRun, n)
	for i := range runs {
		runs[i] = MsgRun{Part: int(r.U32()), Src: int(r.U32()), Dst: r.I32s(nil), Val: r.U64s(nil)}
	}
	return runs
}

// appendStates writes partition state fragments: a count, then per
// fragment its partition, first slot and state column.
func appendStates(dst []byte, pss []PartState) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(pss)))
	for _, ps := range pss {
		dst = colbytes.AppendU32(dst, uint32(ps.Part))
		dst = colbytes.AppendU32(dst, uint32(ps.First))
		dst = colbytes.AppendU64s(dst, ps.Vals)
	}
	return dst
}

// readStates decodes what appendStates writes.
func readStates(r *colbytes.Reader) []PartState {
	n := readCount(r, 12, "partition states")
	if n == 0 {
		return nil
	}
	pss := make([]PartState, n)
	for i := range pss {
		pss[i] = PartState{Part: int(r.U32()), First: int(r.U32()), Vals: r.U64s(nil)}
	}
	return pss
}

// snapshotMagic prefixes raw JobSnapshot checkpoint blobs; a blob
// without it is not a proc snapshot.
var snapshotMagic = [4]byte{0x00, 'O', 'F', 'S'}

// appendSnapshot appends the raw columnar encoding of a JobSnapshot:
// magic, format version, then kind, the partition states, the message
// runs and the scalar tail.
func appendSnapshot(dst []byte, s JobSnapshot) []byte {
	dst = append(dst, snapshotMagic[:]...)
	dst = append(dst, wire.Version)
	dst = colbytes.AppendString(dst, s.Kind)
	dst = appendStates(dst, s.Parts)
	dst = appendRuns(dst, s.Inbox)
	dst = colbytes.AppendF64(dst, s.Dangling)
	dst = colbytes.AppendBool(dst, s.Rescatter)
	return dst
}

// decodeSnapshot decodes a raw snapshot blob. Like decodeRawPayload it
// accepts exactly the bytes appendSnapshot writes: a missing magic,
// another version or trailing bytes are errors.
func decodeSnapshot(b []byte) (JobSnapshot, error) {
	if len(b) < len(snapshotMagic) || string(b[:len(snapshotMagic)]) != string(snapshotMagic[:]) {
		return JobSnapshot{}, errors.New("proc: not a proc snapshot blob (no snapshot magic)")
	}
	r := colbytes.NewReader(b[len(snapshotMagic):])
	if ver := r.U8(); r.Err() == nil && ver != wire.Version {
		return JobSnapshot{}, &wire.VersionError{Got: ver, Want: wire.Version}
	}
	s := JobSnapshot{Kind: r.String()}
	s.Parts = readStates(r)
	s.Inbox = readRuns(r)
	s.Dangling = r.F64()
	s.Rescatter = r.Bool()
	if err := r.Err(); err != nil {
		return JobSnapshot{}, fmt.Errorf("proc: decoding raw snapshot: %w", err)
	}
	if n := r.Remaining(); n != 0 {
		return JobSnapshot{}, fmt.Errorf("proc: raw snapshot has %d trailing bytes", n)
	}
	return s, nil
}
