package proc

// raw.go is the proc half of the wire format: per-message encoders and
// decoders composing the column segments of internal/colbytes under
// the frame format of internal/cluster/proc/wire. Control messages
// are a handful of scalars and strings; hot-path payloads — superstep
// data, partition state, the checkpoint snapshot blob and the
// data-plane stream messages — encode as struct-of-arrays columns: one
// loop per field over all elements of all partitions, so a StepReq's
// inbox hits the wire as three flat little-endian arrays. Decoders
// allocate one exactly-sized arena per section and sub-slice it per
// partition, so a frame decode costs O(1) allocations regardless of
// partition count and nothing aliases the (pooled) receive buffer.
// Every count read from the wire is checked against the bytes
// remaining by division, never by a multiplication that could
// overflow, before anything is allocated.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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
		dst = appendMsgSection(dst, r.Inbox)
	case StepResp:
		kind = wire.KStepResp
		dst = appendMsgSection(dst, r.Outbox)
		dst = colbytes.AppendF64(dst, r.Dangling)
		dst = colbytes.AppendF64(dst, r.L1)
		dst = colbytes.AppendBool(dst, r.Folded)
		dst = colbytes.AppendU64(dst, uint64(r.Messages))
		dst = colbytes.AppendU64(dst, uint64(r.Updates))
	case FetchResp:
		kind = wire.KFetchResp
		dst = appendStateSection(dst, r.Parts)
	case RestoreReq:
		kind = wire.KRestoreReq
		dst = appendStateSection(dst, r.Parts)
	case LoadReq:
		kind = wire.KLoadReq
		dst = colbytes.AppendString(dst, r.Job)
		dst = colbytes.AppendString(dst, r.Kind)
		dst = colbytes.AppendU32(dst, uint32(r.NumPartitions))
		dst = colbytes.AppendU64(dst, uint64(r.TotalVertices))
		dst = colbytes.AppendF64(dst, r.Damping)
		dst = appendAdjSection(dst, r.Parts)
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
		dst = appendStateSection(dst, r.Parts)
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
		v.Inbox = readMsgSection(r)
		m = v
	case wire.KStepResp:
		v := StepResp{Outbox: readMsgSection(r)}
		v.Dangling = r.F64()
		v.L1 = r.F64()
		v.Folded = r.Bool()
		v.Messages = int64(r.U64())
		v.Updates = int64(r.U64())
		m = v
	case wire.KFetchResp:
		m = FetchResp{Parts: readStateSection(r)}
	case wire.KRestoreReq:
		m = RestoreReq{Parts: readStateSection(r)}
	case wire.KLoadReq:
		v := LoadReq{
			Job:           r.String(),
			Kind:          r.String(),
			NumPartitions: int(r.U32()),
			TotalVertices: int(r.U64()),
			Damping:       r.F64(),
		}
		v.Parts = readAdjSection(r)
		m = v
	case wire.KDataFetch:
		v := DataFetchReq{Stream: r.U64(), ChunkVerts: int(r.U32())}
		v.Parts = readPartIDs(r)
		m = v
	case wire.KDataRestore:
		m = DataRestoreReq{Stream: r.U64()}
	case wire.KDataChunk:
		v := DataChunk{Stream: r.U64(), Seq: r.U32(), Done: r.Bool()}
		v.Parts = readStateSection(r)
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

// readPartIDs decodes a partition-ID list, validating the declared
// count against the bytes remaining before allocating. An empty list
// decodes as nil.
func readPartIDs(r *colbytes.Reader) []int {
	n := int(r.U32())
	if r.Err() != nil || n == 0 {
		return nil
	}
	if n > r.Remaining()/4 {
		r.Fail("partition id list")
		return nil
	}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = int(r.U32())
	}
	return parts
}

// appendMsgSection writes []PartMsgs fully columnar: a count header
// (partition ID and message count per partition), then ONE column per
// Msg field concatenated across all partitions — dst IDs, labels,
// ranks. Nil/empty distinctions are not preserved; empty groups decode
// as nil.
func appendMsgSection(dst []byte, pms []PartMsgs) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(pms)))
	for _, pm := range pms {
		dst = colbytes.AppendU32(dst, uint32(pm.Part))
		dst = colbytes.AppendU32(dst, uint32(len(pm.Msgs)))
	}
	for _, pm := range pms {
		for _, m := range pm.Msgs {
			dst = colbytes.AppendU64(dst, m.Dst)
		}
	}
	for _, pm := range pms {
		for _, m := range pm.Msgs {
			dst = colbytes.AppendU64(dst, m.Label)
		}
	}
	for _, pm := range pms {
		for _, m := range pm.Msgs {
			dst = colbytes.AppendF64(dst, m.Rank)
		}
	}
	return dst
}

// sectionCounts reads a section's count header: nparts (part, count)
// pairs, validating each declared count against the bytes actually
// remaining (elemBytes per element) so a corrupt header cannot drive
// an unbounded arena allocation. Returns nil when the section is
// empty or the reader has failed.
func sectionCounts(r *colbytes.Reader, elemBytes int) (parts []int, counts []int, total int) {
	nparts := int(r.U32())
	if r.Err() != nil || nparts == 0 {
		return nil, nil, 0
	}
	if nparts > r.Remaining()/8 {
		// Each declared partition costs at least its 8-byte header entry.
		r.Fail("section count header")
		return nil, nil, 0
	}
	parts = make([]int, nparts)
	counts = make([]int, nparts)
	for i := 0; i < nparts; i++ {
		parts[i] = int(r.U32())
		counts[i] = int(r.U32())
		total += counts[i]
		if r.Err() != nil || total > r.Remaining()/elemBytes {
			r.Fail("section element counts")
			return nil, nil, 0
		}
	}
	return parts, counts, total
}

// readMsgSection decodes a message section into one arena of Msgs
// sub-sliced per partition: O(1) allocations however many partitions.
func readMsgSection(r *colbytes.Reader) []PartMsgs {
	parts, counts, total := sectionCounts(r, 24) // 3 columns x 8 bytes
	if parts == nil {
		return nil
	}
	arena := make([]Msg, total)
	if b := r.Raw(8*total, "msg dst column"); b != nil {
		for i := range arena {
			arena[i].Dst = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	if b := r.Raw(8*total, "msg label column"); b != nil {
		for i := range arena {
			arena[i].Label = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	if b := r.Raw(8*total, "msg rank column"); b != nil {
		for i := range arena {
			arena[i].Rank = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	out := make([]PartMsgs, len(parts))
	off := 0
	for i := range out {
		out[i].Part = parts[i]
		if n := counts[i]; n > 0 {
			out[i].Msgs = arena[off : off+n : off+n]
			off += n
		}
	}
	return out
}

// appendStateSection writes []PartState in the same fully-columnar
// shape as appendMsgSection: count header, then the ID, label and rank
// columns concatenated across partitions.
func appendStateSection(dst []byte, pss []PartState) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(pss)))
	for _, ps := range pss {
		dst = colbytes.AppendU32(dst, uint32(ps.Part))
		dst = colbytes.AppendU32(dst, uint32(len(ps.Vertices)))
	}
	for _, ps := range pss {
		for _, v := range ps.Vertices {
			dst = colbytes.AppendU64(dst, v.ID)
		}
	}
	for _, ps := range pss {
		for _, v := range ps.Vertices {
			dst = colbytes.AppendU64(dst, v.Label)
		}
	}
	for _, ps := range pss {
		for _, v := range ps.Vertices {
			dst = colbytes.AppendF64(dst, v.Rank)
		}
	}
	return dst
}

// readStateSection decodes a partition-state section into one arena of
// VertexVals sub-sliced per partition.
func readStateSection(r *colbytes.Reader) []PartState {
	parts, counts, total := sectionCounts(r, 24)
	if parts == nil {
		return nil
	}
	arena := make([]VertexVal, total)
	if b := r.Raw(8*total, "state id column"); b != nil {
		for i := range arena {
			arena[i].ID = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	if b := r.Raw(8*total, "state label column"); b != nil {
		for i := range arena {
			arena[i].Label = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	if b := r.Raw(8*total, "state rank column"); b != nil {
		for i := range arena {
			arena[i].Rank = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	out := make([]PartState, len(parts))
	off := 0
	for i := range out {
		out[i].Part = parts[i]
		if n := counts[i]; n > 0 {
			out[i].Vertices = arena[off : off+n : off+n]
			off += n
		}
	}
	return out
}

// appendAdjSection writes []PartitionData columnar: count header, the
// vertex-ID column, the out-degree column, then every out-edge
// flattened into one column (the degrees recover the per-vertex
// sub-slices).
func appendAdjSection(dst []byte, pds []PartitionData) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(pds)))
	for _, pd := range pds {
		dst = colbytes.AppendU32(dst, uint32(pd.Part))
		dst = colbytes.AppendU32(dst, uint32(len(pd.Vertices)))
	}
	var edges uint64
	for _, pd := range pds {
		for _, va := range pd.Vertices {
			dst = colbytes.AppendU64(dst, va.ID)
			edges += uint64(len(va.Out))
		}
	}
	for _, pd := range pds {
		for _, va := range pd.Vertices {
			dst = colbytes.AppendU32(dst, uint32(len(va.Out)))
		}
	}
	dst = colbytes.AppendU64(dst, edges)
	for _, pd := range pds {
		for _, va := range pd.Vertices {
			for _, o := range va.Out {
				dst = colbytes.AppendU64(dst, o)
			}
		}
	}
	return dst
}

// snapshotMagic prefixes raw JobSnapshot checkpoint blobs; a blob
// without it is not a proc snapshot.
var snapshotMagic = [4]byte{0x00, 'O', 'F', 'S'}

// appendSnapshot appends the raw columnar encoding of a JobSnapshot:
// magic, format version, then kind, the state and message sections and
// the scalar tail.
func appendSnapshot(dst []byte, s JobSnapshot) []byte {
	dst = append(dst, snapshotMagic[:]...)
	dst = append(dst, wire.Version)
	dst = colbytes.AppendString(dst, s.Kind)
	dst = appendStateSection(dst, s.Parts)
	dst = appendMsgSection(dst, s.Inbox)
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
	s.Parts = readStateSection(r)
	s.Inbox = readMsgSection(r)
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

// readAdjSection decodes an adjacency section. The flattened out-edge
// column becomes one arena sub-sliced per vertex — the slices the
// worker retains for the life of the job, exactly sized. The declared
// edge count must equal the sum of the degrees.
func readAdjSection(r *colbytes.Reader) []PartitionData {
	parts, counts, total := sectionCounts(r, 12) // id u64 + degree u32
	if parts == nil {
		if r.U64() != 0 {
			r.Fail("adjacency edge column")
		}
		return nil
	}
	verts := make([]VertexAdj, total)
	if b := r.Raw(8*total, "adjacency id column"); b != nil {
		for i := range verts {
			verts[i].ID = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	degs := make([]uint32, total)
	if b := r.Raw(4*total, "adjacency degree column"); b != nil {
		for i := range degs {
			degs[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	}
	declared := r.U64()
	if r.Err() != nil || declared > uint64(r.Remaining()/8) {
		r.Fail("adjacency edge column")
		return nil
	}
	edges := int(declared)
	arena := make([]uint64, edges)
	if b := r.Raw(8*edges, "adjacency edge column"); b != nil {
		for i := range arena {
			arena[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	off := 0
	for i := range verts {
		n := int(degs[i])
		if n > edges-off {
			r.Fail("adjacency degrees")
			return nil
		}
		verts[i].Out = arena[off : off+n : off+n]
		off += n
	}
	if off != edges {
		r.Fail("adjacency degrees")
		return nil
	}
	out := make([]PartitionData, len(parts))
	voff := 0
	for i := range out {
		out[i].Part = parts[i]
		if n := counts[i]; n > 0 {
			out[i].Vertices = verts[voff : voff+n : voff+n]
			voff += n
		}
	}
	return out
}
