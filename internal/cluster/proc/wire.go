// Package proc is the multi-process deployment of the cluster model: a
// coordinator process (the driver) and worker daemons that are real
// operating-system processes, connected over TCP. It is the "in
// action" counterpart of the in-process simulation in package cluster
// — same Interface, same membership semantics, but Fail(w) delivers an
// actual SIGKILL and recovery re-provisions an actual process.
//
// The wire protocol is deliberately small: every connection starts with
// a Hello handshake naming the worker and the connection's role
// ("ctrl" for serialized request/response RPC, "beat" for the worker's
// heartbeat push stream, "data/N" for the chunked state-transfer data
// plane), after which each side exchanges frames. Each frame is
// length-prefixed (netfault.HeaderLen bytes of big-endian payload
// length) and self-contained: a dropped, duplicated or delayed frame
// cannot desynchronise the stream, and a reconnected connection
// resumes mid-job with no carried codec state. Every payload, control
// and hot path alike, is one raw columnar message (raw.go, format in
// internal/cluster/proc/wire) whose kind byte names its type. Frames
// carry an ID used as an idempotence token on ctrl RPCs — responses
// echo their request's ID, so the coordinator can discard stale
// responses after a retry and the worker can answer a duplicate
// request from cache instead of re-applying it. The
// wire-compatibility test round-trips one sample of every kind
// through a freshly started subprocess decoder to pin cross-process
// decodability.
//
// Iteration state lives on the workers (worker.go) as dense columns:
// per hosted partition, CSR rows over int32 vertex indices and one
// uint64 state column in slot order. The superstep kernel is
// exec.Combiner, the columnar engine's combiner, run once per hosted
// source partition; the driver (job.go) checks the resulting message
// runs and relays them, unmerged, to the workers that fold them.
package proc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"

	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/cluster/proc/wire"
)

// ProtoVersion is the wire protocol version. A Hello with a different
// version is rejected during the handshake, so a stale worker binary
// cannot silently exchange frames with a newer coordinator. Version 2
// introduced length-prefixed self-contained frames and idempotence
// IDs; version 3 added the per-payload codec tag and the data-plane
// connection role; version 4 moved the control messages, Hello
// included, onto the raw codec; version 5 made the superstep dense:
// int32 vertex indices, per-source-partition message runs and one
// state column per partition.
const ProtoVersion = 5

// Hello opens every connection. Token authenticates the worker to the
// coordinator (it is handed to the worker process via its environment,
// so only processes the coordinator spawned can join). Conn is the
// connection's role: "ctrl" or "beat".
type Hello struct {
	Proto  int
	Worker int
	Token  string
	Conn   string
}

// Connection roles named in Hello.Conn. Data-plane connections are
// numbered — "data/0", "data/1", … — so each slot of a worker's pool
// handshakes (and reconnects) independently; see dataRole.
const (
	ConnCtrl = "ctrl"
	ConnBeat = "beat"
	connData = "data"
)

// dataRole names data-plane connection slot i.
func dataRole(i int) string { return connData + "/" + strconv.Itoa(i) }

// parseDataRole recognises a data-plane role, returning its slot.
func parseDataRole(role string) (int, bool) {
	rest, ok := strings.CutPrefix(role, connData+"/")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// HelloOK acknowledges a Hello.
type HelloOK struct {
	Proto int
}

// Heartbeat is pushed periodically by the worker on its beat
// connection. Seq increases monotonically per worker.
type Heartbeat struct {
	Worker int
	Seq    uint64
}

// OKResp acknowledges a request that returns no payload.
type OKResp struct{}

// ErrResp reports a request failure; the RPC layer surfaces it as an
// error to the caller.
type ErrResp struct {
	Msg string
}

// PingReq checks liveness over the ctrl connection.
type PingReq struct{}

// PartitionData is one partition's share of the graph in dense form:
// its vertices in state-slot order and their CSR rows.
type PartitionData struct {
	Part int
	// Owned lists the partition's vertices as dense indices, ascending;
	// vertex Owned[s] lives in state slot s.
	Owned []int32
	// Degrees is each slot's out-degree. The rows lie back to back in
	// Targets, so the degrees sum to len(Targets).
	Degrees []int32
	// Targets holds every row's out-neighbours as dense indices.
	Targets []int32
}

// LoadReq hands a worker the partitions it hosts: the job identity,
// the algorithm kind, global graph facts, the job's vertex-to-partition
// column and per-partition CSR rows. State is initialised to superstep
// zero (CC: each vertex's own dense index as its label; PR: uniform
// rank 1/N). LoadReq is also how a replacement worker adopts orphaned
// partitions mid-job — the driver then Clears or Restores them per the
// recovery policy.
type LoadReq struct {
	Job           string
	Kind          string
	NumPartitions int
	TotalVertices int
	Damping       float64
	// PartOf maps every dense vertex index to its partition
	// (graph.Partitioning.PartOf).
	PartOf []int32
	Parts  []PartitionData
}

// Algorithm kinds named in LoadReq.Kind.
const (
	KindCC       = "cc"
	KindPageRank = "pagerank"
)

// MsgRun is the combined messages one source partition sends one
// destination partition in a superstep: Dst strictly ascending, Val[i]
// the folded payload for Dst[i] — a CC label (a dense vertex index) or
// a PageRank contribution as float64 bits.
type MsgRun struct {
	Part int // destination partition
	Src  int // source partition
	Dst  []int32
	Val  []uint64
}

// StepReq runs one superstep attempt over the worker's partitions.
// Rescatter asks every vertex to re-send its current state to its
// neighbors (superstep zero, and after an optimistic compensation);
// Dangling is the dangling-rank mass collected in the previous
// superstep (PageRank only). Inbox holds the runs for the worker's
// partitions, each partition's runs in ascending Src order — the order
// the worker folds them in. The worker computes but does not apply:
// updates stay pending until CommitReq, and AbortReq drops them — the
// two-phase protocol that lets an aborted attempt be replayed against
// unchanged state.
type StepReq struct {
	Superstep int
	Rescatter bool
	Dangling  float64
	Inbox     []MsgRun
}

// PartSums is one source partition's PageRank totals in a superstep:
// the rank mass of its sinks and the L1 delta of its ranks.
type PartSums struct {
	Part     int
	Dangling float64
	L1       float64
}

// StepResp reports one superstep attempt's outputs: one run per
// (hosted source partition, destination partition) pair with
// messages, PageRank's per-source-partition sums (Folded reports
// whether a fold happened, so a pure rescatter step does not fake
// convergence), and the counters the iteration driver samples.
type StepResp struct {
	Outbox   []MsgRun
	Sums     []PartSums
	Folded   bool
	Messages int64
	Updates  int64
}

// CommitReq applies the pending updates of the superstep computed by
// the previous StepReq.
type CommitReq struct {
	Superstep int
}

// AbortReq drops the pending updates of the previous StepReq, leaving
// state as it was before the attempt.
type AbortReq struct{}

// PartState is a stretch of one partition's committed state: Vals[i]
// is state slot First+i — a CC label, or a PageRank rank as float64
// bits. A whole partition has First 0; the data plane cuts larger ones
// into consecutive fragments.
type PartState struct {
	Part  int
	First int
	Vals  []uint64
}

// FetchReq reads the committed state of the listed partitions
// (checkpoint capture, final result collection, release migration).
type FetchReq struct {
	Parts []int
}

// FetchResp answers a FetchReq.
type FetchResp struct {
	Parts []PartState
}

// RestoreReq overwrites the listed partitions' state (checkpoint
// rollback, release migration).
type RestoreReq struct {
	Parts []PartState
}

// ClearReq reinitialises the listed partitions to superstep-zero state
// — the direct effect of their previous owner crashing.
type ClearReq struct {
	Parts []int
}

// ResetReq reinitialises every hosted partition (restart policy).
type ResetReq struct{}

// ShutdownReq asks the worker to exit cleanly (cooperative Release —
// unlike the SIGKILL of Fail).
type ShutdownReq struct{}

// StatsReq asks a worker for its request-handling counters — the
// observability hook the idempotence regression tests use to prove a
// retried RPC was answered from cache rather than re-applied.
type StatsReq struct{}

// WorkerStats answers a StatsReq. Handled counts requests whose effect
// was applied exactly once; Replayed counts duplicate deliveries that
// were answered from the idempotence cache without re-applying.
type WorkerStats struct {
	Handled  uint64
	Replayed uint64
}

// JobSnapshot is the driver-side serialisation of a proc job's full
// iteration state: every partition's state column plus the in-flight
// message runs the next superstep consumes. recovery.Job's SnapshotTo
// encodes one of these as a raw snapshot blob (appendSnapshot);
// RestoreFrom decodes it and pushes the partitions back to their
// current owners.
type JobSnapshot struct {
	Kind      string
	Parts     []PartState
	Inbox     []MsgRun
	Dangling  float64
	Rescatter bool
}

// DataFetchReq opens a fetch stream on a data-plane connection: the
// worker answers with DataChunk frames carrying the listed partitions'
// committed state, at most ChunkVerts vertices per chunk, the last
// chunk marked Done. Stream tags the transfer so a late frame from an
// abandoned stream cannot be mistaken for the current one.
type DataFetchReq struct {
	Stream     uint64
	ChunkVerts int
	Parts      []int
}

// DataRestoreReq opens a restore stream: the coordinator follows it
// with DataChunk frames whose state fragments the worker applies as
// they arrive, answering DataAck (or DataErr) after the Done chunk.
type DataRestoreReq struct {
	Stream uint64
}

// DataChunk is one bounded fragment of a state stream. Parts carries
// partition state fragments — a partition larger than the chunk budget
// spans several chunks, each naming the first slot it covers.
type DataChunk struct {
	Stream uint64
	Seq    uint32
	Done   bool
	Parts  []PartState
}

// DataAck completes a restore stream.
type DataAck struct {
	Stream uint64
}

// DataErr reports a stream-level application error (unknown partition,
// say). Transport failures don't get a frame — the connection breaks.
type DataErr struct {
	Stream uint64
	Msg    string
}

// framePool recycles frame-assembly and frame-receive buffers across
// the send and receive loops — the PR 10 fix for the per-frame
// allocations that dominated the proc hot path.
var framePool = sync.Pool{New: func() any { return &wire.Buf{} }}

// appendFrame appends one complete length-prefixed raw frame for m to
// dst, failing if m has no raw kind or the payload exceeds maxFrame
// (0 = wire.MaxFrame). The returned slice is dst possibly regrown; on
// error it is dst unchanged.
func appendFrame(dst []byte, id uint64, m any, maxFrame int) ([]byte, error) {
	start := len(dst)
	dst, err := appendRawPayload(append(dst, make([]byte, netfault.HeaderLen)...), id, m)
	if err != nil {
		return dst[:start], err
	}
	payload := len(dst) - start - netfault.HeaderLen
	if err := wire.CheckSize(payload, maxFrame); err != nil {
		return dst[:start], fmt.Errorf("proc: encoding %T: %w", m, err)
	}
	netfault.PutHeader(dst[start:], payload)
	return dst, nil
}

// writeFrame writes one message as a single self-contained frame
// carrying idempotence token id (zero on handshake, heartbeat and
// stream frames), capped at maxFrame payload bytes. The frame reaches
// the connection in exactly one Write call — the contract the
// netfault wrapper relies on to see frame boundaries — and its buffer
// returns to the pool afterwards.
func writeFrame(w io.Writer, id uint64, m any, maxFrame int) error {
	buf := framePool.Get().(*wire.Buf)
	b, err := appendFrame(buf.B[:0], id, m, maxFrame)
	buf.B = b[:0]
	if err != nil {
		framePool.Put(buf)
		return err
	}
	_, err = w.Write(b)
	framePool.Put(buf)
	if err != nil {
		return fmt.Errorf("proc: writing %T: %w", m, err)
	}
	return nil
}

// readFrame reads the next complete frame, rejecting a declared
// payload above maxFrame (0 = wire.MaxFrame) before reading it, and
// returns the frame's idempotence token alongside the message. The
// payload is read into a pooled buffer; the raw decoders copy
// everything out (the arena rule), so the buffer recycles immediately.
// Read errors from the connection are returned wrapped (%w) so
// deadline expiry stays detectable via net.Error.
func readFrame(r io.Reader, maxFrame int) (uint64, any, error) {
	var hdr [netfault.HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, err := netfault.ParseHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if err := wire.CheckSize(n, maxFrame); err != nil {
		return 0, nil, fmt.Errorf("proc: reading frame: %w", err)
	}
	buf := framePool.Get().(*wire.Buf)
	defer framePool.Put(buf)
	if cap(buf.B) < n {
		buf.B = make([]byte, n)
	}
	payload := buf.B[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("proc: reading frame body: %w", err)
	}
	if payload[0] != wire.CodecRaw {
		return 0, nil, fmt.Errorf("proc: unknown frame codec %#x", payload[0])
	}
	return decodeRawPayload(payload[1:])
}

// isTimeout reports whether err is (or wraps) a network timeout — the
// signal that a frame may have been lost in flight, as opposed to the
// connection being broken.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
