package proc

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"optiflow/internal/exec"
)

// WorkerConfig parameterises one worker daemon.
type WorkerConfig struct {
	// Addr is the coordinator's listen address to dial.
	Addr string
	// Worker is the ID the coordinator assigned this process.
	Worker int
	// Token authenticates the Hello handshake.
	Token string
	// Heartbeat is the beat-push interval (250ms if zero).
	Heartbeat time.Duration
	// HandshakeTimeout bounds each Hello exchange (10s if zero); the
	// coordinator passes its own configured value down via the
	// environment.
	HandshakeTimeout time.Duration
	// ReconnectGrace is how long a broken connection is redialed before
	// the worker gives up and exits (8s if zero). The coordinator sets
	// it to outlast its own suspicion grace, so a healed link can
	// rejoin right up to the condemn verdict.
	ReconnectGrace time.Duration
	// RetryBackoff is the initial redial backoff, doubled per attempt
	// and capped at 8x (25ms if zero).
	RetryBackoff time.Duration
	// DataConns is the size of this worker's data-plane connection
	// pool, mirroring the coordinator's Config.DataConns. Zero means no
	// data plane (bulk state moves over ctrl RPCs).
	DataConns int
	// MaxFrameBytes caps frame payloads, mirroring Config.MaxFrameBytes
	// (0 = the netfault hard ceiling).
	MaxFrameBytes int
}

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 250 * time.Millisecond
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.ReconnectGrace <= 0 {
		cfg.ReconnectGrace = 8 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	return cfg
}

// errFenced is the permanent handshake rejection: the coordinator has
// condemned (or replaced) this worker, so redialing is pointless — and
// a fenced worker must NOT keep trying to write state into the job.
var errFenced = errors.New("proc: fenced by coordinator")

// RunWorker runs the worker daemon until the coordinator shuts it down
// (clean exit), fences it, or a broken connection outlives the
// reconnect grace (error exit). It dials a ctrl connection for
// serialized RPC, a beat connection for heartbeat pushes, and
// cfg.DataConns data-plane connections for chunked state streams,
// performs the Hello handshake on each, then serves ctrl requests one
// at a time while data streams run concurrently. Broken connections
// are redialed with capped backoff; since protocol v2 every frame is
// self-contained, so a reconnected stream resumes with no carried
// codec state, and the idempotence cache answers a retried request
// without re-applying it.
func RunWorker(cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	ctrl, err := dialHandshake(cfg, ConnCtrl)
	if err != nil {
		return err
	}
	defer func() {
		if ctrl != nil {
			ctrl.Close()
		}
	}()
	beat, err := dialHandshake(cfg, ConnBeat)
	if err != nil {
		return err
	}

	done := make(chan struct{})
	defer close(done)
	go pushHeartbeats(beat, cfg, done)

	h := &workerHost{worker: cfg.Worker}
	for i := 0; i < cfg.DataConns; i++ {
		dc, err := dialHandshake(cfg, dataRole(i))
		if err != nil {
			return err
		}
		go serveData(cfg, h, i, dc, done)
	}
	for {
		id, req, err := readFrame(ctrl, cfg.MaxFrameBytes)
		if err != nil {
			ctrl.Close()
			if ctrl, err = redial(cfg, ConnCtrl, err); err != nil {
				return err
			}
			continue
		}
		if _, ok := req.(ShutdownReq); ok {
			writeFrame(ctrl, id, OKResp{}, cfg.MaxFrameBytes)
			return nil
		}
		resp := h.dispatch(id, req)
		if err := writeFrame(ctrl, id, resp, cfg.MaxFrameBytes); err != nil {
			// The response is lost with the connection, but its effect
			// is cached: the coordinator retries the same token and is
			// answered from the cache, not re-applied.
			ctrl.Close()
			if ctrl, err = redial(cfg, ConnCtrl, err); err != nil {
				return err
			}
		}
	}
}

// serveData owns one data-plane slot: it serves fetch and restore
// streams on the connection, redialing within the reconnect grace when
// it breaks. A slot that is fenced or outlives the grace goes quiet —
// the coordinator's pool marks it down and surviving slots carry the
// load; if every slot dies the next transfer exhausts its budget and
// condemns the worker over the ctrl path as usual.
func serveData(cfg WorkerConfig, h *workerHost, slot int, nc net.Conn, done <-chan struct{}) {
	role := dataRole(slot)
	for {
		err := serveDataConn(cfg, h, nc, done)
		nc.Close()
		if err == nil {
			return // done closed: clean shutdown
		}
		if nc, err = redial(cfg, role, err); err != nil {
			return
		}
	}
}

// serveDataConn serves streams on one data connection until it breaks
// (returned error) or the daemon shuts down (nil). A companion
// goroutine closes the connection when done closes, unblocking the
// read.
func serveDataConn(cfg WorkerConfig, h *workerHost, nc net.Conn, done <-chan struct{}) error {
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-done:
			nc.Close()
		case <-finished:
		}
	}()
	for {
		_, m, err := readFrame(nc, cfg.MaxFrameBytes)
		if err != nil {
			select {
			case <-done:
				return nil
			default:
				return err
			}
		}
		switch r := m.(type) {
		case DataFetchReq:
			err = h.serveFetchStream(cfg, nc, r)
		case DataRestoreReq:
			err = h.serveRestoreStream(cfg, nc, r)
		default:
			err = fmt.Errorf("proc: worker %d data conn: unexpected %T", cfg.Worker, m)
		}
		if err != nil {
			return err
		}
	}
}

// serveFetchStream answers one DataFetchReq: snapshot the requested
// partitions under the host lock, then stream the chunks with the lock
// released, so a long transfer never stalls superstep RPCs. An unknown
// partition is an application error (DataErr) — the stream stays
// usable.
func (h *workerHost) serveFetchStream(cfg WorkerConfig, nc net.Conn, r DataFetchReq) error {
	h.mu.Lock()
	resp, err := h.fetch(FetchReq{Parts: r.Parts})
	h.mu.Unlock()
	if err != nil {
		nc.SetWriteDeadline(time.Now().Add(cfg.ReconnectGrace))
		werr := writeFrame(nc, 0, DataErr{Stream: r.Stream, Msg: fmt.Sprintf("worker %d: %v", h.worker, err)}, cfg.MaxFrameBytes)
		nc.SetWriteDeadline(time.Time{})
		return werr
	}
	seq := uint32(0)
	err = chunkStates(resp.Parts, r.ChunkVerts, func(frag []PartState, done bool) error {
		nc.SetWriteDeadline(time.Now().Add(cfg.ReconnectGrace))
		ch := DataChunk{Stream: r.Stream, Seq: seq, Done: done, Parts: frag}
		seq++
		return writeFrame(nc, 0, ch, cfg.MaxFrameBytes)
	})
	nc.SetWriteDeadline(time.Time{})
	return err
}

// serveRestoreStream consumes one restore stream: chunks are applied
// under the host lock as they arrive (pipelining with the
// coordinator's encode+send of the next chunk), and the ack goes out
// after the Done chunk. An application error (unknown partition, or a
// fragment overrunning its partition) keeps draining the stream so the
// sender never blocks on a full pipe, then answers DataErr. Each chunk read carries a deadline
// so a silent half-open peer cannot park the slot forever.
func (h *workerHost) serveRestoreStream(cfg WorkerConfig, nc net.Conn, r DataRestoreReq) error {
	var appErr error
	seq := uint32(0)
	for {
		nc.SetReadDeadline(time.Now().Add(cfg.ReconnectGrace))
		_, m, err := readFrame(nc, cfg.MaxFrameBytes)
		nc.SetReadDeadline(time.Time{})
		if err != nil {
			return err
		}
		ch, ok := m.(DataChunk)
		if !ok {
			return fmt.Errorf("proc: worker %d restore stream: unexpected %T", h.worker, m)
		}
		if ch.Seq != seq {
			// A sequence gap means a chunk was lost in flight: this is a
			// transport fault, not an application error — break the
			// connection so the coordinator's idempotent transfer retries
			// on a fresh slot instead of acking partial state.
			return fmt.Errorf("proc: worker %d restore stream: chunk seq %d, want %d", h.worker, ch.Seq, seq)
		}
		seq++
		if ch.Stream != r.Stream && appErr == nil {
			appErr = fmt.Errorf("chunk for stream %d, want %d", ch.Stream, r.Stream)
		}
		if appErr == nil {
			h.mu.Lock()
			appErr = h.restore(RestoreReq{Parts: ch.Parts})
			h.mu.Unlock()
		}
		if !ch.Done {
			continue
		}
		nc.SetWriteDeadline(time.Now().Add(cfg.ReconnectGrace))
		defer nc.SetWriteDeadline(time.Time{})
		if appErr != nil {
			return writeFrame(nc, 0, DataErr{Stream: r.Stream, Msg: fmt.Sprintf("worker %d: %v", h.worker, appErr)}, cfg.MaxFrameBytes)
		}
		return writeFrame(nc, 0, DataAck{Stream: r.Stream}, cfg.MaxFrameBytes)
	}
}

// redial re-establishes one connection after a break, with capped
// backoff, until the reconnect grace expires. A fencing rejection is
// permanent and aborts immediately.
func redial(cfg WorkerConfig, role string, cause error) (net.Conn, error) {
	deadline := time.Now().Add(cfg.ReconnectGrace)
	backoff := cfg.RetryBackoff
	for {
		nc, err := dialHandshake(cfg, role)
		if err == nil {
			return nc, nil
		}
		if errors.Is(err, errFenced) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("proc: worker %d %s broken (%v); reconnect grace %v expired: %v",
				cfg.Worker, role, cause, cfg.ReconnectGrace, err)
		}
		time.Sleep(backoff)
		if backoff < 8*cfg.RetryBackoff {
			backoff *= 2
		}
	}
}

// dialHandshake opens one connection of the given role.
func dialHandshake(cfg WorkerConfig, role string) (net.Conn, error) {
	c, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("proc: worker %d dialing %s: %v", cfg.Worker, cfg.Addr, err)
	}
	hello := Hello{Proto: ProtoVersion, Worker: cfg.Worker, Token: cfg.Token, Conn: role}
	if err := writeFrame(c, 0, hello, cfg.MaxFrameBytes); err != nil {
		c.Close()
		return nil, err
	}
	c.SetReadDeadline(time.Now().Add(cfg.HandshakeTimeout))
	_, m, err := readFrame(c, cfg.MaxFrameBytes)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("proc: worker %d %s handshake: %w", cfg.Worker, role, err)
	}
	switch resp := m.(type) {
	case HelloOK:
		if resp.Proto != ProtoVersion {
			c.Close()
			return nil, fmt.Errorf("proc: worker %d %s handshake: coordinator speaks proto %d, want %d",
				cfg.Worker, role, resp.Proto, ProtoVersion)
		}
	case ErrResp:
		c.Close()
		if strings.HasPrefix(resp.Msg, "fenced") {
			return nil, fmt.Errorf("proc: worker %d %s handshake: %s: %w", cfg.Worker, role, resp.Msg, errFenced)
		}
		return nil, fmt.Errorf("proc: worker %d %s handshake rejected: %s", cfg.Worker, role, resp.Msg)
	default:
		c.Close()
		return nil, fmt.Errorf("proc: worker %d %s handshake rejected: %T", cfg.Worker, role, m)
	}
	c.SetReadDeadline(time.Time{})
	return c, nil
}

// pushHeartbeats streams Heartbeat frames until done closes. A failed
// write breaks the stream; subsequent ticks redial the beat connection
// (one handshake attempt per tick — the tick interval is the backoff)
// until it is re-established or the worker is fenced.
func pushHeartbeats(nc net.Conn, cfg WorkerConfig, done <-chan struct{}) {
	t := time.NewTicker(cfg.Heartbeat)
	defer t.Stop()
	defer func() {
		if nc != nil {
			nc.Close()
		}
	}()
	var seq uint64
	for {
		select {
		case <-done:
			return
		case <-t.C:
			seq++
			if nc != nil && writeFrame(nc, 0, Heartbeat{Worker: cfg.Worker, Seq: seq}, cfg.MaxFrameBytes) == nil {
				continue
			}
			if nc != nil {
				nc.Close()
				nc = nil
			}
			fresh, err := dialHandshake(cfg, ConnBeat)
			if err == nil {
				nc = fresh
			} else if errors.Is(err, errFenced) {
				return
			}
		}
	}
}

// maxPartitions bounds LoadReq.NumPartitions: the worker sizes
// per-partition tables by it, so a corrupt count must not drive their
// allocation.
const maxPartitions = 1 << 16

// partition is one hosted state partition: its vertices' CSR rows and
// its state column, both in slot order, plus the column a superstep
// attempt computes into and the scratch its inbox folds into.
type partition struct {
	owned   []int32  // dense vertex index of each slot, ascending
	offsets []int32  // row bounds over targets, len(owned)+1
	targets []int32  // out-neighbours as dense indices
	state   []uint64 // committed: CC label, or PageRank rank bits
	next    []uint64 // the attempt awaiting commit, while stepped
	stepped bool

	cand    []uint64  // CC: least inbox label per slot (MaxUint64: none)
	sum     []float64 // PageRank: inbox contribution sum per slot
	lastSrc int       // source partition of the last run folded
}

// workerHost is the daemon's state machine: hosted partitions plus the
// pending (computed, uncommitted) attempt of the last StepReq. Ctrl
// RPCs are serialized, but data-plane streams run concurrently with
// them (and with each other), so every state access takes mu; streams
// hold it only while snapshotting or applying a bounded chunk, never
// across network I/O.
type workerHost struct {
	worker int

	mu sync.Mutex

	job      string
	kind     string
	numParts int
	totalN   int
	damping  float64
	partOf   []int32 // dense vertex index -> partition
	slot     []int32 // dense vertex index -> slot, for hosted partitions

	parts       map[int]*partition
	pending     bool
	pendingStep int

	// The superstep kernel: exec's combiner folds each source
	// partition's messages per destination vertex, and byPart files
	// the result per destination partition.
	labels exec.Combiner[uint64]
	ranks  exec.Combiner[float64]
	byPart []MsgRun

	// Idempotence cache: the last applied request token and its
	// response. Ctrl RPCs are serialized, so depth one is exact — a
	// duplicate delivery (network dup, or a retry whose original did
	// arrive) carries the current token and is answered from here
	// without re-applying.
	lastID   uint64
	lastResp any
	handled  uint64
	replayed uint64
}

// dispatch resolves one ctrl request against the idempotence cache:
// a token already applied is answered from the cache, anything else is
// handled and its response cached.
func (h *workerHost) dispatch(id uint64, req any) any {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id != 0 && id == h.lastID {
		h.replayed++
		return h.lastResp
	}
	resp := h.handle(req)
	h.handled++
	if id != 0 {
		h.lastID, h.lastResp = id, resp
	}
	return resp
}

// handle applies one ctrl request, always producing a response frame
// (ErrResp on failure — the daemon itself stays up).
func (h *workerHost) handle(req any) any {
	var err error
	switch r := req.(type) {
	case PingReq:
		return OKResp{}
	case StatsReq:
		return WorkerStats{Handled: h.handled, Replayed: h.replayed}
	case LoadReq:
		err = h.load(r)
	case StepReq:
		var resp *StepResp
		if resp, err = h.step(r); err == nil {
			return *resp
		}
	case CommitReq:
		err = h.commit(r)
	case AbortReq:
		h.abort()
	case FetchReq:
		var resp *FetchResp
		if resp, err = h.fetch(r); err == nil {
			return *resp
		}
	case RestoreReq:
		err = h.restore(r)
	case ClearReq:
		err = h.clear(r.Parts)
	case ResetReq:
		h.abort()
		for p := range h.parts {
			h.clear([]int{p})
		}
	default:
		err = fmt.Errorf("unexpected request %T", req)
	}
	if err != nil {
		return ErrResp{Msg: fmt.Sprintf("worker %d: %v", h.worker, err)}
	}
	return OKResp{}
}

// checkLoad validates a LoadReq before anything is installed: the kind
// and counts are sane, every index is in range, each listed partition
// is exactly the ascending set of vertices PartOf assigns it, and its
// degrees account for its targets.
func checkLoad(r LoadReq) error {
	if r.Kind != KindCC && r.Kind != KindPageRank {
		return fmt.Errorf("unknown algorithm kind %q", r.Kind)
	}
	if r.NumPartitions < 1 || r.NumPartitions > maxPartitions {
		return fmt.Errorf("%d partitions, want 1 to %d", r.NumPartitions, maxPartitions)
	}
	if len(r.PartOf) != r.TotalVertices {
		return fmt.Errorf("PartOf has %d entries for %d vertices", len(r.PartOf), r.TotalVertices)
	}
	sizes := make([]int, r.NumPartitions)
	for v, p := range r.PartOf {
		if p < 0 || int(p) >= r.NumPartitions {
			return fmt.Errorf("PartOf[%d] = %d, outside the %d partitions", v, p, r.NumPartitions)
		}
		sizes[p]++
	}
	for _, pd := range r.Parts {
		if pd.Part < 0 || pd.Part >= r.NumPartitions {
			return fmt.Errorf("partition %d, outside the %d partitions", pd.Part, r.NumPartitions)
		}
		if len(pd.Owned) != sizes[pd.Part] || len(pd.Degrees) != len(pd.Owned) {
			return fmt.Errorf("partition %d lists %d vertices and %d degrees; PartOf assigns it %d vertices",
				pd.Part, len(pd.Owned), len(pd.Degrees), sizes[pd.Part])
		}
		for s, v := range pd.Owned {
			if v < 0 || int(v) >= r.TotalVertices || r.PartOf[v] != int32(pd.Part) {
				return fmt.Errorf("partition %d lists vertex %d, which PartOf does not assign it", pd.Part, v)
			}
			if s > 0 && v <= pd.Owned[s-1] {
				return fmt.Errorf("partition %d lists its vertices out of order at slot %d", pd.Part, s)
			}
		}
		edges := 0
		for _, deg := range pd.Degrees {
			if deg < 0 {
				return fmt.Errorf("partition %d has a negative degree", pd.Part)
			}
			edges += int(deg)
		}
		if edges != len(pd.Targets) {
			return fmt.Errorf("partition %d: degrees sum to %d, but %d targets follow", pd.Part, edges, len(pd.Targets))
		}
		for _, t := range pd.Targets {
			if t < 0 || int(t) >= r.TotalVertices {
				return fmt.Errorf("partition %d has an edge to vertex %d, outside the %d vertices", pd.Part, t, r.TotalVertices)
			}
		}
	}
	return nil
}

// load installs (or re-installs) partitions with superstep-zero state.
func (h *workerHost) load(r LoadReq) error {
	if err := checkLoad(r); err != nil {
		return err
	}
	if h.parts == nil {
		h.job, h.kind = r.Job, r.Kind
		h.numParts, h.totalN, h.damping = r.NumPartitions, r.TotalVertices, r.Damping
		h.partOf = r.PartOf
		h.slot = make([]int32, r.TotalVertices)
		h.parts = make(map[int]*partition)
		h.byPart = make([]MsgRun, r.NumPartitions)
		if r.Kind == KindCC {
			h.labels.Reserve(r.TotalVertices)
		} else {
			h.ranks.Reserve(r.TotalVertices)
			h.ranks.Fold = exec.FoldSum
		}
	} else if h.job != r.Job || h.kind != r.Kind || h.numParts != r.NumPartitions || !slices.Equal(h.partOf, r.PartOf) {
		return fmt.Errorf("load for job %s/%s/%d conflicts with hosted %s/%s/%d",
			r.Job, r.Kind, r.NumPartitions, h.job, h.kind, h.numParts)
	}
	for _, pd := range r.Parts {
		n := len(pd.Owned)
		part := &partition{
			owned:   pd.Owned,
			offsets: make([]int32, n+1),
			targets: pd.Targets,
			state:   make([]uint64, n),
			next:    make([]uint64, n),
		}
		for s, deg := range pd.Degrees {
			part.offsets[s+1] = part.offsets[s] + deg
		}
		for s, v := range pd.Owned {
			h.slot[v] = int32(s)
		}
		if h.kind == KindCC {
			part.cand = make([]uint64, n)
		} else {
			part.sum = make([]float64, n)
		}
		h.parts[pd.Part] = part
		h.initPartition(part)
	}
	return nil
}

// initPartition sets superstep-zero state: CC labels each vertex with
// its own dense index, PageRank starts from the uniform distribution.
func (h *workerHost) initPartition(part *partition) {
	part.stepped = false
	rank := math.Float64bits(1 / float64(h.totalN))
	for s, v := range part.owned {
		if h.kind == KindCC {
			part.state[s] = uint64(v)
		} else {
			part.state[s] = rank
		}
	}
}

// partIDs returns the hosted partition IDs in ascending order.
func (h *workerHost) partIDs() []int {
	ids := make([]int, 0, len(h.parts))
	for p := range h.parts {
		ids = append(ids, p)
	}
	sort.Ints(ids)
	return ids
}

// step computes one superstep attempt without applying it: each hosted
// partition's new state goes to its next column, awaiting CommitReq or
// AbortReq. The inbox is folded first; then every hosted partition, in
// ascending order, runs the kernel over its slots and drains its
// combined messages into one run per destination partition.
func (h *workerHost) step(r StepReq) (*StepResp, error) {
	if h.parts == nil {
		return nil, fmt.Errorf("step before load")
	}
	h.abort()
	if err := h.foldInbox(r.Inbox); err != nil {
		return nil, err
	}
	resp := &StepResp{}
	for _, p := range h.partIDs() {
		part := h.parts[p]
		if h.kind == KindCC {
			h.stepCC(part, r.Rescatter, resp)
			resp.Outbox = drainRuns(&h.labels, h, p, func(v uint64) uint64 { return v }, resp.Outbox)
		} else {
			resp.Sums = append(resp.Sums, h.stepPR(part, p, r, resp))
			resp.Outbox = drainRuns(&h.ranks, h, p, math.Float64bits, resp.Outbox)
		}
		part.stepped = true
	}
	resp.Folded = h.kind == KindPageRank && !r.Rescatter
	h.pending, h.pendingStep = true, r.Superstep
	return resp, nil
}

// foldInbox folds the inbox runs into each hosted partition's scratch:
// the least label per slot for CC, the contribution sum for PageRank
// in ascending source-partition order, so every float sum is a function
// of the partitioning alone. A run for a partition not hosted here, out
// of source order, with ragged columns or with a Dst its partition does
// not own fails the step.
func (h *workerHost) foldInbox(inbox []MsgRun) error {
	for _, part := range h.parts {
		part.lastSrc = -1
		for s := range part.cand {
			part.cand[s] = math.MaxUint64
		}
		clear(part.sum)
	}
	for _, run := range inbox {
		part := h.parts[run.Part]
		if part == nil {
			return fmt.Errorf("inbox for partition %d, which is not hosted here", run.Part)
		}
		if run.Src <= part.lastSrc || len(run.Dst) != len(run.Val) {
			return fmt.Errorf("inbox run from partition %d to %d is out of source order or ragged", run.Src, run.Part)
		}
		part.lastSrc = run.Src
		for i, dst := range run.Dst {
			if dst < 0 || int(dst) >= h.totalN || h.partOf[dst] != int32(run.Part) {
				return fmt.Errorf("inbox for vertex %d, which partition %d does not hold", dst, run.Part)
			}
			s := h.slot[dst]
			if part.cand != nil {
				part.cand[s] = min(part.cand[s], run.Val[i])
			} else {
				part.sum[s] += math.Float64frombits(run.Val[i])
			}
		}
	}
	return nil
}

// stepCC runs one Connected Components superstep over a partition:
// optionally rescatter every current label, and lower each label whose
// inbox candidate beats it, propagating the improvement. Integer min is
// idempotent, so replaying a committed attempt is harmless.
func (h *workerHost) stepCC(part *partition, rescatter bool, resp *StepResp) {
	c := &h.labels
	c.Offsets, c.Targets = part.offsets, part.targets
	copy(part.next, part.state)
	for s, label := range part.state {
		if rescatter {
			resp.Messages += c.Add(int32(s), label)
		}
		if cand := part.cand[s]; cand < label {
			part.next[s] = cand
			resp.Updates++
			resp.Messages += c.Add(int32(s), cand)
		}
	}
}

// stepPR runs one PageRank superstep over partition p. A rescatter
// step only re-emits contributions from current ranks (superstep
// zero, compensation); a fold step computes every vertex's new rank
// from its inbox sum plus the dangling share, then scatters it. The
// new rank depends only on the inbox and global constants — not on the
// vertex's own previous rank — so replaying a committed attempt with
// the same inbox is idempotent. Sinks add their rank to the
// partition's dangling mass.
func (h *workerHost) stepPR(part *partition, p int, r StepReq, resp *StepResp) PartSums {
	c := &h.ranks
	c.Offsets, c.Targets = part.offsets, part.targets
	n, d := float64(h.totalN), h.damping
	sums := PartSums{Part: p}
	for s, bits := range part.state {
		rank := math.Float64frombits(bits)
		if !r.Rescatter {
			nv := (1-d)/n + d*(part.sum[s]+r.Dangling/n)
			sums.L1 += math.Abs(nv - rank)
			rank = nv
			resp.Updates++
		}
		part.next[s] = math.Float64bits(rank)
		if deg := part.offsets[s+1] - part.offsets[s]; deg == 0 {
			sums.Dangling += rank
		} else {
			resp.Messages += c.Add(int32(s), rank/float64(deg))
		}
	}
	return sums
}

// drainRuns drains source partition src's combined messages, ascending
// by Dst, into one run per destination partition and appends the runs
// to out in destination order.
func drainRuns[V exec.ColValue](c *exec.Combiner[V], h *workerHost, src int, bits func(V) uint64, out []MsgRun) []MsgRun {
	c.Drain(func(dst int32, val V) bool {
		run := &h.byPart[h.partOf[dst]]
		run.Dst = append(run.Dst, dst)
		run.Val = append(run.Val, bits(val))
		return true
	})
	for p, run := range h.byPart {
		if len(run.Dst) > 0 {
			out = append(out, MsgRun{Part: p, Src: src, Dst: run.Dst, Val: run.Val})
			h.byPart[p] = MsgRun{}
		}
	}
	return out
}

// abort drops the pending attempt.
func (h *workerHost) abort() {
	for _, part := range h.parts {
		part.stepped = false
	}
	h.pending = false
}

// commit applies the pending attempt of the last StepReq.
func (h *workerHost) commit(r CommitReq) error {
	if h.pending && h.pendingStep != r.Superstep {
		return fmt.Errorf("commit for superstep %d, pending is for %d", r.Superstep, h.pendingStep)
	}
	for _, part := range h.parts {
		if part.stepped {
			part.state, part.next = part.next, part.state
		}
	}
	h.abort()
	return nil
}

// fetch copies out committed partition state.
func (h *workerHost) fetch(r FetchReq) (*FetchResp, error) {
	resp := &FetchResp{}
	for _, p := range r.Parts {
		part := h.parts[p]
		if part == nil {
			return nil, fmt.Errorf("fetch of partition %d, which is not hosted here", p)
		}
		resp.Parts = append(resp.Parts, PartState{Part: p, Vals: slices.Clone(part.state)})
	}
	return resp, nil
}

// restore overwrites partition state from a snapshot or migration. It
// checks every fragment before writing any, and a restored partition
// drops its pending attempt.
func (h *workerHost) restore(r RestoreReq) error {
	for _, ps := range r.Parts {
		part := h.parts[ps.Part]
		if part == nil {
			return fmt.Errorf("restore of partition %d, which is not hosted here", ps.Part)
		}
		if ps.First < 0 || ps.First > len(part.state)-len(ps.Vals) {
			return fmt.Errorf("restore of slots %d to %d of partition %d, which has %d",
				ps.First, ps.First+len(ps.Vals), ps.Part, len(part.state))
		}
	}
	for _, ps := range r.Parts {
		part := h.parts[ps.Part]
		copy(part.state[ps.First:], ps.Vals)
		part.stepped = false
	}
	return nil
}

// clear reinitialises the listed hosted partitions.
func (h *workerHost) clear(parts []int) error {
	for _, p := range parts {
		part := h.parts[p]
		if part == nil {
			return fmt.Errorf("clear of partition %d, which is not hosted here", p)
		}
		h.initPartition(part)
	}
	return nil
}
