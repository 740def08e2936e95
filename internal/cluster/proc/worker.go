package proc

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"optiflow/internal/graph"
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
// after the Done chunk. An application error (unknown partition or
// vertex) keeps draining the stream so the sender never blocks on a
// full pipe, then answers DataErr. Each chunk read carries a deadline
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

// vertexState is one vertex's adjacency and committed iteration state.
type vertexState struct {
	out   []uint64
	label uint64
	rank  float64
}

// partition holds one hosted state partition. order keeps vertex IDs
// sorted so every scan is deterministic.
type partition struct {
	order []uint64
	verts map[uint64]*vertexState
}

// workerHost is the daemon's state machine: hosted partitions plus the
// pending (computed, uncommitted) updates of the last StepReq. Ctrl
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

	parts       map[int]*partition
	pending     map[int]map[uint64]VertexVal
	pendingStep int
	out         outbox

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
		h.pending = nil
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
		h.pending = nil
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

// load installs (or re-installs) partitions with superstep-zero state.
func (h *workerHost) load(r LoadReq) error {
	if h.parts == nil {
		h.job, h.kind = r.Job, r.Kind
		h.numParts, h.totalN, h.damping = r.NumPartitions, r.TotalVertices, r.Damping
		h.parts = make(map[int]*partition)
	} else if h.job != r.Job || h.kind != r.Kind || h.numParts != r.NumPartitions {
		return fmt.Errorf("load for job %s/%s/%d conflicts with hosted %s/%s/%d",
			r.Job, r.Kind, r.NumPartitions, h.job, h.kind, h.numParts)
	}
	for _, pd := range r.Parts {
		part := &partition{verts: make(map[uint64]*vertexState, len(pd.Vertices))}
		for _, va := range pd.Vertices {
			part.order = append(part.order, va.ID)
			part.verts[va.ID] = &vertexState{out: va.Out}
		}
		sort.Slice(part.order, func(i, j int) bool { return part.order[i] < part.order[j] })
		h.parts[pd.Part] = part
		h.initPartition(part)
	}
	return nil
}

// initPartition sets superstep-zero state: CC labels each vertex with
// its own ID, PageRank starts from the uniform distribution.
func (h *workerHost) initPartition(part *partition) {
	for id, v := range part.verts {
		v.label = id
		v.rank = 1 / float64(h.totalN)
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

// outbox combines outgoing messages at the sender. Messages from one
// source partition are folded per destination vertex — the least
// label for CC, the sum of rank contributions in vertex-scan order for
// PageRank — so the combined messages, and every float sum, depend on
// the partitioning alone, never on which worker hosts which partition.
// Each source partition's result is filed as one Dst-ascending run per
// destination partition; grouped merges the runs of all hosted source
// partitions.
type outbox struct {
	sum     bool
	at      map[uint64]int // Dst -> index in pending
	pending []Msg
	runs    [][][]Msg
}

// reset readies the outbox for one superstep over the hosted
// partitions, dropping whatever a failed attempt left unflushed.
func (o *outbox) reset(h *workerHost) {
	o.sum = h.kind == KindPageRank
	o.runs = make([][][]Msg, h.numParts)
	if o.at == nil {
		o.at = make(map[uint64]int)
	}
	clear(o.at)
	o.pending = o.pending[:0]
}

// add folds one message into the current source partition's set.
func (o *outbox) add(m Msg) {
	i, ok := o.at[m.Dst]
	switch {
	case !ok:
		o.at[m.Dst] = len(o.pending)
		o.pending = append(o.pending, m)
	case o.sum:
		o.pending[i].Rank += m.Rank
	case m.Label < o.pending[i].Label:
		o.pending[i].Label = m.Label
	}
}

// flush ends the current source partition: its combined messages
// become one Dst-ascending run per destination partition.
func (o *outbox) flush() {
	byPart := make([][]Msg, len(o.runs))
	for _, m := range o.pending {
		p := graph.Partition(graph.VertexID(m.Dst), len(o.runs))
		byPart[p] = append(byPart[p], m)
	}
	for p, run := range byPart {
		if len(run) > 0 {
			slices.SortFunc(run, func(a, b Msg) int { return cmp.Compare(a.Dst, b.Dst) })
			o.runs[p] = append(o.runs[p], run)
		}
	}
	clear(o.at)
	o.pending = o.pending[:0]
}

// grouped merges each destination partition's runs, partitions in
// ascending order.
func (o *outbox) grouped() []PartMsgs {
	var out []PartMsgs
	for p, runs := range o.runs {
		if len(runs) > 0 {
			out = append(out, PartMsgs{Part: p, Msgs: mergeRuns(runs...)})
		}
	}
	return out
}

// step computes one superstep attempt without applying it: updates go
// to h.pending, awaiting CommitReq or AbortReq.
func (h *workerHost) step(r StepReq) (*StepResp, error) {
	if h.parts == nil {
		return nil, fmt.Errorf("step before load")
	}
	h.pending = make(map[int]map[uint64]VertexVal)
	h.pendingStep = r.Superstep
	out := &h.out
	out.reset(h)
	resp := &StepResp{}
	var err error
	switch h.kind {
	case KindCC:
		err = h.stepCC(r, out, resp)
	case KindPageRank:
		err = h.stepPR(r, out, resp)
	default:
		err = fmt.Errorf("unknown algorithm kind %q", h.kind)
	}
	if err != nil {
		h.pending = nil
		return nil, err
	}
	resp.Outbox = out.grouped()
	return resp, nil
}

// inboxVertex resolves one inbox message's target vertex, enforcing
// that routing and ownership agree.
func (h *workerHost) inboxVertex(part int, dst uint64) (*vertexState, error) {
	p := h.parts[part]
	if p == nil {
		return nil, fmt.Errorf("inbox for partition %d, which is not hosted here", part)
	}
	v := p.verts[dst]
	if v == nil {
		return nil, fmt.Errorf("inbox for vertex %d, which partition %d does not hold", dst, part)
	}
	return v, nil
}

// stepCC runs one Connected Components superstep: fold candidate
// labels from the inbox (integer min — idempotent, so replaying a
// committed attempt is harmless), optionally rescatter every current
// label, and propagate improvements.
func (h *workerHost) stepCC(r StepReq, out *outbox, resp *StepResp) error {
	cand := make(map[uint64]uint64)
	for _, pm := range r.Inbox {
		for _, m := range pm.Msgs {
			if _, err := h.inboxVertex(pm.Part, m.Dst); err != nil {
				return err
			}
			if cur, ok := cand[m.Dst]; !ok || m.Label < cur {
				cand[m.Dst] = m.Label
			}
		}
	}
	for _, p := range h.partIDs() {
		part := h.parts[p]
		for _, id := range part.order {
			v := part.verts[id]
			if r.Rescatter {
				for _, dst := range v.out {
					out.add(Msg{Dst: dst, Label: v.label})
					resp.Messages++
				}
			}
			if c, ok := cand[id]; ok && c < v.label {
				h.setPending(p, VertexVal{ID: id, Label: c, Rank: v.rank})
				resp.Updates++
				for _, dst := range v.out {
					out.add(Msg{Dst: dst, Label: c})
					resp.Messages++
				}
			}
		}
		out.flush()
	}
	return nil
}

// stepPR runs one PageRank superstep. A rescatter step only re-emits
// contributions from current ranks (superstep zero, compensation); a
// fold step computes every vertex's new rank from the inbox sums plus
// the dangling share, then scatters the new contributions. The new
// rank depends only on the inbox and global constants — not on the
// vertex's own previous rank — so replaying a committed attempt with
// the same inbox is idempotent.
func (h *workerHost) stepPR(r StepReq, out *outbox, resp *StepResp) error {
	n := float64(h.totalN)
	if r.Rescatter {
		for _, p := range h.partIDs() {
			part := h.parts[p]
			for _, id := range part.order {
				v := part.verts[id]
				h.scatterRank(v, v.rank, out, resp)
			}
			out.flush()
		}
		return nil
	}
	sum := make(map[uint64]float64)
	for _, pm := range r.Inbox {
		for _, m := range pm.Msgs {
			if _, err := h.inboxVertex(pm.Part, m.Dst); err != nil {
				return err
			}
			sum[m.Dst] += m.Rank
		}
	}
	d := h.damping
	for _, p := range h.partIDs() {
		part := h.parts[p]
		for _, id := range part.order {
			v := part.verts[id]
			nv := (1-d)/n + d*(sum[id]+r.Dangling/n)
			resp.L1 += math.Abs(nv - v.rank)
			h.setPending(p, VertexVal{ID: id, Label: v.label, Rank: nv})
			resp.Updates++
			h.scatterRank(v, nv, out, resp)
		}
		out.flush()
	}
	resp.Folded = true
	return nil
}

// scatterRank emits rank/outdegree to every out-neighbor, or collects
// the whole rank as dangling mass for sinks.
func (h *workerHost) scatterRank(v *vertexState, rank float64, out *outbox, resp *StepResp) {
	if len(v.out) == 0 {
		resp.Dangling += rank
		return
	}
	share := rank / float64(len(v.out))
	for _, dst := range v.out {
		out.add(Msg{Dst: dst, Rank: share})
		resp.Messages++
	}
}

func (h *workerHost) setPending(part int, val VertexVal) {
	m := h.pending[part]
	if m == nil {
		m = make(map[uint64]VertexVal)
		h.pending[part] = m
	}
	m[val.ID] = val
}

// commit applies the pending updates of the last StepReq.
func (h *workerHost) commit(r CommitReq) error {
	if h.pending != nil && h.pendingStep != r.Superstep {
		return fmt.Errorf("commit for superstep %d, pending is for %d", r.Superstep, h.pendingStep)
	}
	for p, vals := range h.pending {
		part := h.parts[p]
		for id, val := range vals {
			v := part.verts[id]
			v.label, v.rank = val.Label, val.Rank
		}
	}
	h.pending = nil
	return nil
}

// fetch reads committed partition state, vertices in ascending order.
func (h *workerHost) fetch(r FetchReq) (*FetchResp, error) {
	resp := &FetchResp{}
	for _, p := range r.Parts {
		part := h.parts[p]
		if part == nil {
			return nil, fmt.Errorf("fetch of partition %d, which is not hosted here", p)
		}
		ps := PartState{Part: p, Vertices: make([]VertexVal, 0, len(part.order))}
		for _, id := range part.order {
			v := part.verts[id]
			ps.Vertices = append(ps.Vertices, VertexVal{ID: id, Label: v.label, Rank: v.rank})
		}
		resp.Parts = append(resp.Parts, ps)
	}
	return resp, nil
}

// restore overwrites partition state from a snapshot or migration.
func (h *workerHost) restore(r RestoreReq) error {
	for _, ps := range r.Parts {
		part := h.parts[ps.Part]
		if part == nil {
			return fmt.Errorf("restore of partition %d, which is not hosted here", ps.Part)
		}
		for _, val := range ps.Vertices {
			v := part.verts[val.ID]
			if v == nil {
				return fmt.Errorf("restore of vertex %d, which partition %d does not hold", val.ID, ps.Part)
			}
			v.label, v.rank = val.Label, val.Rank
		}
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
