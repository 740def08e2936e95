package proc

// dataplane.go is the coordinator half of the chunked state-transfer
// path. Each worker brings a small pool of dedicated data connections
// (Config.DataConns) alongside its ctrl and beat conns; bulk state —
// Release migration, checkpoint SnapshotTo fetches, recovery
// RestoreFrom pushes — streams over them as bounded DataChunk frames
// instead of one monolithic RPC blob. Chunking pipelines the transfer:
// while one chunk is in flight the sender encodes the next and the
// receiver decodes the previous, so serialization, network and
// deserialization overlap; and because each chunk is a bounded frame,
// the netfault layer (and its fault injection) sees the transfer at
// the same frame granularity as everything else.
//
// Failure model: a transfer that breaks mid-stream abandons its
// connection (closed, never reused — the worker's end unblocks and
// redials the slot) and restarts from scratch on another slot within
// the suspicion-grace budget. That is safe because both directions are
// idempotent — fetch is a read, restore overwrites by value — and it
// means within-grace blips cost zero recovery rounds. Only when the
// budget is exhausted does the failure surface as a transport error,
// which condemns the worker and reaches the driver as a recoverable
// WorkerFailure, exactly like a ctrl RPC.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// dataPlane is one worker's pool of data connections on the
// coordinator side. Slots move between three states: down (no usable
// conn — awaiting the worker's redial), idle (in the idle channel) and
// busy (owned by one transfer).
type dataPlane struct {
	mu    sync.Mutex
	conns []net.Conn
	busy  []bool
	idle  chan int
}

func newDataPlane(conns []net.Conn) *dataPlane {
	dp := &dataPlane{
		conns: conns,
		busy:  make([]bool, len(conns)),
		idle:  make(chan int, len(conns)),
	}
	for i := range conns {
		dp.idle <- i
	}
	return dp
}

// take acquires an idle slot, waiting up to d (or until the worker is
// gone) for one to free up or reconnect.
func (dp *dataPlane) take(d time.Duration, gone <-chan struct{}) (int, net.Conn, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case i := <-dp.idle:
			dp.mu.Lock()
			nc := dp.conns[i]
			if nc == nil {
				// Went down between queueing and take; its reconnect will
				// re-queue it.
				dp.mu.Unlock()
				continue
			}
			dp.busy[i] = true
			dp.mu.Unlock()
			return i, nc, nil
		case <-gone:
			return 0, nil, errors.New("proc: worker gone")
		case <-timer.C:
			return 0, nil, errors.New("proc: no data connection available")
		}
	}
}

// release returns a slot after a transfer. A failed transfer's
// connection is closed and the slot marked down until the worker
// redials it; a clean transfer re-queues the slot — unless a reconnect
// already replaced the connection underneath us, in which case the
// replacement was queued by attach and this one is stale.
func (dp *dataPlane) release(i int, nc net.Conn, ok bool) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	dp.busy[i] = false
	if dp.conns[i] != nc {
		// attach swapped in a fresh connection while we were busy and
		// queued the slot; drop our stale handle.
		nc.Close()
		return
	}
	if ok {
		select {
		case dp.idle <- i:
		default:
		}
		return
	}
	nc.Close()
	dp.conns[i] = nil
}

// attach installs a (re)connected data conn on slot i and queues the
// slot unless a transfer currently owns it (release will notice the
// swap).
func (dp *dataPlane) attach(i int, nc net.Conn) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if i < 0 || i >= len(dp.conns) {
		nc.Close()
		return
	}
	if old := dp.conns[i]; old != nil && old != nc {
		old.Close()
	}
	dp.conns[i] = nc
	if !dp.busy[i] {
		select {
		case dp.idle <- i:
		default:
		}
	}
}

// closeAll tears the pool down (condemn, Close).
func (dp *dataPlane) closeAll() {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for i, nc := range dp.conns {
		if nc != nil {
			nc.Close()
			dp.conns[i] = nil
		}
	}
}

// streamSeq allocates data-plane stream IDs.
var streamSeq atomic.Uint64

// dataAppError marks a stream-level rejection the worker answered
// (DataErr): the worker is alive, so the failure must not feed the
// suspicion ladder or be retried.
type dataAppError struct{ msg string }

func (e *dataAppError) Error() string { return e.msg }

// dataEnabled reports whether bulk state moves over the data plane
// (pools exist) rather than over monolithic ctrl RPCs.
func (c *Coordinator) dataEnabled() bool {
	return c.cfg.DataConns > 0
}

// dataTransfer runs fn against the worker's data plane with whole-
// transfer retries inside the suspicion-grace budget, mirroring
// rpcConn.call's ladder semantics: transient breaks retry on a fresh
// slot, an exhausted budget returns a transportError, and a DataErr
// from the worker returns immediately (the worker is alive).
func (c *Coordinator) dataTransfer(p *workerProc, fn func(nc net.Conn) error) error {
	deadline := time.Now().Add(c.cfg.SuspicionGrace)
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.statRetries++
			c.mu.Unlock()
		}
		i, nc, err := p.data.take(time.Until(deadline), p.gone)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return &transportError{err: fmt.Errorf("proc: data transfer: %v (last: %v)", err, lastErr)}
		}
		err = fn(nc)
		if err == nil {
			p.data.release(i, nc, true)
			return nil
		}
		p.data.release(i, nc, false)
		var ae *dataAppError
		if errors.As(err, &ae) {
			return errors.New("proc: " + ae.msg)
		}
		lastErr = err
		if time.Now().After(deadline) {
			return &transportError{err: fmt.Errorf("proc: data transfer retries exhausted after %v: %w", c.cfg.SuspicionGrace, err)}
		}
		select {
		case <-time.After(backoff):
		case <-p.gone:
			return &transportError{err: fmt.Errorf("proc: worker gone: %w", err)}
		}
		if backoff < 8*c.cfg.RetryBackoff {
			backoff *= 2
		}
	}
}

// dataFetch streams the listed partitions' committed state off worker
// p over its data plane.
func (c *Coordinator) dataFetch(p *workerProc, parts []int) ([]PartState, error) {
	var out []PartState
	err := c.dataTransfer(p, func(nc net.Conn) error {
		out = out[:0]
		stream := streamSeq.Add(1)
		seq := uint32(0)
		nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		req := DataFetchReq{Stream: stream, ChunkVerts: c.cfg.ChunkVertices, Parts: parts}
		if err := writeFrame(nc, 0, req, c.cfg.MaxFrameBytes); err != nil {
			return err
		}
		for {
			nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
			_, m, err := readFrame(nc, c.cfg.MaxFrameBytes)
			if err != nil {
				return err
			}
			switch ch := m.(type) {
			case DataChunk:
				if ch.Stream != stream {
					// A frame from an abandoned stream on a reused conn
					// would be a pool bug; treat as fatal for this conn.
					return fmt.Errorf("proc: data fetch: stream %d frame on stream %d", ch.Stream, stream)
				}
				if ch.Seq != seq {
					// A dropped frame mid-stream (fault injection, lossy
					// link) leaves a sequence gap: abandon the connection
					// and retry the whole idempotent transfer rather than
					// silently reassembling partial state.
					return fmt.Errorf("proc: data fetch: chunk seq %d, want %d", ch.Seq, seq)
				}
				seq++
				out = appendFragments(out, ch.Parts)
				if ch.Done {
					nc.SetDeadline(time.Time{})
					return nil
				}
			case DataErr:
				return &dataAppError{msg: ch.Msg}
			default:
				return fmt.Errorf("proc: data fetch: unexpected %T", m)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendFragments merges a chunk's fragments into the accumulated
// state. The worker streams partitions in order, splitting large ones
// across consecutive chunks, so a fragment either continues the last
// partition where it stopped or starts the next.
func appendFragments(acc []PartState, frags []PartState) []PartState {
	for _, f := range frags {
		if n := len(acc); n > 0 && acc[n-1].Part == f.Part && acc[n-1].First+len(acc[n-1].Vals) == f.First {
			acc[n-1].Vals = append(acc[n-1].Vals, f.Vals...)
			continue
		}
		acc = append(acc, f)
	}
	return acc
}

// dataRestore streams partition state onto worker p over its data
// plane. Chunks are written back-to-back — the connection pipelines
// them while the worker applies each as it arrives — and the worker
// acks once after the Done chunk.
func (c *Coordinator) dataRestore(p *workerProc, parts []PartState) error {
	return c.dataTransfer(p, func(nc net.Conn) error {
		stream := streamSeq.Add(1)
		nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		if err := writeFrame(nc, 0, DataRestoreReq{Stream: stream}, c.cfg.MaxFrameBytes); err != nil {
			return err
		}
		seq := uint32(0)
		err := chunkStates(parts, c.cfg.ChunkVertices, func(frag []PartState, done bool) error {
			nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
			ch := DataChunk{Stream: stream, Seq: seq, Done: done, Parts: frag}
			seq++
			return writeFrame(nc, 0, ch, c.cfg.MaxFrameBytes)
		})
		if err != nil {
			return err
		}
		nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		_, m, err := readFrame(nc, c.cfg.MaxFrameBytes)
		if err != nil {
			return err
		}
		nc.SetDeadline(time.Time{})
		switch a := m.(type) {
		case DataAck:
			if a.Stream != stream {
				return fmt.Errorf("proc: data restore: ack for stream %d, want %d", a.Stream, stream)
			}
			return nil
		case DataErr:
			return &dataAppError{msg: a.Msg}
		default:
			return fmt.Errorf("proc: data restore: unexpected %T", m)
		}
	})
}

// chunkStates cuts partition states into fragments of at most
// maxVerts slots (at least one slot per fragment makes progress even
// with a silly budget) and feeds them to emit; the final call has
// done=true. An empty input still emits one empty Done chunk, so every
// stream terminates explicitly.
func chunkStates(parts []PartState, maxVerts int, emit func(frag []PartState, done bool) error) error {
	if maxVerts < 1 {
		maxVerts = 1
	}
	var frag []PartState
	budget := maxVerts
	flush := func(done bool) error {
		err := emit(frag, done)
		frag = frag[:0]
		budget = maxVerts
		return err
	}
	for _, ps := range parts {
		if len(ps.Vals) == 0 {
			frag = append(frag, ps)
		}
		for off := 0; off < len(ps.Vals); {
			take := min(len(ps.Vals)-off, budget)
			frag = append(frag, PartState{Part: ps.Part, First: ps.First + off, Vals: ps.Vals[off : off+take]})
			off += take
			if budget -= take; budget == 0 {
				if err := flush(false); err != nil {
					return err
				}
			}
		}
	}
	return flush(true)
}

// fetchState reads the committed state of parts from worker w — over
// the data plane when enabled, else the legacy monolithic ctrl RPC. A
// transport failure condemns the worker, like any exhausted ctrl RPC.
func (c *Coordinator) fetchState(w int, parts []int) ([]PartState, error) {
	c.mu.Lock()
	p := c.procs[w]
	c.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("proc: no process for worker %d", w)
	}
	if c.dataEnabled() && p.data != nil {
		out, err := c.dataFetch(p, parts)
		if err != nil && isTransportError(err) {
			c.condemn(w, fmt.Sprintf("data fetch failed: %v", err))
		}
		return out, err
	}
	resp, err := c.call(w, FetchReq{Parts: parts})
	if err != nil {
		return nil, err
	}
	return resp.(FetchResp).Parts, nil
}

// restoreState overwrites partition state on worker w — data plane
// when enabled, ctrl RPC otherwise.
func (c *Coordinator) restoreState(w int, parts []PartState) error {
	c.mu.Lock()
	p := c.procs[w]
	c.mu.Unlock()
	if p == nil {
		return fmt.Errorf("proc: no process for worker %d", w)
	}
	if c.dataEnabled() && p.data != nil {
		err := c.dataRestore(p, parts)
		if err != nil && isTransportError(err) {
			c.condemn(w, fmt.Sprintf("data restore failed: %v", err))
		}
		return err
	}
	_, err := c.call(w, RestoreReq{Parts: parts})
	return err
}
