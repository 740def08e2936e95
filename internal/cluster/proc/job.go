package proc

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"optiflow/internal/clock"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

var _ recovery.Job = (*Job)(nil)

// Spec describes one worker-hosted iterative job.
type Spec struct {
	// Name identifies the job (checkpoint keys, diagnostics).
	Name string
	// Kind is the algorithm: KindCC or KindPageRank.
	Kind string
	// Graph is the input graph.
	Graph *graph.Graph
	// Damping is PageRank's damping factor (0.85 if zero).
	Damping float64
}

// Job runs an iterative algorithm with its state hosted ON the worker
// processes — unlike the in-process jobs (cc.CC, pagerank.PR), whose
// state lives in the driver and which use the cluster only for
// membership. The driver keeps the partition adjacency (to re-load
// partitions onto replacement workers), the between-superstep message
// state, and the two-phase superstep protocol: compute on every
// worker, then commit everywhere or abort everywhere, so an attempt
// torn by a SIGKILL leaves worker state untouched and replayable.
// Messages are combined at the sender: each worker folds them per
// source partition and destination vertex and sends ascending runs,
// which the driver merges into each partition's inbox in canonical
// (Dst, Label, Rank) order.
//
// Job implements recovery.Job, so every recovery policy works
// unchanged: Compensate is the paper's optimistic path (reinitialised
// lost partitions plus a global rescatter), SnapshotTo/RestoreFrom
// fetch and push the distributed state for checkpoint rollback, and
// ResetToInitial serves the restart baseline.
type Job struct {
	co   *Coordinator
	spec Spec

	numParts int
	totalN   int
	adj      map[int][]VertexAdj

	inbox     map[int][]Msg
	dangling  float64
	rescatter bool
	lastL1    float64
}

// NewJob partitions the graph, registers the partition-loading hook on
// the coordinator and loads every worker's partitions.
func NewJob(co *Coordinator, spec Spec) (*Job, error) {
	if spec.Kind != KindCC && spec.Kind != KindPageRank {
		return nil, fmt.Errorf("proc: unknown job kind %q", spec.Kind)
	}
	if spec.Damping == 0 {
		spec.Damping = 0.85
	}
	j := &Job{
		co:        co,
		spec:      spec,
		numParts:  co.NumPartitions(),
		totalN:    spec.Graph.NumVertices(),
		adj:       make(map[int][]VertexAdj),
		inbox:     make(map[int][]Msg),
		rescatter: true,
		lastL1:    math.MaxFloat64,
	}
	for _, v := range spec.Graph.Vertices() {
		p := graph.Partition(v, j.numParts)
		out := spec.Graph.OutNeighbors(v)
		va := VertexAdj{ID: uint64(v), Out: make([]uint64, len(out))}
		for i, dst := range out {
			va.Out[i] = uint64(dst)
		}
		j.adj[p] = append(j.adj[p], va)
	}
	co.setAssignHook(j.loadPartitions)
	for _, w := range co.Workers() {
		parts := co.PartitionsOf(w)
		if len(parts) == 0 {
			continue
		}
		if err := j.loadPartitions(w, parts); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// loadPartitions ships the listed partitions' adjacency (with
// superstep-zero state) to worker w — initial placement and every
// adoption by a replacement or survivor.
func (j *Job) loadPartitions(w int, parts []int) error {
	req := LoadReq{
		Job:           j.spec.Name,
		Kind:          j.spec.Kind,
		NumPartitions: j.numParts,
		TotalVertices: j.totalN,
		Damping:       j.spec.Damping,
	}
	for _, p := range parts {
		req.Parts = append(req.Parts, PartitionData{Part: p, Vertices: j.adj[p]})
	}
	if _, err := j.co.call(w, req); err != nil {
		return fmt.Errorf("proc: loading partitions %v onto worker %d: %v", parts, w, err)
	}
	return nil
}

// ownersSnapshot groups the current partition assignment by owner.
func (j *Job) ownersSnapshot() map[int][]int {
	owners := make(map[int][]int)
	for _, w := range j.co.Workers() {
		if parts := j.co.PartitionsOf(w); len(parts) > 0 {
			owners[w] = parts
		}
	}
	return owners
}

type stepResult struct {
	worker int
	resp   StepResp
	err    error
}

// Step executes one superstep attempt across the worker processes: a
// parallel compute phase (during which a scheduled mid-superstep fault
// SIGKILLs its victims for real), then commit everywhere on success or
// abort everywhere on failure. A failed attempt returns a typed
// *exec.WorkerFailure naming the dead workers, exactly like the
// in-process engine, so iterate.Loop's recovery path is unchanged.
func (j *Job) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	owners := j.ownersSnapshot()
	results := make(chan stepResult, len(owners))
	for w, parts := range owners {
		req := StepReq{Superstep: ctx.Superstep, Rescatter: j.rescatter, Dangling: j.dangling}
		for _, p := range parts {
			if msgs := j.inbox[p]; len(msgs) > 0 {
				req.Inbox = append(req.Inbox, PartMsgs{Part: p, Msgs: msgs})
			}
		}
		go func(w int, req StepReq) {
			resp, err := j.co.call(w, req)
			if err != nil {
				results <- stepResult{worker: w, err: err}
				return
			}
			results <- stepResult{worker: w, resp: resp.(StepResp)}
		}(w, req)
	}

	// The mid-superstep fault: SIGKILL the victims while their compute
	// RPCs are in flight. If a victim's plan outruns the kill, its
	// commit RPC fails instead — either way the process is dead and the
	// attempt aborts.
	if ctx.Fault != nil {
		for _, w := range ctx.Fault.Workers {
			j.co.Kill(w)
		}
	}

	// Collect, with a straggler watchdog: once a majority of workers
	// has answered, the rest get a deadline relative to the majority's
	// elapsed time. A worker that blows it — partitioned inbound so it
	// computes forever unaware, or just wedged — is condemned, which
	// closes its connections and aborts its in-flight call, so the
	// attempt fails over to the normal recovery path instead of
	// stalling the whole job at the barrier.
	var failed []int
	ok := make(map[int]StepResp, len(owners))
	pending := len(owners)
	start := clock.Now()
	var straggle <-chan time.Time
	var watchdog *time.Timer
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if r.err != nil {
				failed = append(failed, r.worker)
			} else {
				ok[r.worker] = r.resp
			}
			if straggle == nil && j.co.cfg.StragglerFactor > 0 && pending > 0 &&
				(len(ok)+len(failed))*2 >= len(owners) {
				d := time.Duration(float64(clock.Since(start)) * j.co.cfg.StragglerFactor)
				if d < j.co.cfg.StragglerMin {
					d = j.co.cfg.StragglerMin
				}
				watchdog = time.NewTimer(d)
				straggle = watchdog.C
			}
		case <-straggle:
			straggle = nil
			for w := range owners {
				if _, done := ok[w]; done {
					continue
				}
				if !answered(failed, w) {
					j.co.condemn(w, fmt.Sprintf("straggling superstep %d beyond the majority deadline", ctx.Superstep))
				}
			}
		}
	}
	if watchdog != nil {
		watchdog.Stop()
	}
	if len(failed) > 0 {
		// Abort survivors: pending updates are dropped, committed state
		// and the driver-side inbox stay as they were, so the attempt
		// can be replayed after recovery.
		j.abort(ok)
		return iterate.StepStats{}, j.workerFailure(failed, owners)
	}

	// Each worker sends one run per destination partition, ascending
	// by (Dst, Label, Rank); merging the runs yields the canonical
	// inbox order the PageRank float fold depends on. A run out of
	// order is a worker bug, not a failure recovery can mend, so the
	// attempt aborts everywhere before anything commits.
	workers := make([]int, 0, len(ok))
	for w := range ok {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	runs := make(map[int][][]Msg)
	for _, w := range workers {
		for _, pm := range ok[w].Outbox {
			if i := unsortedAt(pm.Msgs); i >= 0 {
				j.abort(ok)
				return iterate.StepStats{}, fmt.Errorf("proc: superstep %d: worker %d sent partition %d's messages out of order at index %d",
					ctx.Superstep, w, pm.Part, i)
			}
			runs[pm.Part] = append(runs[pm.Part], pm.Msgs)
		}
	}

	var commitFailed []int
	for w := range ok {
		if _, err := j.co.call(w, CommitReq{Superstep: ctx.Superstep}); err != nil {
			commitFailed = append(commitFailed, w)
		}
	}
	if len(commitFailed) > 0 {
		// A partial commit is safe to abandon: both algorithms' folds
		// are idempotent (CC: integer min; PR: ranks derived from the
		// inbox, not the previous rank), and the dead workers' state is
		// about to be cleared and recovered anyway.
		return iterate.StepStats{}, j.workerFailure(commitFailed, owners)
	}

	// Committed everywhere: the merged runs become the next
	// superstep's inbox.
	stats := iterate.StepStats{Extra: map[string]float64{}}
	newInbox := make(map[int][]Msg, len(runs))
	for p, rs := range runs {
		newInbox[p] = mergeRuns(rs...)
	}
	var dangling, l1 float64
	folded := false
	for _, w := range workers {
		resp := ok[w]
		dangling += resp.Dangling
		l1 += resp.L1
		folded = folded || resp.Folded
		stats.Messages += resp.Messages
		stats.Updates += resp.Updates
	}
	j.inbox = newInbox
	j.dangling = dangling
	j.rescatter = false
	if folded {
		j.lastL1 = l1
	}
	stats.Extra["l1"] = j.lastL1
	return stats, nil
}

// abort drops the pending updates of every worker that computed the
// attempt.
func (j *Job) abort(ok map[int]StepResp) {
	for w := range ok {
		j.co.call(w, AbortReq{})
	}
}

// msgLess is the canonical message order: by Dst, then Label, then
// Rank.
func msgLess(a, b Msg) bool {
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	return a.Rank < b.Rank
}

// unsortedAt returns the first index at which run steps backwards in
// msgLess order, or -1 if run is ascending.
func unsortedAt(run []Msg) int {
	for i := 1; i < len(run); i++ {
		if msgLess(run[i], run[i-1]) {
			return i
		}
	}
	return -1
}

// mergeRuns merges runs, each ascending in msgLess order, into one
// ascending slice; ties go to the earlier run. The result aliases the
// only non-empty run if there is one. Runs are few — one per worker
// on the driver, one per hosted partition on a worker — so a linear
// scan of the heads beats a heap.
func mergeRuns(runs ...[]Msg) []Msg {
	rest := make([][]Msg, 0, len(runs))
	n := 0
	for _, r := range runs {
		if len(r) > 0 {
			rest = append(rest, r)
			n += len(r)
		}
	}
	if len(rest) == 1 {
		return rest[0]
	}
	out := make([]Msg, 0, n)
	for len(rest) > 1 {
		best := 0
		for i := 1; i < len(rest); i++ {
			if msgLess(rest[i][0], rest[best][0]) {
				best = i
			}
		}
		out = append(out, rest[best][0])
		if rest[best] = rest[best][1:]; len(rest[best]) == 0 {
			rest = append(rest[:best], rest[best+1:]...)
		}
	}
	if len(rest) == 1 {
		out = append(out, rest[0]...)
	}
	return out
}

// answered reports whether w already delivered a (failed) result.
func answered(failed []int, w int) bool {
	for _, f := range failed {
		if f == w {
			return true
		}
	}
	return false
}

// workerFailure builds the typed mid-superstep failure error.
func (j *Job) workerFailure(workers []int, owners map[int][]int) error {
	sort.Ints(workers)
	var parts []int
	for _, w := range workers {
		parts = append(parts, owners[w]...)
	}
	sort.Ints(parts)
	return &exec.WorkerFailure{Workers: workers, Partitions: parts}
}

// WorksetLen reports pending work for delta-iteration termination:
// the combined messages awaiting a fold (at most one per source
// partition and destination vertex), plus one if a (re)scatter is
// due.
func (j *Job) WorksetLen() int {
	n := 0
	for _, msgs := range j.inbox {
		n += len(msgs)
	}
	if j.rescatter {
		n++
	}
	return n
}

// LastL1 returns the last folded superstep's L1 rank delta
// (math.MaxFloat64 until the first fold).
func (j *Job) LastL1() float64 { return j.lastL1 }

// Name implements recovery.Job.
func (j *Job) Name() string { return j.spec.Name }

// SnapshotTo implements recovery.Job: it fetches every partition's
// committed state from its owner — over the chunked data plane when
// enabled — and serialises it together with the driver-side message
// state as a raw snapshot blob. Partitions and messages are sorted, so
// equal distributed states snapshot to equal bytes.
func (j *Job) SnapshotTo(w *bytes.Buffer) error {
	snap := JobSnapshot{
		Kind:      j.spec.Kind,
		Dangling:  j.dangling,
		Rescatter: j.rescatter,
	}
	for wk, parts := range j.ownersSnapshot() {
		fetched, err := j.co.fetchState(wk, parts)
		if err != nil {
			if isTransportError(err) {
				// The owner died (or was condemned) under the snapshot:
				// surface it as a typed worker failure so the iteration
				// loop enters recovery instead of aborting the run.
				return fmt.Errorf("proc: snapshot: fetching from worker %d: %w",
					wk, &exec.WorkerFailure{Workers: []int{wk}, Partitions: parts})
			}
			return fmt.Errorf("proc: snapshot: fetching from worker %d: %v", wk, err)
		}
		snap.Parts = append(snap.Parts, fetched...)
	}
	sort.Slice(snap.Parts, func(a, b int) bool { return snap.Parts[a].Part < snap.Parts[b].Part })
	partIDs := make([]int, 0, len(j.inbox))
	for p := range j.inbox {
		partIDs = append(partIDs, p)
	}
	sort.Ints(partIDs)
	for _, p := range partIDs {
		if len(j.inbox[p]) > 0 {
			snap.Inbox = append(snap.Inbox, PartMsgs{Part: p, Msgs: j.inbox[p]})
		}
	}
	w.Write(appendSnapshot(nil, snap))
	return nil
}

// RestoreFrom implements recovery.Job: it pushes the snapshot's
// partition state back to the partitions' current owners — over the
// chunked data plane when enabled — and restores the driver-side
// message state. A blob that is not a raw snapshot is an error.
func (j *Job) RestoreFrom(data []byte) error {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("proc: restore: %v", err)
	}
	byPart := make(map[int]PartState, len(snap.Parts))
	for _, ps := range snap.Parts {
		byPart[ps.Part] = ps
	}
	for w, parts := range j.ownersSnapshot() {
		var push []PartState
		for _, p := range parts {
			if ps, ok := byPart[p]; ok {
				push = append(push, ps)
			}
		}
		if len(push) == 0 {
			continue
		}
		if err := j.co.restoreState(w, push); err != nil {
			return fmt.Errorf("proc: restore: pushing to worker %d: %v", w, err)
		}
	}
	j.inbox = make(map[int][]Msg)
	for _, pm := range snap.Inbox {
		j.inbox[pm.Part] = pm.Msgs
	}
	j.dangling = snap.Dangling
	j.rescatter = snap.Rescatter
	j.lastL1 = math.MaxFloat64
	return nil
}

// ClearPartitions implements recovery.Job: the listed partitions are
// reinitialised on their current owners (the replacement workers the
// cluster just assigned them to). RPC errors are swallowed — a worker
// dying during recovery is detected and folded into the recovery by
// the supervisor, not here.
func (j *Job) ClearPartitions(parts []int) {
	byOwner := make(map[int][]int)
	for _, p := range parts {
		w := j.co.Owner(p)
		byOwner[w] = append(byOwner[w], p)
	}
	for w, ps := range byOwner {
		j.co.call(w, ClearReq{Parts: ps})
	}
}

// Compensate implements recovery.Job — the optimistic compensation
// function. The lost partitions were already reinitialised by
// ClearPartitions; dropping the in-flight messages and scheduling a
// global rescatter transitions the whole computation to a consistent
// state from which the fixpoint iteration re-converges (CC: every
// vertex re-announces its label; PR: contributions are re-emitted from
// current ranks and the rank mass contracts back to one).
func (j *Job) Compensate([]int) error {
	j.inbox = make(map[int][]Msg)
	j.dangling = 0
	j.rescatter = true
	j.lastL1 = math.MaxFloat64
	return nil
}

// ResetToInitial implements recovery.Job (the restart baseline).
func (j *Job) ResetToInitial() error {
	for w := range j.ownersSnapshot() {
		if _, err := j.co.call(w, ResetReq{}); err != nil {
			return fmt.Errorf("proc: reset: worker %d: %v", w, err)
		}
	}
	j.inbox = make(map[int][]Msg)
	j.dangling = 0
	j.rescatter = true
	j.lastL1 = math.MaxFloat64
	return nil
}

// fetchAll collects every partition's committed state, over the data
// plane when enabled.
func (j *Job) fetchAll() ([]PartState, error) {
	var out []PartState
	for w, parts := range j.ownersSnapshot() {
		fetched, err := j.co.fetchState(w, parts)
		if err != nil {
			return nil, fmt.Errorf("proc: fetching results from worker %d: %v", w, err)
		}
		out = append(out, fetched...)
	}
	return out, nil
}

// Components returns every vertex's component label (CC jobs).
func (j *Job) Components() (map[graph.VertexID]graph.VertexID, error) {
	parts, err := j.fetchAll()
	if err != nil {
		return nil, err
	}
	out := make(map[graph.VertexID]graph.VertexID, j.totalN)
	for _, ps := range parts {
		for _, v := range ps.Vertices {
			out[graph.VertexID(v.ID)] = graph.VertexID(v.Label)
		}
	}
	return out, nil
}

// Ranks returns every vertex's rank (PageRank jobs).
func (j *Job) Ranks() (map[graph.VertexID]float64, error) {
	parts, err := j.fetchAll()
	if err != nil {
		return nil, err
	}
	out := make(map[graph.VertexID]float64, j.totalN)
	for _, ps := range parts {
		for _, v := range ps.Vertices {
			out[graph.VertexID(v.ID)] = v.Rank
		}
	}
	return out, nil
}
