package proc

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
// membership. The driver keeps the graph's dense CSR rows per
// partition (to re-load partitions onto replacement workers), the
// between-superstep message runs, and the two-phase superstep
// protocol: compute on every worker, then commit everywhere or abort
// everywhere, so an attempt torn by a SIGKILL leaves worker state
// untouched and replayable. Messages are combined at the sender by
// exec's Combiner, per source partition and destination vertex; the
// driver checks each run and relays it unmerged, filed under its
// destination partition by source partition.
//
// Job implements recovery.Job, so every recovery policy works
// unchanged: Compensate is the paper's optimistic path (reinitialised
// lost partitions plus a global rescatter), SnapshotTo/RestoreFrom
// fetch and push the distributed state for checkpoint rollback, and
// ResetToInitial serves the restart baseline.
type Job struct {
	co   *Coordinator
	spec Spec

	d    *graph.Dense
	pt   *graph.Partitioning
	load []PartitionData // per partition, built once

	inbox     [][]MsgRun // per destination partition, ascending Src
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
	d := spec.Graph.Dense()
	j := &Job{
		co:        co,
		spec:      spec,
		d:         d,
		pt:        d.Partitioning(co.NumPartitions()),
		rescatter: true,
		lastL1:    math.MaxFloat64,
	}
	j.inbox = make([][]MsgRun, j.pt.N)
	j.load = make([]PartitionData, j.pt.N)
	for p, owned := range j.pt.Owned {
		pd := PartitionData{Part: p, Owned: owned, Degrees: make([]int32, len(owned))}
		for s, v := range owned {
			pd.Degrees[s] = d.Degree(v)
			pd.Targets = append(pd.Targets, d.Targets[d.Offsets[v]:d.Offsets[v+1]]...)
		}
		j.load[p] = pd
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

// loadPartitions ships the listed partitions' CSR rows (with
// superstep-zero state) to worker w — initial placement and every
// adoption by a replacement or survivor.
func (j *Job) loadPartitions(w int, parts []int) error {
	req := LoadReq{
		Job:           j.spec.Name,
		Kind:          j.spec.Kind,
		NumPartitions: j.pt.N,
		TotalVertices: j.d.NumVertices(),
		Damping:       j.spec.Damping,
		PartOf:        j.pt.PartOf,
	}
	for _, p := range parts {
		req.Parts = append(req.Parts, j.load[p])
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
			req.Inbox = append(req.Inbox, j.inbox[p]...)
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

	// Every run must hold messages its destination partition owns, Dst
	// strictly ascending, from a source partition its worker hosts. A
	// bad run is a worker bug, not a failure recovery can mend, so the
	// attempt aborts everywhere before anything commits.
	workers := make([]int, 0, len(ok))
	for w := range ok {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	inbox := make([][]MsgRun, j.pt.N)
	dangling := make([]float64, j.pt.N)
	l1 := make([]float64, j.pt.N)
	for _, w := range workers {
		if err := j.collect(w, owners[w], ok[w], inbox, dangling, l1); err != nil {
			j.abort(ok)
			return iterate.StepStats{}, fmt.Errorf("proc: superstep %d: %w", ctx.Superstep, err)
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

	// Committed everywhere: the runs become the next superstep's inbox,
	// and the per-partition sums add up in ascending partition order,
	// so neither depends on which worker hosts which partition.
	stats := iterate.StepStats{Extra: map[string]float64{}}
	folded := false
	for _, w := range workers {
		resp := ok[w]
		folded = folded || resp.Folded
		stats.Messages += resp.Messages
		stats.Updates += resp.Updates
	}
	for _, runs := range inbox {
		slices.SortFunc(runs, func(a, b MsgRun) int { return a.Src - b.Src })
	}
	j.inbox = inbox
	j.dangling = 0
	var sumL1 float64
	for p := range dangling {
		j.dangling += dangling[p]
		sumL1 += l1[p]
	}
	j.rescatter = false
	if folded {
		j.lastL1 = sumL1
	}
	stats.Extra["l1"] = j.lastL1
	return stats, nil
}

// collect checks worker w's step response and files it: each run under
// its destination partition, each partition's sums at its index.
func (j *Job) collect(w int, hosted []int, resp StepResp, inbox [][]MsgRun, dangling, l1 []float64) error {
	for _, run := range resp.Outbox {
		if !slices.Contains(hosted, run.Src) {
			return fmt.Errorf("worker %d sent a run from partition %d, which it does not host", w, run.Src)
		}
		if err := j.checkRun(run); err != nil {
			return fmt.Errorf("worker %d sent partition %d's run from partition %d: %v", w, run.Part, run.Src, err)
		}
		for _, prev := range inbox[run.Part] {
			if prev.Src == run.Src {
				return fmt.Errorf("worker %d sent partition %d two runs from partition %d", w, run.Part, run.Src)
			}
		}
		inbox[run.Part] = append(inbox[run.Part], run)
	}
	for _, ps := range resp.Sums {
		if !slices.Contains(hosted, ps.Part) {
			return fmt.Errorf("worker %d reported sums for partition %d, which it does not host", w, ps.Part)
		}
		dangling[ps.Part], l1[ps.Part] = ps.Dangling, ps.L1
	}
	return nil
}

// checkRun is the relay's O(n) check of one run: a destination
// partition that exists, columns of equal length, and Dst strictly
// ascending and owned by that partition.
func (j *Job) checkRun(run MsgRun) error {
	if run.Part < 0 || run.Part >= j.pt.N || len(run.Dst) != len(run.Val) {
		return fmt.Errorf("malformed: %d Dst and %d Val entries for one of %d partitions", len(run.Dst), len(run.Val), j.pt.N)
	}
	for i, dst := range run.Dst {
		if i > 0 && dst <= run.Dst[i-1] {
			return fmt.Errorf("messages out of order at index %d", i)
		}
		if dst < 0 || int(dst) >= len(j.pt.PartOf) || j.pt.PartOf[dst] != int32(run.Part) {
			return fmt.Errorf("a message at index %d for vertex %d, which another partition owns", i, dst)
		}
	}
	return nil
}

// abort drops the pending updates of every worker that computed the
// attempt.
func (j *Job) abort(ok map[int]StepResp) {
	for w := range ok {
		j.co.call(w, AbortReq{})
	}
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
	for _, runs := range j.inbox {
		for _, run := range runs {
			n += len(run.Dst)
		}
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
// state as a raw snapshot blob. Partitions and runs are sorted, so
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
	for _, runs := range j.inbox {
		snap.Inbox = append(snap.Inbox, runs...)
	}
	w.Write(appendSnapshot(nil, snap))
	return nil
}

// RestoreFrom implements recovery.Job: it pushes the snapshot's
// partition state back to the partitions' current owners — over the
// chunked data plane when enabled — and restores the driver-side
// message state. A blob that is not a raw snapshot, or whose runs
// fail the relay's check, is an error.
func (j *Job) RestoreFrom(data []byte) error {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("proc: restore: %v", err)
	}
	inbox := make([][]MsgRun, j.pt.N)
	for _, run := range snap.Inbox {
		if err := j.checkRun(run); err != nil {
			return fmt.Errorf("proc: restore: snapshot run for partition %d from partition %d: %v", run.Part, run.Src, err)
		}
		if runs := inbox[run.Part]; len(runs) > 0 && runs[len(runs)-1].Src >= run.Src {
			return fmt.Errorf("proc: restore: the snapshot's runs for partition %d are out of source order", run.Part)
		}
		inbox[run.Part] = append(inbox[run.Part], run)
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
	j.inbox = inbox
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
	j.inbox = make([][]MsgRun, j.pt.N)
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
	j.inbox = make([][]MsgRun, j.pt.N)
	j.dangling = 0
	j.rescatter = true
	j.lastL1 = math.MaxFloat64
	return nil
}

// fetchVals collects every vertex's committed state value by dense
// vertex index, over the data plane when enabled.
func (j *Job) fetchVals() ([]uint64, error) {
	var parts []PartState
	for w, owned := range j.ownersSnapshot() {
		fetched, err := j.co.fetchState(w, owned)
		if err != nil {
			return nil, fmt.Errorf("proc: fetching results from worker %d: %v", w, err)
		}
		parts = append(parts, fetched...)
	}
	vals := make([]uint64, j.d.NumVertices())
	for _, ps := range parts {
		if ps.Part < 0 || ps.Part >= j.pt.N || ps.First < 0 || ps.First > len(j.pt.Owned[ps.Part])-len(ps.Vals) {
			return nil, fmt.Errorf("proc: fetched slots %d to %d of partition %d, which does not have them",
				ps.First, ps.First+len(ps.Vals), ps.Part)
		}
		for i, v := range ps.Vals {
			vals[j.pt.Owned[ps.Part][ps.First+i]] = v
		}
	}
	return vals, nil
}

// Components returns every vertex's component label (CC jobs). Workers
// label by dense index; the labels map back to vertex IDs here.
func (j *Job) Components() (map[graph.VertexID]graph.VertexID, error) {
	vals, err := j.fetchVals()
	if err != nil {
		return nil, err
	}
	ids := j.d.IDs()
	out := make(map[graph.VertexID]graph.VertexID, len(ids))
	for i, label := range vals {
		if label >= uint64(len(ids)) {
			return nil, fmt.Errorf("proc: vertex %d has label %d, outside the %d vertices", ids[i], label, len(ids))
		}
		out[ids[i]] = ids[label]
	}
	return out, nil
}

// Ranks returns every vertex's rank (PageRank jobs).
func (j *Job) Ranks() (map[graph.VertexID]float64, error) {
	vals, err := j.fetchVals()
	if err != nil {
		return nil, err
	}
	ids := j.d.IDs()
	out := make(map[graph.VertexID]float64, len(ids))
	for i, bits := range vals {
		out[ids[i]] = math.Float64frombits(bits)
	}
	return out, nil
}
