package proc

import (
	"math"
	"math/rand"
	"os"
	oexec "os/exec"
	"slices"
	"sort"
	"strings"
	"testing"

	"optiflow/internal/graph"
	"optiflow/internal/iterate"
)

// TestMergeRunsMatchesSort: merging ascending runs — empty ones, and
// runs sharing a Dst, included — equals sorting their concatenation in
// the canonical (Dst, Label, Rank) order.
func TestMergeRunsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		runs := make([][]Msg, rng.Intn(5))
		var all []Msg
		for i := range runs {
			run := make([]Msg, rng.Intn(12))
			for k := range run {
				run[k] = Msg{Dst: uint64(rng.Intn(8)), Label: uint64(rng.Intn(4)), Rank: float64(rng.Intn(3)) / 4}
			}
			sort.Slice(run, func(a, b int) bool { return msgLess(run[a], run[b]) })
			runs[i] = run
			all = append(all, run...)
		}
		sort.Slice(all, func(a, b int) bool { return msgLess(all[a], all[b]) })
		got := mergeRuns(runs...)
		if len(got) != len(all) || (len(all) > 0 && !slices.Equal(got, all)) {
			t.Fatalf("trial %d: mergeRuns(%v)\n got %v\nwant %v", trial, runs, got, all)
		}
		if i := unsortedAt(got); i >= 0 {
			t.Fatalf("trial %d: merged output steps backwards at %d", trial, i)
		}
	}
}

// TestUnsortedAt pins the order check the driver runs on every run.
func TestUnsortedAt(t *testing.T) {
	for _, tc := range []struct {
		run  []Msg
		want int
	}{
		{nil, -1},
		{[]Msg{{Dst: 3}}, -1},
		{[]Msg{{Dst: 1, Label: 5}, {Dst: 1, Label: 5}, {Dst: 2, Label: 0}}, -1},
		{[]Msg{{Dst: 1, Rank: 0.5}, {Dst: 1, Rank: 0.25}}, 1},
		{[]Msg{{Dst: 1}, {Dst: 4}, {Dst: 2}}, 2},
	} {
		if got := unsortedAt(tc.run); got != tc.want {
			t.Errorf("unsortedAt(%v) = %d, want %d", tc.run, got, tc.want)
		}
	}
}

// relayGraph is an undirected graph large enough that most vertices
// receive messages from several source partitions.
func relayGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(false)
	for v := 0; v < 120; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(120)))
		b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(120)))
	}
	return b.Build()
}

// TestRelayCombinesPerSourcePartition: superstep 0 rescatters every
// label, so StepStats.Messages counts every adjacency entry, as it
// did before combining; the relayed inbox carries exactly one
// combined message per (source partition, Dst) pair, in canonical
// order, and WorksetLen counts those combined messages.
func TestRelayCombinesPerSourcePartition(t *testing.T) {
	g := relayGraph()
	const parts = 6
	co := startTestCluster(t, 3, parts, nil)
	job, err := NewJob(co, Spec{Name: "relay", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	stats, err := job.Step(&iterate.Context{Superstep: 0})
	if err != nil {
		t.Fatalf("Step 0: %v", err)
	}
	entries := 0
	srcParts := make(map[uint64]map[int]bool) // Dst -> source partitions sending to it
	for _, v := range g.Vertices() {
		for _, dst := range g.OutNeighbors(v) {
			entries++
			if srcParts[uint64(dst)] == nil {
				srcParts[uint64(dst)] = make(map[int]bool)
			}
			srcParts[uint64(dst)][graph.Partition(v, parts)] = true
		}
	}
	if stats.Messages != int64(entries) {
		t.Errorf("superstep 0 Messages = %d, want %d adjacency entries", stats.Messages, entries)
	}
	combined := 0
	for p, msgs := range job.inbox {
		if i := unsortedAt(msgs); i >= 0 {
			t.Errorf("partition %d inbox out of canonical order at %d", p, i)
		}
		perDst := make(map[uint64]int)
		for _, m := range msgs {
			if graph.Partition(graph.VertexID(m.Dst), parts) != p {
				t.Errorf("message for %d relayed to partition %d", m.Dst, p)
			}
			perDst[m.Dst]++
		}
		for dst, n := range perDst {
			if want := len(srcParts[dst]); n != want {
				t.Errorf("partition %d holds %d messages for %d, want one per source partition (%d)", p, n, dst, want)
			}
		}
		combined += len(msgs)
	}
	pairs := 0
	for _, ps := range srcParts {
		pairs += len(ps)
	}
	if combined != pairs || pairs >= entries {
		t.Errorf("inbox holds %d messages, want one per (source partition, Dst) pair: %d, fewer than the %d adjacency entries",
			combined, pairs, entries)
	}
	if got := job.WorksetLen(); got != combined {
		t.Errorf("WorksetLen = %d, want the %d combined messages", got, combined)
	}
}

// sinkFreeGraph is a directed graph whose every vertex has an
// out-edge. The dangling mass is summed per worker, so a sink would
// make the last bits of the ranks depend on the placement; the
// message relay must not.
func sinkFreeGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(true)
	const n = 150
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
		for k := 0; k < 3; k++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(n)))
		}
	}
	return b.Build()
}

// TestPageRankBitIdenticalAcrossWorkerCounts: the same partitioning
// hosted on 1, 2 and 3 workers yields bit-identical ranks. Combining
// per source partition keeps every float sum independent of which
// worker hosts which partition; a per-worker combiner would not.
func TestPageRankBitIdenticalAcrossWorkerCounts(t *testing.T) {
	g := sinkFreeGraph()
	var ref map[graph.VertexID]float64
	for _, workers := range []int{1, 2, 3} {
		co := startTestCluster(t, workers, 6, nil)
		job, err := NewJob(co, Spec{Name: "pr-bits", Kind: KindPageRank, Graph: g})
		if err != nil {
			t.Fatalf("%d workers: NewJob: %v", workers, err)
		}
		for s := 0; s < 25; s++ {
			if _, err := job.Step(&iterate.Context{Superstep: s}); err != nil {
				t.Fatalf("%d workers: Step %d: %v", workers, s, err)
			}
		}
		ranks, err := job.Ranks()
		if err != nil {
			t.Fatalf("%d workers: Ranks: %v", workers, err)
		}
		co.Close()
		if ref == nil {
			ref = ranks
			continue
		}
		for v, r := range ref {
			if math.Float64bits(ranks[v]) != math.Float64bits(r) {
				t.Fatalf("%d workers: rank[%d] = %x, 1 worker: %x", workers, v, math.Float64bits(ranks[v]), math.Float64bits(r))
			}
		}
	}
}

// envMisorder makes a spawned test worker a misordering worker (see
// runMisorderingWorker).
const envMisorder = "OPTIFLOW_PROC_TEST_MISORDER"

// runMisorderingWorker serves ctrl RPCs like RunWorker, without a data
// plane, but from superstep 1 on swaps one adjacent pair of distinct
// messages in its outbox, breaking the ascending-run contract.
func runMisorderingWorker() error {
	cfg, err := workerConfigFromEnv()
	if err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	ctrl, err := dialHandshake(cfg, ConnCtrl)
	if err != nil {
		return err
	}
	beat, err := dialHandshake(cfg, ConnBeat)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	defer close(done)
	go pushHeartbeats(beat, cfg, done)
	h := &workerHost{worker: cfg.Worker}
	for {
		id, req, err := readFrame(ctrl, cfg.MaxFrameBytes)
		if err != nil {
			return err
		}
		if _, ok := req.(ShutdownReq); ok {
			return writeFrame(ctrl, id, OKResp{}, cfg.MaxFrameBytes)
		}
		resp := h.dispatch(id, req)
		if sr, ok := resp.(StepResp); ok && req.(StepReq).Superstep >= 1 {
			misorder(sr.Outbox)
		}
		if err := writeFrame(ctrl, id, resp, cfg.MaxFrameBytes); err != nil {
			return err
		}
	}
}

// misorder swaps the first adjacent pair of distinct messages.
func misorder(pms []PartMsgs) {
	for _, pm := range pms {
		for i := 1; i < len(pm.Msgs); i++ {
			if msgLess(pm.Msgs[i-1], pm.Msgs[i]) {
				pm.Msgs[i-1], pm.Msgs[i] = pm.Msgs[i], pm.Msgs[i-1]
				return
			}
		}
	}
}

// TestUnsortedRunAbortsBeforeCommit: a worker whose outbox run is out
// of order fails the step with an error naming it and the partition,
// and no worker commits the attempt.
func TestUnsortedRunAbortsBeforeCommit(t *testing.T) {
	co := startTestCluster(t, 2, 4, func(c *Config) {
		c.DataConns = -1
		c.Spawn = func(id int, env []string) (*oexec.Cmd, error) {
			self, err := os.Executable()
			if err != nil {
				return nil, err
			}
			cmd := oexec.Command(self)
			cmd.Env = env
			if id == 1 {
				cmd.Env = append(cmd.Env, envMisorder+"=1")
			}
			cmd.Stderr = os.Stderr
			return cmd, nil
		}
	})
	g := relayGraph()
	job, err := NewJob(co, Spec{Name: "misorder", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if _, err := job.Step(&iterate.Context{Superstep: 0}); err != nil {
		t.Fatalf("Step 0: %v", err)
	}
	_, err = job.Step(&iterate.Context{Superstep: 1})
	if err == nil || !strings.Contains(err.Error(), "worker 1 sent partition") || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("Step 1 error = %v, want an out-of-order run blamed on worker 1", err)
	}
	labels, err := job.Components()
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	if len(labels) != g.NumVertices() {
		t.Fatalf("fetched %d labels, want %d", len(labels), g.NumVertices())
	}
	for v, l := range labels {
		if v != l {
			t.Fatalf("vertex %d committed label %d: superstep 1 reached a commit", v, l)
		}
	}
}
