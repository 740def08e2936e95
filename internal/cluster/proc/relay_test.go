package proc

import (
	"math"
	"math/rand"
	"os"
	oexec "os/exec"
	"strings"
	"testing"

	"optiflow/internal/graph"
	"optiflow/internal/iterate"
)

// TestCheckRun pins the relay's check on every run: Dst strictly
// ascending, every Dst owned by the run's partition, columns of equal
// length and a partition that exists.
func TestCheckRun(t *testing.T) {
	g := relayGraph()
	const parts = 4
	pt := g.Dense().Partitioning(parts)
	j := &Job{pt: pt}
	own := pt.Owned[1]
	foreign := pt.Owned[2][0]
	for _, tc := range []struct {
		run  MsgRun
		want string
	}{
		{MsgRun{Part: 1}, ""},
		{MsgRun{Part: 1, Dst: own[:3], Val: []uint64{5, 5, 0}}, ""},
		{MsgRun{Part: 1, Dst: []int32{own[0], own[2], own[1]}, Val: make([]uint64, 3)}, "out of order at index 2"},
		{MsgRun{Part: 1, Dst: []int32{own[0], own[0]}, Val: make([]uint64, 2)}, "out of order at index 1"},
		{MsgRun{Part: 1, Dst: []int32{foreign}, Val: make([]uint64, 1)}, "another partition owns"},
		{MsgRun{Part: 1, Dst: []int32{int32(g.NumVertices())}, Val: make([]uint64, 1)}, "another partition owns"},
		{MsgRun{Part: 1, Dst: own[:2], Val: make([]uint64, 1)}, "malformed"},
		{MsgRun{Part: parts}, "malformed"},
	} {
		err := j.checkRun(tc.run)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("checkRun(%+v) = %v, want %q", tc.run, err, tc.want)
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
// combined message per (source partition, Dst) pair, each run tagged
// with its true source partition, and WorksetLen counts those combined
// messages.
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
	srcParts := make(map[graph.VertexID]map[int]bool) // Dst -> source partitions sending to it
	for _, v := range g.Vertices() {
		for _, dst := range g.OutNeighbors(v) {
			entries++
			if srcParts[dst] == nil {
				srcParts[dst] = make(map[int]bool)
			}
			srcParts[dst][graph.Partition(v, parts)] = true
		}
	}
	if stats.Messages != int64(entries) {
		t.Errorf("superstep 0 Messages = %d, want %d adjacency entries", stats.Messages, entries)
	}
	ids := g.Dense().IDs()
	combined := 0
	for p, runs := range job.inbox {
		perDst := make(map[graph.VertexID]int)
		for i, run := range runs {
			if run.Part != p || (i > 0 && run.Src <= runs[i-1].Src) {
				t.Errorf("partition %d inbox run %d is for partition %d from %d, out of place", p, i, run.Part, run.Src)
			}
			if err := job.checkRun(run); err != nil {
				t.Errorf("partition %d inbox run from %d: %v", p, run.Src, err)
			}
			for _, d := range run.Dst {
				dst := ids[d]
				if !srcParts[dst][run.Src] {
					t.Errorf("run from partition %d carries a message for %d, which it sends nothing", run.Src, dst)
				}
				perDst[dst]++
			}
			combined += len(run.Dst)
		}
		for dst, n := range perDst {
			if want := len(srcParts[dst]); n != want {
				t.Errorf("partition %d holds %d messages for %d, want one per source partition (%d)", p, n, dst, want)
			}
		}
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
// out-edge.
func sinkFreeGraph() *graph.Graph {
	return prBitsGraph(0)
}

// sinkGraph is the same kind of graph with every 7th vertex a sink, so
// the dangling mass is non-zero every superstep.
func sinkGraph() *graph.Graph {
	return prBitsGraph(7)
}

// prBitsGraph builds a 150-vertex directed graph; every sinkEvery-th
// vertex has no out-edges (none if sinkEvery is 0).
func prBitsGraph(sinkEvery int) *graph.Graph {
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(true)
	const n = 150
	for v := 0; v < n; v++ {
		if sinkEvery > 0 && v%sinkEvery == 0 {
			b.AddVertex(graph.VertexID(v))
			continue
		}
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
		for k := 0; k < 3; k++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(n)))
		}
	}
	return b.Build()
}

// TestPageRankBitIdenticalAcrossWorkerCounts: the same partitioning
// hosted on 1, 2 and 3 workers yields bit-identical ranks, with and
// without sinks. Combining per source partition, folding each inbox in
// source-partition order and summing the dangling mass and L1 per
// source partition keep every float sum independent of which worker
// hosts which partition.
func TestPageRankBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"sink-free": sinkFreeGraph(), "sinks": sinkGraph()} {
		var ref map[graph.VertexID]float64
		for _, workers := range []int{1, 2, 3} {
			co := startTestCluster(t, workers, 6, nil)
			job, err := NewJob(co, Spec{Name: "pr-bits", Kind: KindPageRank, Graph: g})
			if err != nil {
				t.Fatalf("%s, %d workers: NewJob: %v", name, workers, err)
			}
			for s := 0; s < 25; s++ {
				if _, err := job.Step(&iterate.Context{Superstep: s}); err != nil {
					t.Fatalf("%s, %d workers: Step %d: %v", name, workers, s, err)
				}
			}
			ranks, err := job.Ranks()
			if err != nil {
				t.Fatalf("%s, %d workers: Ranks: %v", name, workers, err)
			}
			co.Close()
			if ref == nil {
				ref = ranks
				continue
			}
			for v, r := range ref {
				if math.Float64bits(ranks[v]) != math.Float64bits(r) {
					t.Fatalf("%s, %d workers: rank[%d] = %x, 1 worker: %x", name, workers, v, math.Float64bits(ranks[v]), math.Float64bits(r))
				}
			}
		}
	}
}

// envMisbehave makes a spawned test worker break the run contract
// from superstep 1 on (see runMisbehavingWorker): "swap" swaps two Dst
// values of a run, "foreign" sends a Dst another partition owns.
const envMisbehave = "OPTIFLOW_PROC_TEST_MISBEHAVE"

// runMisbehavingWorker serves ctrl RPCs like RunWorker, without a data
// plane, but from superstep 1 on corrupts one run of its outbox as
// mode says.
func runMisbehavingWorker(mode string) error {
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
			misbehave(mode, sr.Outbox, h.partOf)
		}
		if err := writeFrame(ctrl, id, resp, cfg.MaxFrameBytes); err != nil {
			return err
		}
	}
}

// misbehave corrupts the first run it can: "swap" swaps its first two
// Dst values, "foreign" lowers its first Dst to a vertex of another
// partition, keeping the run ascending.
func misbehave(mode string, runs []MsgRun, partOf []int32) {
	for _, run := range runs {
		switch {
		case mode == "swap" && len(run.Dst) >= 2:
			run.Dst[0], run.Dst[1] = run.Dst[1], run.Dst[0]
			return
		case mode == "foreign":
			for d := run.Dst[0] - 1; d >= 0; d-- {
				if partOf[d] != int32(run.Part) {
					run.Dst[0] = d
					return
				}
			}
		}
	}
}

// TestUnsortedRunAbortsBeforeCommit: a worker whose outbox run is out
// of order, or carries a message for a vertex another partition owns,
// fails the step with an error naming it and the partition, and no
// worker commits the attempt.
func TestUnsortedRunAbortsBeforeCommit(t *testing.T) {
	for mode, want := range map[string]string{"swap": "out of order", "foreign": "another partition owns"} {
		t.Run(mode, func(t *testing.T) {
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
						cmd.Env = append(cmd.Env, envMisbehave+"="+mode)
					}
					cmd.Stderr = os.Stderr
					return cmd, nil
				}
			})
			g := relayGraph()
			job, err := NewJob(co, Spec{Name: "misbehave", Kind: KindCC, Graph: g})
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			if _, err := job.Step(&iterate.Context{Superstep: 0}); err != nil {
				t.Fatalf("Step 0: %v", err)
			}
			_, err = job.Step(&iterate.Context{Superstep: 1})
			if err == nil || !strings.Contains(err.Error(), "worker 1 sent partition") || !strings.Contains(err.Error(), want) {
				t.Fatalf("Step 1 error = %v, want %q blamed on worker 1 and a partition", err, want)
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
		})
	}
}
