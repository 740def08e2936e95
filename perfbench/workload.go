package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// workload is one fixed input and engine the benchmark drives to
// convergence. Sizes are per-workload constants so ff_s is a
// throughput figure at a stated input size; the seed only changes
// which graph of that size is generated.
type workload struct {
	name     string
	why      string
	algo     string // "cc" or "pagerank"
	proc     bool   // state hosted on real worker processes
	vertices int
	tiny     int  // vertex count in tiny mode (self-tests, smoke runs)
	directed bool // Twitter-like directed graph (PageRank) or undirected (CC)
	failStep int  // superstep during which the victim dies
	parts    int
	workers  int
}

var workloads = []workload{
	{
		name: "cc-inproc",
		why:  "delta-iteration CC on the in-process columnar engine: expand/exchange/min-fold over a shrinking workset, small checkpoints, no wire",
		algo: "cc", vertices: 100000, tiny: 2000, failStep: 2, parts: 4, workers: 2,
	},
	{
		name: "pagerank-inproc",
		why:  "bulk-iteration PageRank to 1e-9: dense work every superstep and ~60 barriers, so checkpoint and per-superstep fixed costs dominate",
		algo: "pagerank", directed: true, vertices: 20000, tiny: 1000, failStep: 30, parts: 4, workers: 2,
	},
	{
		name: "cc-proc",
		why:  "CC with state on 2 real worker processes: driver relay, wire, TCP, data plane and process spawn; exec sits idle",
		algo: "cc", proc: true, vertices: 10000, tiny: 500, failStep: 2, parts: 4, workers: 2,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prEpsilon is the L1 convergence threshold of the PageRank jobs and
// prTolerance the per-vertex agreement demanded with the reference.
const (
	prEpsilon     = 1e-9
	prTolerance   = 1e-6
	prMaxSteps    = 1000
	procJobName   = "bench"
	procBootLimit = 30 * time.Second
)

// generate builds the workload's input graph from the seed. It is the
// only place the seed enters; the program under test receives the
// finished *graph.Graph.
func (w workload) generate(seed int64, tiny bool) *graph.Graph {
	n := w.vertices
	if tiny {
		n = w.tiny
	}
	return gen.BarabasiAlbert(n, 8, seed, w.directed)
}

// truth is the sequential ground truth a converged job must match.
type truth struct {
	cc map[graph.VertexID]graph.VertexID
	pr map[graph.VertexID]float64
}

func (w workload) truth(g *graph.Graph) truth {
	if w.algo == "cc" {
		return truth{cc: ref.ConnectedComponents(g)}
	}
	pr, _ := ref.PageRank(g, ref.PageRankOptions{})
	return truth{pr: pr}
}

// deployment is a booted cluster plus the input it serves.
type deployment struct {
	w  workload
	g  *graph.Graph
	cl cluster.Interface
	co *proc.Coordinator // nil in-process
}

// boot brings the cluster up. In proc mode this spawns and handshakes
// every worker process.
func (w workload) boot() (cluster.Interface, *proc.Coordinator, error) {
	if !w.proc {
		return cluster.New(w.workers, w.parts), nil, nil
	}
	co, err := proc.Start(proc.Config{
		Workers:     w.workers,
		Partitions:  w.parts,
		CallTimeout: procBootLimit,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("booting %d worker processes: %w", w.workers, err)
	}
	return co, co, nil
}

func (d *deployment) close() {
	if d.co != nil {
		d.co.Close()
	}
}

// job is one constructed iterative job, ready for iterate.Loop.
type job struct {
	rj     recovery.Job
	step   func(*iterate.Context) (iterate.StepStats, error)
	done   func(int) bool
	verify func(truth) error
}

// newJob constructs (and, in proc mode, loads onto the workers) a fresh
// job at superstep zero.
func (d *deployment) newJob() (*job, error) {
	switch {
	case d.co != nil:
		pj, err := proc.NewJob(d.co, proc.Spec{Name: procJobName, Kind: proc.KindCC, Graph: d.g})
		if err != nil {
			return nil, err
		}
		return &job{rj: pj, step: pj.Step, done: iterate.DeltaDone(pj.WorksetLen),
			verify: func(t truth) error {
				got, err := pj.Components()
				if err != nil {
					return fmt.Errorf("reading components: %w", err)
				}
				return sameComponents(got, t.cc)
			}}, nil
	case d.w.algo == "cc":
		c := cc.NewColumnar(d.g, d.w.parts)
		return &job{rj: c, step: c.Step, done: iterate.DeltaDone(c.WorksetLen),
			verify: func(t truth) error { return sameComponents(c.Components(), t.cc) }}, nil
	default:
		pr := pagerank.NewColumnar(d.g, d.w.parts, 0, nil)
		return &job{rj: pr, step: pr.Step,
			done:   iterate.BulkDone(prMaxSteps, func(int) bool { return pr.LastL1() < prEpsilon }),
			verify: func(t truth) error { return closeRanks(pr.RankVector(), t.pr) }}, nil
	}
}

func sameComponents(got, want map[graph.VertexID]graph.VertexID) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	bad := 0
	for v, c := range want {
		if got[v] != c {
			bad++
		}
	}
	return fmt.Errorf("components differ from union-find on %d of %d vertices (%d labels returned)", bad, len(want), len(got))
}

func closeRanks(got, want map[graph.VertexID]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks returned, want %d", len(got), len(want))
	}
	worst := 0.0
	for v, r := range want {
		worst = math.Max(worst, math.Abs(got[v]-r))
	}
	if worst > prTolerance {
		return fmt.Errorf("rank differs from power iteration by %.3g (tolerance %g)", worst, prTolerance)
	}
	return nil
}

// scenario is one of the six jobs every repetition runs.
type scenario struct {
	policy string // none, optimistic, checkpoint or restart
	fail   bool   // one mid-superstep worker failure
}

var scenarios = []scenario{
	{"none", false}, {"optimistic", false}, {"checkpoint", false},
	{"optimistic", true}, {"checkpoint", true}, {"restart", true},
}

// metric is the end-to-end metric the scenario's job time feeds.
func (s scenario) metric() string {
	if s.fail {
		return "fail_s." + s.policy
	}
	return "ff_s." + s.policy
}

func (s scenario) newPolicy(store checkpoint.Store) recovery.Policy {
	switch s.policy {
	case "optimistic":
		return recovery.Optimistic{}
	case "checkpoint":
		return recovery.NewCheckpoint(1, store)
	case "restart":
		return recovery.Restart{}
	default:
		return recovery.None{}
	}
}
