// Command perfbench is optiflow's end-to-end benchmark: it drives
// Connected Components and PageRank to convergence under each recovery
// policy, failure-free and with one mid-superstep worker failure, and
// reports job times, set-up time and memory. With -trace 1 it wraps the
// calls into each layer and reports per-layer time and counts instead.
// See README.md for the workloads and metrics.
//
//	go build -o perfbench . && ./perfbench -workload cc-inproc -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"optiflow/internal/cluster/proc"
)

func main() {
	// Worker processes of the proc workload re-execute this binary.
	proc.MaybeChildMode()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cc-inproc, pagerank-inproc or cc-proc")
	seed := fs.Int64("seed", 1, "input graph seed")
	seconds := fs.Int("seconds", 30, "measurement time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	tiny := fs.Bool("tiny", false, "tiny inputs, for smoke runs")
	spanDir := fs.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (cc-inproc, pagerank-inproc, cc-proc), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, setups: 7, spanDir: *spanDir}
	b, err := measure(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := b.report().print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure sets the workload up, warms it and runs repetitions of the
// six scenarios for the configured time.
func measure(w workload, cfg config, log io.Writer) (*bench, error) {
	fmt.Fprintf(log, "perfbench workload=%s seed=%d trace=%t nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, cfg.seed, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	b := &bench{w: w, cfg: cfg, tr: newTracer(), ref: make(map[scenario][2]int)}
	defer func() {
		if b.dep != nil { // an error return: stop the workers before leaving
			b.dep.close()
			reapChildren(5 * time.Second)
		}
	}()

	for i := 0; i < cfg.setups; i++ {
		// Every set-up builds from a freshly generated graph, since the
		// CSR view and partitioning are cached on the graph. The last
		// set-up's graph, the one jobs run on, is the seed's.
		if err := b.setup(cfg.seed + int64(cfg.setups-1-i)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	g := b.dep.g
	t0 := time.Now()
	b.truth = w.truth(g)
	truthTime := time.Since(t0)
	fmt.Fprintf(log, "input: %d vertices, %d edges (directed=%t), %d partitions on %d workers, failure mid-superstep %d; ground truth in %.2fs\n",
		g.NumVertices(), g.NumEdges(), w.directed, w.parts, w.workers, w.failStep, truthTime.Seconds())

	// The warm-up job runs the set-up's loaded job untimed. It also
	// places the in-process failure: half-way through the messages the
	// failure superstep sends.
	warm := b.runJob(scenario{"optimistic", false}, false, b.first)
	b.first = nil
	b.jobs = append(b.jobs, warm)
	if warm.err == nil {
		b.afterRecords = warm.failStepMsgs / 2
	}
	fmt.Fprintf(log, "warm-up job (failure-free Optimistic): %.4fs\n", warm.elapsed.Seconds())

	minReps := 1
	if cfg.trace {
		minReps = 2 // one untraced and one traced repetition at least
	}
	// Repetitions run the six scenarios in an order rotated by one each
	// time, so drift over the run hits every scenario alike. The clock
	// is checked before every job once the minimum repetitions are done.
	start := time.Now()
	limit := time.Duration(cfg.seconds) * time.Second
measure:
	for rep := 0; ; rep++ {
		traced := cfg.trace && rep%2 == 1
		for i := range scenarios {
			if rep >= minReps && time.Since(start) >= limit {
				break measure
			}
			sc := scenarios[(rep+i)%len(scenarios)]
			rec := b.runJob(sc, traced, nil)
			rec.timed = true
			b.jobs = append(b.jobs, rec)
		}
	}
	b.measured = time.Since(start)

	b.dep.close()
	b.dep = nil
	b.leaked = reapChildren(5 * time.Second)

	if cfg.trace {
		if err := b.tr.write(spanPath(cfg.spanDir, w.name, cfg.seed)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return b, nil
}
