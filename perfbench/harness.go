package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
)

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	seconds int
	trace   bool
	tiny    bool
	setups  int    // set-ups timed for the setup_s median
	spanDir string // where a traced run writes its spans

	// Injected faults, for the self-test of the correctness gate.
	corruptResult bool // verify against a falsified ground truth
	disarmFailure bool // schedule the failure on a worker that never existed
}

// jobRecord is the outcome of one job, timed or warm-up.
type jobRecord struct {
	sc      scenario
	traced  bool
	tracer  int // job ID in the tracer, when traced
	elapsed time.Duration
	alloc   uint64           // bytes the driver allocated during the job
	stolen  time.Duration    // CPU time the hypervisor gave other guests during the job
	net     cluster.NetStats // proc counters accrued during the job
	err     error            // the job failed the gate
	timed   bool             // false for the warm-up job
	// failStepMsgs is the message count of the committed attempt of
	// the workload's failure superstep.
	failStepMsgs int64
}

// setupRecord is one timed set-up.
type setupRecord struct {
	total, dense, partitioning, start time.Duration
}

// bench is one workload's run state.
type bench struct {
	w      workload
	cfg    config
	truth  truth
	dep    *deployment
	first  *job // loaded during set-up, run as the warm-up
	tr     *tracer
	setups []setupRecord
	jobs   []jobRecord
	// ref holds each scenario's tick and superstep counts from its
	// first untraced job; every later job of the scenario must repeat
	// them exactly.
	ref map[scenario][2]int
	// afterRecords places the in-process failure mid-superstep: half
	// the messages the fail superstep sends, read off the warm-up job.
	afterRecords int64
	leaked       int           // worker processes killed after the workload
	measured     time.Duration // time the timed jobs took
}

// setup tears down the previous set-up, generates the input (untimed)
// and times everything up to a loaded first job: CSR build and
// partitioning in-process, worker boot in proc mode.
func (b *bench) setup(seed int64) error {
	if b.dep != nil {
		b.dep.close()
		b.dep = nil
		b.leaked += reapChildren(5 * time.Second)
	}
	g := b.w.generate(seed, b.cfg.tiny)
	runtime.GC()
	var rec setupRecord
	t0 := time.Now()
	if !b.w.proc {
		d := g.Dense()
		rec.dense = time.Since(t0)
		t1 := time.Now()
		d.Partitioning(b.w.parts)
		rec.partitioning = time.Since(t1)
	}
	t1 := time.Now()
	cl, co, err := b.w.boot()
	if err != nil {
		return err
	}
	rec.start = time.Since(t1)
	dep := &deployment{w: b.w, g: g, cl: cl, co: co}
	j, err := dep.newJob()
	if err != nil {
		dep.close()
		return fmt.Errorf("loading the first job: %w", err)
	}
	rec.total = time.Since(t0)
	b.dep, b.first = dep, j
	b.setups = append(b.setups, rec)
	return nil
}

// runJob runs one scenario to convergence and applies the gate.
func (b *bench) runJob(sc scenario, traced bool, j *job) jobRecord {
	rec := jobRecord{sc: sc, traced: traced}
	live := b.dep.cl.Workers()
	victim := live[len(live)-1]
	if b.cfg.disarmFailure {
		victim = 1 << 20
	}
	sched := failure.NewScripted(nil)
	if sc.fail {
		sched.AtMidStep(b.w.failStep, b.afterRecords, victim)
	}
	var inj failure.Injector = sched
	var netBefore cluster.NetStats
	if b.dep.co != nil {
		inj = proc.DetectFailures(b.dep.co, sched)
		netBefore = b.dep.co.NetStats()
	}
	store := checkpoint.Store(checkpoint.NewMemoryStore())
	cl := b.dep.cl

	var tr *tracer // nil: untraced, and every span call is a no-op
	if traced {
		tr = b.tr
		tr.job++
		rec.tracer = tr.job
		store = tracedStore{Store: store, t: tr}
		cl = tracedCluster{Interface: cl, t: tr}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	stealBefore := stolenTime()

	start := time.Now()
	endJob := tr.span("job")
	res, j, err := b.runLoop(sc, j, tr, store, cl, inj)
	endJob()
	rec.elapsed = time.Since(start)
	rec.stolen = stolenTime() - stealBefore

	runtime.ReadMemStats(&ms)
	rec.alloc = ms.TotalAlloc - allocBefore
	if b.dep.co != nil {
		rec.net = netDelta(b.dep.co.NetStats(), netBefore)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	for _, s := range res.Samples {
		if s.Superstep == b.w.failStep && !s.Aborted {
			rec.failStepMsgs = s.Stats.Messages
		}
	}
	rec.err = b.gate(sc, traced, j, res, rec.net)
	return rec
}

// runLoop constructs the job unless one is given, then drives it to
// convergence with iterate.Loop. A non-nil tracer wraps every layer.
func (b *bench) runLoop(sc scenario, j *job, tr *tracer, store checkpoint.Store, cl cluster.Interface, inj failure.Injector) (*iterate.Result, *job, error) {
	if j == nil {
		end := tr.span(b.spanName("algo.load"))
		var err error
		j, err = b.dep.newJob()
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("constructing the job: %w", err)
		}
	}
	loop := &iterate.Loop{
		Name: procJobName, Step: j.step, Done: j.done, Job: j.rj,
		Policy: sc.newPolicy(store), Cluster: cl, Injector: inj,
	}
	if tr != nil {
		loop.Step = tr.step(b.spanName("exec.step"), j.step)
		loop.Policy = tracedPolicy{Policy: loop.Policy, t: tr}
		loop.Job = tracedJob{Job: j.rj, t: tr, snapshotName: b.spanName("state.snapshot")}
	}
	defer tr.span("iterate.run")()
	res, err := loop.Run()
	return res, j, err
}

// gate is the correctness and non-vacuity check every job passes
// before it counts: the right answer, the failure it was scheduled to
// suffer (and no other), and tick counts that repeat across jobs.
func (b *bench) gate(sc scenario, traced bool, j *job, res *iterate.Result, net cluster.NetStats) error {
	t := b.truth
	if b.cfg.corruptResult {
		t = corrupt(t)
	}
	if err := j.verify(t); err != nil {
		return err
	}
	wantFailures := 0
	if sc.fail {
		wantFailures = 1
	}
	if res.Failures != wantFailures {
		return fmt.Errorf("%d failures struck, want %d", res.Failures, wantFailures)
	}
	if sc.fail && !abortedAt(res, b.w.failStep) {
		return fmt.Errorf("no aborted attempt at superstep %d: the failure did not strike mid-superstep", b.w.failStep)
	}
	if b.dep.co != nil && net.Condemned != wantFailures {
		return fmt.Errorf("%d workers condemned, want %d", net.Condemned, wantFailures)
	}
	got := [2]int{res.Ticks, res.Supersteps}
	want, seen := b.ref[sc]
	switch {
	case !seen && !traced:
		b.ref[sc] = got
	case seen && got != want:
		kind := "untraced"
		if traced {
			kind = "traced"
		}
		return fmt.Errorf("%s job took %d ticks and %d supersteps, the scenario's first job %d and %d", kind, got[0], got[1], want[0], want[1])
	}
	return nil
}

func abortedAt(res *iterate.Result, superstep int) bool {
	for _, s := range res.Samples {
		if s.Aborted && s.Superstep == superstep {
			return true
		}
	}
	return false
}

// corrupt falsifies one vertex of the ground truth, so a correct job
// must fail verification.
func corrupt(t truth) truth {
	out := truth{}
	if t.cc != nil {
		out.cc = make(map[graph.VertexID]graph.VertexID, len(t.cc))
		for v, c := range t.cc {
			out.cc[v] = c
		}
		for v := range out.cc {
			out.cc[v]++
			break
		}
	}
	if t.pr != nil {
		out.pr = make(map[graph.VertexID]float64, len(t.pr))
		for v, r := range t.pr {
			out.pr[v] = r
		}
		for v := range out.pr {
			out.pr[v] += 1e-3
			break
		}
	}
	return out
}

func netDelta(a, b cluster.NetStats) cluster.NetStats {
	return cluster.NetStats{
		RPCRetries: a.RPCRetries - b.RPCRetries,
		Reconnects: a.Reconnects - b.Reconnects,
		Suspected:  a.Suspected - b.Suspected,
		Condemned:  a.Condemned - b.Condemned,
		Fenced:     a.Fenced - b.Fenced,
	}
}

// procSpans renames the spans whose layer differs in proc mode: steps
// run in the proc round, jobs load onto the workers, and snapshots are
// fetched over the data plane.
var procSpans = map[string]string{"exec.step": "proc.step", "algo.load": "proc.load", "state.snapshot": "proc.fetch"}

func (b *bench) spanName(name string) string {
	if b.w.proc {
		return procSpans[name]
	}
	return name
}

// childPIDs lists the live child processes of this process.
func childPIDs() []int {
	self := os.Getpid()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		// Fields after the parenthesised command: state, ppid, ...
		s := string(stat)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) > 1 && fields[1] == strconv.Itoa(self) && fields[0] != "Z" {
			out = append(out, pid)
		}
	}
	return out
}

// reapChildren waits for every child process to exit after the
// cluster closed, and kills any that outlive the grace period. It
// returns how many had to be killed.
func reapChildren(grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		pids := childPIDs()
		if len(pids) == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			for _, pid := range pids {
				if p, err := os.FindProcess(pid); err == nil {
					p.Kill()
				}
			}
			return len(pids)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stolenTime reads the steal column of /proc/stat: CPU time, summed over
// this machine's CPUs, that the hypervisor ran other guests while this
// one had work. The column counts USER_HZ ticks, 100 per second on Linux.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSS reads the process's high-water resident set size in bytes.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}
