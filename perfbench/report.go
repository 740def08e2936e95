package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what a run prints: a readable summary, then the result
// line.
type report struct {
	lines     []string
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func (r *report) printf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

func (r *report) print(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// report turns the run's records into metrics: end-to-end ones from
// untraced jobs, per-layer ones from traced jobs.
func (b *bench) report() *report {
	r := &report{}
	for _, j := range b.jobs {
		r.attempted++
		if j.err != nil {
			r.failed++
			r.printf("FAILED %s (traced=%t): %v", j.sc.metric(), j.traced, j.err)
		}
	}
	if b.leaked > 0 {
		r.attempted++
		r.failed++
		r.printf("FAILED %d worker process(es) outlived the workload and were killed", b.leaked)
	}
	r.correct = r.failed == 0
	r.printf("error_rate %.4f ratio (%d of %d jobs failed, warm-up and leak check included); measured %.1fs",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted, b.measured.Seconds())

	setup := make([]float64, len(b.setups))
	for i, s := range b.setups {
		setup[i] = s.total.Seconds()
	}
	// Job times exclude jobs during which the hypervisor stole more than
	// a tenth of the job's wall time from this VM's CPUs: that time went
	// to other guests, not to the program. A scenario left with fewer
	// than minClean such jobs keeps all of them.
	const minClean = 3
	type key struct {
		sc     scenario
		traced bool
	}
	all := make(map[key][]float64)
	clean := make(map[key][]float64)
	var allocs []float64
	var stolen time.Duration
	excluded, timed := 0, 0
	for _, j := range b.jobs {
		if !j.timed || j.err != nil {
			continue
		}
		timed++
		stolen += j.stolen
		k := key{j.sc, j.traced}
		all[k] = append(all[k], j.elapsed.Seconds())
		if j.stolen*10 <= j.elapsed {
			clean[k] = append(clean[k], j.elapsed.Seconds())
		} else {
			excluded++
		}
		if j.sc == (scenario{"optimistic", false}) && !j.traced {
			allocs = append(allocs, float64(j.alloc)/1e6)
		}
	}
	untraced := make(map[scenario][]float64)
	traced := make(map[scenario][]float64)
	for k, xs := range all {
		if len(clean[k]) >= minClean {
			xs = clean[k]
		}
		if k.traced {
			traced[k.sc] = xs
		} else {
			untraced[k.sc] = xs
		}
	}
	r.printf("steal: %.2fs of CPU time stolen during timed jobs; %d of %d jobs excluded from timings for steal above 10%% of their time",
		stolen.Seconds(), excluded, timed)

	ticks := make([]string, 0, len(scenarios))
	for _, sc := range scenarios {
		t := b.ref[sc]
		ticks = append(ticks, fmt.Sprintf("%s=%d/%d", sc.metric(), t[0], t[1]))
	}
	r.printf("ticks/supersteps per job: %s", strings.Join(ticks, " "))
	row := func(name, unit string, xs []float64) float64 {
		med := median(xs)
		r.printf("%-20s %10.4f %s  n=%d [%.4f, %.4f]", name, med, unit, len(xs), minOf(xs), maxOf(xs))
		return med
	}
	if !b.cfg.trace {
		r.printf("%-20s %10s  %s", "metric", "median", "samples [min, max]")
		r.metrics = append(r.metrics, metric{"setup_s", "s", row("setup_s", "s", setup)})
		for _, sc := range scenarios {
			r.metrics = append(r.metrics, metric{sc.metric(), "s", row(sc.metric(), "s", untraced[sc])})
		}
		// The least, not the median: a GC that falls inside a job empties
		// sync.Pools the proc driver reuses frame buffers from, so single
		// jobs re-allocate them, and how often depends on timing.
		r.printf("%-20s %10.4f MB  least of n=%d, median %.4f", "alloc_mb", minOf(allocs), len(allocs), median(allocs))
		r.metrics = append(r.metrics, metric{"alloc_mb", "MB", minOf(allocs)})
		rss := float64(peakRSS()) / 1e6
		r.printf("%-20s %10.4f MB  driver VmHWM, workers excluded", "peak_rss_mb", rss)
		r.metrics = append(r.metrics, metric{"peak_rss_mb", "MB", rss})
	}
	none := median(untraced[scenario{"none", false}])
	r.printf("derived: ff_s.optimistic/ff_s.none = %.3f, ff_s.checkpoint/ff_s.none = %.3f (not gated)",
		median(untraced[scenario{"optimistic", false}])/none, median(untraced[scenario{"checkpoint", false}])/none)
	if b.cfg.trace {
		r.metrics = b.layerMetrics(r, untraced, traced)
	}
	return r
}

// jobSpans sums one traced job's spans by name.
type jobSpans struct {
	total        map[string]time.Duration
	count        map[string]int64
	calls        map[string]int
	steps        []time.Duration
	stepAllocs   []int64
	dur          time.Duration
	unattributed time.Duration // job and loop time outside any layer span
	loopSelf     time.Duration
}

func (b *bench) collectSpans() map[int]*jobSpans {
	self := b.tr.selfTimes()
	out := make(map[int]*jobSpans)
	for i, s := range b.tr.spans {
		js := out[s.Job]
		if js == nil {
			js = &jobSpans{total: map[string]time.Duration{}, count: map[string]int64{}, calls: map[string]int{}}
			out[s.Job] = js
		}
		js.total[s.Name] += s.dur()
		js.count[s.Name] += s.Count
		js.calls[s.Name]++
		switch s.Name {
		case "job":
			js.dur = s.dur()
			js.unattributed += self[i]
		case "iterate.run":
			js.loopSelf = self[i]
			js.unattributed += self[i]
		case "exec.step", "proc.step":
			js.steps = append(js.steps, s.dur())
			js.stepAllocs = append(js.stepAllocs, s.Allocs)
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics. Each is a median per job
// over the traced jobs of the scenario that exercises the layer:
// failure-free Optimistic for the step path, failure-free Checkpoint
// for the checkpoint path, and the failure scenarios for recovery.
// Metrics of a layer the workload does not use read 0.
func (b *bench) layerMetrics(r *report, untraced, traced map[scenario][]float64) []metric {
	spans := b.collectSpans()
	byScenario := make(map[scenario][]*jobSpans)
	var netAll [4][]float64
	for _, j := range b.jobs {
		if !j.timed || !j.traced || j.err != nil {
			continue
		}
		byScenario[j.sc] = append(byScenario[j.sc], spans[j.tracer])
		if j.sc.fail {
			for i, v := range []int{j.net.RPCRetries, j.net.Reconnects, j.net.Suspected, j.net.Condemned} {
				netAll[i] = append(netAll[i], float64(v))
			}
		}
	}
	ffOpt, ffCkpt := scenario{"optimistic", false}, scenario{"checkpoint", false}
	failOpt, failCkpt, failRestart := scenario{"optimistic", true}, scenario{"checkpoint", true}, scenario{"restart", true}
	fails := []scenario{failOpt, failCkpt, failRestart}

	perJob := func(scs []scenario, f func(*jobSpans) float64) float64 {
		var xs []float64
		for _, sc := range scs {
			for _, js := range byScenario[sc] {
				xs = append(xs, f(js))
			}
		}
		return median(xs)
	}
	secs := func(name string) func(*jobSpans) float64 {
		return func(js *jobSpans) float64 { return js.total[name].Seconds() }
	}
	stepPct := func(name string, q float64) float64 {
		if b.spanName("exec.step") != name {
			return 0
		}
		var xs []float64
		for _, js := range byScenario[ffOpt] {
			for _, d := range js.steps {
				xs = append(xs, float64(d)/1e6)
			}
		}
		return percentile(xs, q)
	}
	only := func(cond bool, v float64) float64 {
		if cond {
			return v
		}
		return 0
	}
	setupMed := func(f func(setupRecord) time.Duration) float64 {
		xs := make([]float64, len(b.setups))
		for i, s := range b.setups {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	inproc, isProc := !b.w.proc, b.w.proc
	step := b.spanName("exec.step")

	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name, unit, v}) }
	add("graph.dense_s", "s", only(inproc, setupMed(func(s setupRecord) time.Duration { return s.dense })))
	add("graph.partitioning_s", "s", only(inproc, setupMed(func(s setupRecord) time.Duration { return s.partitioning })))
	add("cluster.start_s", "s", setupMed(func(s setupRecord) time.Duration { return s.start }))
	add("algo.load_s", "s", only(inproc, perJob([]scenario{ffOpt}, secs("algo.load"))))
	add("proc.load_s", "s", only(isProc, perJob([]scenario{ffOpt}, secs("proc.load"))))

	add("exec.step_s", "s", only(inproc, perJob([]scenario{ffOpt}, secs(step))))
	add("exec.step_ms.p50", "ms", stepPct("exec.step", 0.5))
	add("exec.step_ms.p90", "ms", stepPct("exec.step", 0.9))
	add("exec.messages", "count", only(inproc, perJob([]scenario{ffOpt}, func(js *jobSpans) float64 { return float64(js.count[step]) })))
	add("exec.msgs_per_s", "1/s", only(inproc, perJob([]scenario{ffOpt}, func(js *jobSpans) float64 {
		return float64(js.count[step]) / js.total[step].Seconds()
	})))
	var allocs []float64
	for _, js := range byScenario[ffOpt] {
		for _, a := range js.stepAllocs {
			allocs = append(allocs, float64(a))
		}
	}
	add("exec.allocs_per_step", "count", only(inproc, median(allocs)))

	add("proc.step_s", "s", only(isProc, perJob([]scenario{ffOpt}, secs(step))))
	add("proc.step_ms.p50", "ms", stepPct("proc.step", 0.5))
	add("proc.step_ms.p90", "ms", stepPct("proc.step", 0.9))
	add("proc.fetch_s", "s", only(isProc, perJob([]scenario{ffCkpt}, secs("proc.fetch"))))
	add("proc.restore_s", "s", only(isProc, perJob([]scenario{failCkpt}, secs("recovery.restore"))))
	for i, name := range []string{"proc.rpc_retries", "proc.reconnects", "proc.suspected", "proc.condemned"} {
		add(name, "count", only(isProc, mean(netAll[i])))
	}

	add("cluster.fail_s", "s", perJob(fails, secs("cluster.fail")))
	add("cluster.acquire_s", "s", perJob(fails, secs("cluster.acquire")))

	add("recovery.setup_s", "s", perJob([]scenario{ffCkpt}, secs("recovery.setup")))
	add("recovery.barrier_s", "s", perJob([]scenario{ffCkpt}, secs("recovery.barrier")))
	for _, sc := range fails {
		add("recovery.on_failure_s."+sc.policy, "s", perJob([]scenario{sc}, secs("recovery.on_failure")))
	}
	add("recovery.compensate_s", "s", perJob([]scenario{failOpt}, secs("recovery.compensate")))
	add("recovery.restore_s", "s", perJob([]scenario{failCkpt}, secs("recovery.restore")))
	add("recovery.reset_s", "s", perJob([]scenario{failRestart}, secs("recovery.reset")))

	ff := b.ref[ffOpt]
	add("iterate.ticks", "count", float64(ff[0]))
	add("iterate.supersteps", "count", float64(ff[1]))
	for _, sc := range fails {
		base := b.ref[scenario{sc.policy, false}]
		if sc.policy == "restart" {
			base = b.ref[scenario{"none", false}] // Restart and None run alike until a failure
		}
		got := b.ref[sc]
		add("recovery.extra_ticks."+sc.policy, "count", float64(got[0]-base[0]))
		add("iterate.useful_ratio."+sc.policy, "ratio", ratio(float64(got[1]), float64(got[0])))
	}
	add("iterate.self_s", "s", perJob([]scenario{ffOpt}, func(js *jobSpans) float64 { return js.loopSelf.Seconds() }))

	add("state.snapshot_s", "s", only(inproc, perJob([]scenario{ffCkpt}, secs("state.snapshot"))))
	add("state.snapshot_bytes", "B", perJob([]scenario{ffCkpt}, func(js *jobSpans) float64 {
		name := b.spanName("state.snapshot")
		return ratio(float64(js.count[name]), float64(js.calls[name]))
	}))
	add("state.clear_s", "s", perJob(fails, secs("state.clear")))
	add("checkpoint.save_s", "s", perJob([]scenario{ffCkpt}, secs("checkpoint.save")))
	add("checkpoint.saves", "count", perJob([]scenario{ffCkpt}, func(js *jobSpans) float64 { return float64(js.calls["checkpoint.save"]) }))
	add("checkpoint.save_bytes", "B", perJob([]scenario{ffCkpt}, func(js *jobSpans) float64 { return float64(js.count["checkpoint.save"]) }))
	add("checkpoint.load_s", "s", perJob([]scenario{failCkpt}, secs("checkpoint.load")))

	var unattr, total time.Duration
	for _, jss := range byScenario {
		for _, js := range jss {
			unattr += js.unattributed
			total += js.dur
		}
	}
	add("trace.unattributed_ratio", "ratio", ratio(unattr.Seconds(), total.Seconds()))
	for _, sc := range scenarios[:3] {
		add("trace.overhead_s."+sc.policy, "s", median(traced[sc])-median(untraced[sc]))
	}

	b.printAttribution(r, byScenario)
	r.printf("per-layer metrics:")
	for _, m := range ms {
		r.printf("  %-32s %14.6g %s", m.name, m.value, m.unit)
	}
	return ms
}

// printAttribution prints, per scenario, each layer's median time per
// job and the share of job time no layer span covers.
func (b *bench) printAttribution(r *report, byScenario map[scenario][]*jobSpans) {
	for _, sc := range scenarios {
		jss := byScenario[sc]
		if len(jss) == 0 {
			continue
		}
		names := map[string]bool{}
		var durs, unattr []float64
		for _, js := range jss {
			for n := range js.total {
				names[n] = true
			}
			durs = append(durs, js.dur.Seconds())
			unattr = append(unattr, ratio(js.unattributed.Seconds(), js.dur.Seconds()))
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			if n != "job" {
				sorted = append(sorted, n)
			}
		}
		sort.Strings(sorted)
		parts := make([]string, 0, len(sorted))
		for _, n := range sorted {
			var xs []float64
			for _, js := range jss {
				xs = append(xs, js.total[n].Seconds())
			}
			parts = append(parts, fmt.Sprintf("%s=%.4f", n, median(xs)))
		}
		r.printf("traced %s: job %.4fs (n=%d), unattributed %.1f%%; %s", sc.metric(), median(durs), len(jss),
			100*median(unattr), strings.Join(parts, " "))
	}
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics; 0 for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
