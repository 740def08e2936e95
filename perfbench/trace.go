package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// span is one timed call into a layer. Spans of one job share Job;
// Parent indexes the enclosing span (-1 for a job's root).
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the call's work count: messages for a step, bytes for a
	// snapshot or checkpoint save. Allocs is the heap objects a step
	// allocated.
	Count  int64 `json:"count,omitempty"`
	Allocs int64 `json:"allocs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory for one single-threaded driver: the
// iteration loop calls every traced layer from one goroutine, so the
// open spans form a stack.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	job   int
	alloc []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Job: t.job, Parent: parent, Start: int64(time.Since(t.epoch))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// span opens a span and returns the func that closes it. On a nil
// tracer both are no-ops, so untraced jobs run the same code.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.begin(name)
	return func() { t.end(id) }
}

func (t *tracer) end(id int) *span {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
	return &t.spans[id]
}

func (t *tracer) heapObjects() int64 {
	metrics.Read(t.alloc)
	return int64(t.alloc[0].Value.Uint64())
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span never overlap: the driver is sequential.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The decorators below wrap the public calls into each layer. They
// embed the wrapped interface so untraced methods pass through; a
// decorator hides any optional interface of what it wraps, which the
// traced-versus-untraced tick check would expose.

func (t *tracer) step(name string, f func(*iterate.Context) (iterate.StepStats, error)) func(*iterate.Context) (iterate.StepStats, error) {
	return func(ctx *iterate.Context) (iterate.StepStats, error) {
		before := t.heapObjects()
		id := t.begin(name)
		st, err := f(ctx)
		s := t.end(id)
		s.Count = st.Messages
		s.Allocs = t.heapObjects() - before
		return st, err
	}
}

type tracedPolicy struct {
	recovery.Policy
	t *tracer
}

func (p tracedPolicy) Setup(j recovery.Job) error {
	defer p.t.span("recovery.setup")()
	return p.Policy.Setup(j)
}

func (p tracedPolicy) AfterSuperstep(j recovery.Job, s int) error {
	defer p.t.span("recovery.barrier")()
	return p.Policy.AfterSuperstep(j, s)
}

func (p tracedPolicy) OnFailure(j recovery.Job, f recovery.Failure) (int, error) {
	defer p.t.span("recovery.on_failure")()
	return p.Policy.OnFailure(j, f)
}

// tracedJob names SnapshotTo after the layer doing the work: the
// in-process DenseStore encode, or the proc data-plane fetch.
type tracedJob struct {
	recovery.Job
	t            *tracer
	snapshotName string
}

func (j tracedJob) SnapshotTo(w *bytes.Buffer) error {
	before := w.Len()
	id := j.t.begin(j.snapshotName)
	err := j.Job.SnapshotTo(w)
	j.t.end(id).Count = int64(w.Len() - before)
	return err
}

func (j tracedJob) RestoreFrom(data []byte) error {
	defer j.t.span("recovery.restore")()
	return j.Job.RestoreFrom(data)
}

func (j tracedJob) ClearPartitions(parts []int) {
	defer j.t.span("state.clear")()
	j.Job.ClearPartitions(parts)
}

func (j tracedJob) Compensate(lost []int) error {
	defer j.t.span("recovery.compensate")()
	return j.Job.Compensate(lost)
}

func (j tracedJob) ResetToInitial() error {
	defer j.t.span("recovery.reset")()
	return j.Job.ResetToInitial()
}

type tracedStore struct {
	checkpoint.Store
	t *tracer
}

func (s tracedStore) Save(job string, superstep int, data []byte) error {
	id := s.t.begin("checkpoint.save")
	err := s.Store.Save(job, superstep, data)
	s.t.end(id).Count = int64(len(data))
	return err
}

func (s tracedStore) Load(job string) ([]byte, int, bool, error) {
	defer s.t.span("checkpoint.load")()
	return s.Store.Load(job)
}

type tracedCluster struct {
	cluster.Interface
	t *tracer
}

func (c tracedCluster) Fail(w int) []int {
	defer c.t.span("cluster.fail")()
	return c.Interface.Fail(w)
}

func (c tracedCluster) AcquireN(n int) ([]int, [][]int, error) {
	defer c.t.span("cluster.acquire")()
	return c.Interface.AcquireN(n)
}

// spanPath names the span file of one run.
func spanPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
