package proc

// procbench_test.go measures the wire end to end on real worker
// processes: Connected Components and PageRank jobs running with a
// per-superstep checkpoint, so bulk state crosses the wire and the
// data plane every round.

import (
	"testing"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// startBenchCluster boots a coordinator for a benchmark, outside the
// timed region. Benchmarks share the test binary's child-process
// re-exec hook, so worker processes are real.
func startBenchCluster(b *testing.B, workers, partitions int) *Coordinator {
	b.Helper()
	co, err := Start(Config{
		Workers:     workers,
		Partitions:  partitions,
		Heartbeat:   50 * time.Millisecond,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	b.Cleanup(func() { co.Close() })
	return co
}

// BenchmarkProcCC_Raw runs Connected Components to the fixpoint with a
// checkpoint every superstep, so each round ships full partition state
// coordinator-ward over the wire under measurement.
func BenchmarkProcCC_Raw(b *testing.B) {
	g := gen.Components(4, 2000, 0.002, 7)
	co := startBenchCluster(b, 3, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := NewJob(co, Spec{Name: "bench-cc", Kind: KindCC, Graph: g})
		if err != nil {
			b.Fatalf("NewJob: %v", err)
		}
		loop := &iterate.Loop{
			Name:    "bench-cc",
			Step:    job.Step,
			Done:    iterate.DeltaDone(job.WorksetLen),
			Job:     job,
			Policy:  recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()),
			Cluster: co,
		}
		if _, err := loop.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

// BenchmarkProcPageRank_Raw runs a fixed number of PageRank supersteps on a
// scale-free graph, checkpointing every superstep.
func BenchmarkProcPageRank_Raw(b *testing.B) {
	g := gen.Twitter(8000, 11)
	co := startBenchCluster(b, 3, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := NewJob(co, Spec{Name: "bench-pr", Kind: KindPageRank, Graph: g})
		if err != nil {
			b.Fatalf("NewJob: %v", err)
		}
		loop := &iterate.Loop{
			Name:    "bench-pr",
			Step:    job.Step,
			Done:    iterate.BulkDone(10, func(int) bool { return false }),
			Job:     job,
			Policy:  recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()),
			Cluster: co,
		}
		if _, err := loop.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}
