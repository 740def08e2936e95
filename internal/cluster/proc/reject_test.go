package proc

// reject_test.go pins the worker's input checks: a LoadReq, an inbox
// run or a state fragment that does not fit the job is answered with an
// error — ErrResp on the ctrl path, DataErr on the data plane — and
// installs nothing, instead of panicking the worker on a later index.

import (
	"strings"
	"testing"
)

// rejectLoad is a valid load of partition 1 of a 6-vertex job with two
// partitions: vertices 1, 3 and 5, each with one out-edge.
func rejectLoad() LoadReq {
	return LoadReq{
		Job: "reject", Kind: KindCC, NumPartitions: 2, TotalVertices: 6, Damping: 0.85,
		PartOf: []int32{0, 1, 0, 1, 0, 1},
		Parts:  []PartitionData{{Part: 1, Owned: []int32{1, 3, 5}, Degrees: []int32{1, 1, 1}, Targets: []int32{0, 2, 4}}},
	}
}

// errText returns the ErrResp message of resp, failing the test if
// resp is anything else.
func errText(t *testing.T, resp any) string {
	t.Helper()
	e, ok := resp.(ErrResp)
	if !ok {
		t.Fatalf("response %#v, want ErrResp", resp)
	}
	return e.Msg
}

func TestLoadRejectsBadRequests(t *testing.T) {
	if resp := (&workerHost{}).handle(rejectLoad()); resp != (OKResp{}) {
		t.Fatalf("valid load answered %#v", resp)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*LoadReq)
		want   string
	}{
		{"target out of range", func(r *LoadReq) { r.Parts[0].Targets[1] = 6 }, "edge to vertex 6"},
		{"negative target", func(r *LoadReq) { r.Parts[0].Targets[1] = -1 }, "edge to vertex -1"},
		{"PartOf entry out of range", func(r *LoadReq) { r.PartOf[2] = 2 }, "PartOf[2] = 2"},
		{"PartOf too short", func(r *LoadReq) { r.PartOf = r.PartOf[:5] }, "PartOf has 5 entries for 6 vertices"},
		{"PartOf too long", func(r *LoadReq) { r.PartOf = append(r.PartOf, 0) }, "PartOf has 7 entries for 6 vertices"},
		{"vertex of another partition", func(r *LoadReq) { r.Parts[0].Owned[1] = 2 }, "lists vertex 2"},
		{"degrees short of the targets", func(r *LoadReq) { r.Parts[0].Degrees[2] = 0 }, "degrees sum to 2, but 3 targets"},
		{"degrees beyond the targets", func(r *LoadReq) { r.Parts[0].Degrees[0] = 2 }, "degrees sum to 4, but 3 targets"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := rejectLoad()
			tc.mutate(&req)
			h := &workerHost{}
			if msg := errText(t, h.handle(req)); !strings.Contains(msg, tc.want) {
				t.Errorf("load error %q, want it to mention %q", msg, tc.want)
			}
			if h.parts != nil {
				t.Errorf("a rejected load installed %d partitions", len(h.parts))
			}
		})
	}
}

// TestStepRejectsForeignDst: an inbox message for a vertex its run's
// partition does not own fails the step with ErrResp, and the worker
// keeps serving.
func TestStepRejectsForeignDst(t *testing.T) {
	h := &workerHost{}
	if resp := h.handle(rejectLoad()); resp != (OKResp{}) {
		t.Fatalf("load answered %#v", resp)
	}
	for _, dst := range []int32{2, 6, -1} {
		req := StepReq{Superstep: 1, Inbox: []MsgRun{{Part: 1, Src: 0, Dst: []int32{dst}, Val: []uint64{0}}}}
		if msg := errText(t, h.handle(req)); !strings.Contains(msg, "which partition 1 does not hold") {
			t.Errorf("Dst %d: step error %q", dst, msg)
		}
	}
	if resp, ok := h.handle(StepReq{Superstep: 1}).(StepResp); !ok {
		t.Fatalf("a clean step after the rejections answered %#v", resp)
	}
}

// TestRestoreRejectsOverrun: a state fragment whose first slot plus
// its length overruns the partition is refused on the ctrl path
// (ErrResp) and on the data plane (DataErr), and the state is left as
// it was.
func TestRestoreRejectsOverrun(t *testing.T) {
	co := startTestCluster(t, 1, 2, nil)
	g := ccTestGraph()
	job, err := NewJob(co, Spec{Name: "cc-overrun", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	size := len(job.pt.Owned[0])
	for _, ps := range []PartState{
		{Part: 0, First: size - 1, Vals: []uint64{7, 7}},
		{Part: 0, First: size + 1},
		{Part: 0, First: 1 << 31, Vals: []uint64{7}},
	} {
		if _, err := co.call(0, RestoreReq{Parts: []PartState{ps}}); err == nil || !strings.Contains(err.Error(), "restore of slots") {
			t.Errorf("ctrl restore of %+v: err = %v, want an overrun rejection", ps, err)
		}
		if err := co.restoreState(0, []PartState{ps}); err == nil || !strings.Contains(err.Error(), "restore of slots") {
			t.Errorf("data-plane restore of %+v: err = %v, want an overrun rejection", ps, err)
		}
	}
	labels, err := job.Components()
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	for v, l := range labels {
		if v != l {
			t.Fatalf("vertex %d has label %d after rejected restores", v, l)
		}
	}
}
