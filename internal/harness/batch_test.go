package harness

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func batchTestConfigs() []uarch.Config {
	base := uarch.Default()
	return []uarch.Config{
		base,
		base, // repeated: one claim serves both points
		base.WithL2(1024, 16),
		base.WithWidth(2).WithPredictor(uarch.PredHybrid3_5KB),
	}
}

// TestSimulateDetailedBatchMatchesSimulate pins the batch entry point
// against the self-contained simulator: every design point out of one
// config-parallel pass must be bit-identical to pipeline.Simulate, and
// the timing entries it memoizes must be hits for SimulateDetailed
// (a one-point batch over the same memo).
func TestSimulateDetailedBatchMatchesSimulate(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	cfgs := batchTestConfigs()
	got, err := pw.SimulateDetailedBatch(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("batch returned %d results for %d configs", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("cfg %d (%s): batch diverges:\n got  %+v\n want %+v", i, cfg, got[i], want)
		}
		single, err := pw.SimulateDetailed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if single != got[i] {
			t.Errorf("cfg %d (%s): SimulateDetailed after batch differs — memo not shared:\n got  %+v\n want %+v", i, cfg, single, got[i])
		}
	}
}

// TestSimulateDetailedBatchCancelLeavesNoPartialMemo pins the
// claimant contract of the batch path: a cancelled batch — or a
// cancelled single point through SimulateDetailedCtx — reports
// ctx.Err() and resolves-and-removes every timing entry it claimed, so
// the memo never holds a partial or poisoned entry, and a later call
// with a live context recomputes everything bit-identically.
//
// Annotations are cached up front so the cancellation lands in the
// batch phase itself rather than in annotation; wherever the internal
// checkpoints observe it (partition, shard cut, or a chunk boundary
// inside the kernel), the visible outcome must be the same.
func TestSimulateDetailedBatchCancelLeavesNoPartialMemo(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	cfgs := batchTestConfigs()
	if err := pw.EnsureAnnotated(cfgs, 2); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pw.SimulateDetailedBatchCtx(ctx, cfgs, 2); err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	pw.annot.mu.Lock()
	left := len(pw.annot.timing)
	pw.annot.mu.Unlock()
	if left != 0 {
		t.Fatalf("cancelled batch left %d timing memo entries, want 0", left)
	}

	// A single point takes the same path: cancelled, it claims nothing
	// that survives, and a live retry matches the reference simulator.
	one := cfgs[len(cfgs)-1]
	if _, err := pw.SimulateDetailedCtx(ctx, one); err != context.Canceled {
		t.Fatalf("cancelled single point returned %v, want context.Canceled", err)
	}
	pw.annot.mu.Lock()
	left = len(pw.annot.timing)
	pw.annot.mu.Unlock()
	if left != 0 {
		t.Fatalf("cancelled single point left %d timing memo entries, want 0", left)
	}
	gotOne, err := pw.SimulateDetailed(one)
	if err != nil {
		t.Fatalf("single point after cancellation: %v", err)
	}
	wantOne, err := pipeline.Simulate(pw.Trace, one)
	if err != nil {
		t.Fatal(err)
	}
	if gotOne != wantOne {
		t.Errorf("post-cancel single point diverges:\n got  %+v\n want %+v", gotOne, wantOne)
	}

	// Recovery: the same points under a live context compute cleanly
	// and match the reference simulator.
	got, err := pw.SimulateDetailedBatch(cfgs, 2)
	if err != nil {
		t.Fatalf("batch after cancellation: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("cfg %d (%s): post-cancel batch diverges:\n got  %+v\n want %+v", i, cfg, got[i], want)
		}
	}
	pw.annot.mu.Lock()
	stored := len(pw.annot.timing)
	pw.annot.mu.Unlock()
	if stored == 0 {
		t.Fatal("successful batch stored no timing memo entries")
	}
}

// TestSimulateDetailedBatchTightBudgetAnnotatesOnce pins that a
// multi-point batch annotates each component once even when the byte
// budget is smaller than the planes: the batch uses the values its own
// annotation pass resolved, so the planes that pass evicts on publish
// are never computed a second time.
func TestSimulateDetailedBatchTightBudgetAnnotatesOnce(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	pw.SetAnnotBudget(32 << 10)
	base := uarch.Default()
	cfgs := []uarch.Config{base, base.WithWidth(2)} // one hierarchy, one predictor
	c0, b0 := CacheAnnotationCount(), BranchAnnotationCount()
	got, err := pw.SimulateDetailedBatch(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dc, db := CacheAnnotationCount()-c0, BranchAnnotationCount()-b0; dc != 1 || db != 1 {
		t.Errorf("batch under a 32 KiB budget annotated %d hierarchies and %d predictors, want 1 and 1", dc, db)
	}
	if pw.AnnotEvictions() == 0 {
		t.Error("32 KiB budget evicted nothing: the test no longer exercises eviction on publish")
	}
	for i, cfg := range cfgs {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("cfg %d (%s): batch diverges:\n got  %+v\n want %+v", i, cfg, got[i], want)
		}
	}
}

// TestSimulateDetailedBatchShardOrderIrrelevant pins that sorting the
// claimed points by stream before the shard split changes no result:
// the 192 Table 2 points on sha, in a shuffled order, come out of a
// cold batch with 1, 2 and 3 workers bit-identical to pipeline.Simulate
// at every point.
func TestSimulateDetailedBatchShardOrderIrrelevant(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	space, err := uarch.Table2Domain().Enumerate(uarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewPCG(14, 0)).Shuffle(len(space), func(i, j int) { space[i], space[j] = space[j], space[i] })
	want := make([]pipeline.Result, len(space))
	for i, cfg := range space {
		if want[i], err = pipeline.Simulate(pw.Trace, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := pw.Fresh().SimulateDetailedBatch(space, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range space {
			if got[i] != want[i] {
				t.Fatalf("workers %d, %s: batch diverges:\n got  %+v\n want %+v", workers, cfg.Name, got[i], want[i])
			}
		}
	}
}
