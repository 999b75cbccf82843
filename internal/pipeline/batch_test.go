package pipeline_test

import (
	"context"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// annotationFor builds the annotation planes for one design point
// directly from the cache/branch substrates (no harness cache), so the
// differential tests exercise the raw annotate-then-replay pipeline.
func annotationFor(t *testing.T, tr *trace.Trace, cfg uarch.Config) pipeline.Annotation {
	t.Helper()
	eng, err := cache.NewL2SpaceSim(cfg.Hier, []cache.Config{cfg.Hier.L2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RecordPlanes([]cache.Config{cfg.Hier.L2}); err != nil {
		t.Fatal(err)
	}
	tr.Replay(eng)
	plane, err := eng.PlaneFor(cfg.Hier.L2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.StatsFor(cfg.Hier.L2)
	if err != nil {
		t.Fatal(err)
	}
	stats.IL1Accesses += eng.IStallEvents()
	return pipeline.Annotation{
		Mem:      plane,
		MemStats: stats,
		Br:       branchPlane(tr, cfg.Predictor),
	}
}

func branchPlane(tr *trace.Trace, pk uarch.PredictorKind) *trace.BitPlane {
	return branch.AnnotateMispredicts(tr, pk.New())
}

// diffResults fails the test unless the batch kernel's full Result is
// bit-identical to Simulate's.
func diffResults(t *testing.T, label string, want, got pipeline.Result) {
	t.Helper()
	if want != got {
		t.Errorf("%s:\n  Simulate %+v\n  batch    %+v", label, want, got)
	}
}

// simulateOneLane replays one design point as a one-lane batch — the
// path every single-point detailed simulation takes.
func simulateOneLane(t *testing.T, tr *trace.Trace, cfg uarch.Config, ann pipeline.Annotation) pipeline.Result {
	t.Helper()
	res, err := pipeline.SimulateAnnotatedBatch(tr, []pipeline.BatchPoint{{Cfg: cfg, Ann: ann}})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestBatchMatchesSimulateTable2 pins the one-lane batch == Simulate
// (the full Result struct, not just CPI) on a real workload trace
// across every one of the 192 Table 2 design points, each annotated on
// its own.
func TestBatchMatchesSimulateTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("192-config differential sweep")
	}
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range dse.Space(uarch.Default()) {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := simulateOneLane(t, pw.Trace, cfg, annotationFor(t, pw.Trace, cfg))
		diffResults(t, cfg.Name, want, got)
	}
}

// TestBatchMatchesSimulateRandom differentially tests the one-lane
// batch against Simulate on random programs across randomized Table 2
// configurations (every width, depth, L2 geometry and predictor
// appears).
func TestBatchMatchesSimulateRandom(t *testing.T) {
	space := dse.Space(uarch.Default())
	for seed := int64(1); seed <= 6; seed++ {
		p := randprog.Generate(randprog.Default(seed))
		pw, err := harness.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		// A deterministic, seed-dependent stride samples the space so
		// all 192 points appear across the six seeds.
		for i := int(seed) - 1; i < len(space); i += 6 {
			cfg := space[i]
			want, err := pipeline.Simulate(pw.Trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := simulateOneLane(t, pw.Trace, cfg, annotationFor(t, pw.Trace, cfg))
			diffResults(t, cfg.Name, want, got)
		}
	}
}

// batchPointsFor builds one BatchPoint per config, pooling annotation
// planes across configs that share a component exactly like the
// harness's canonicalization layer does: one memory plane per distinct
// hierarchy, one bit plane per distinct predictor. The batch kernel
// keys its shared work on plane pointer identity, so the pooling also
// exercises the config-parallel paths.
func batchPointsFor(t *testing.T, tr *trace.Trace, cfgs []uarch.Config) []pipeline.BatchPoint {
	t.Helper()
	memPlanes := make(map[cache.HierarchyConfig]pipeline.Annotation)
	brPlanes := make(map[uarch.PredictorKind]*trace.BitPlane)
	pts := make([]pipeline.BatchPoint, len(cfgs))
	for i, cfg := range cfgs {
		mem, ok := memPlanes[cfg.Hier]
		if !ok {
			mem = annotationFor(t, tr, cfg)
			memPlanes[cfg.Hier] = mem
		}
		br, ok := brPlanes[cfg.Predictor]
		if !ok {
			br = branchPlane(tr, cfg.Predictor)
			brPlanes[cfg.Predictor] = br
		}
		pts[i] = pipeline.BatchPoint{
			Cfg: cfg,
			Ann: pipeline.Annotation{Mem: mem.Mem, MemStats: mem.MemStats, Br: br},
		}
	}
	return pts
}

// TestBatchMatchesAnnotatedTable2 pins SimulateAnnotatedBatch over
// pooled annotation planes == Simulate (the full Result struct,
// including cache stats) on a real workload trace across all 192
// Table 2 design points evaluated in a single batch.
func TestBatchMatchesAnnotatedTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("192-config differential sweep")
	}
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	space := dse.Space(uarch.Default())
	pts := batchPointsFor(t, pw.Trace, space)
	got, err := pipeline.SimulateAnnotatedBatch(pw.Trace, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(space) {
		t.Fatalf("batch returned %d results for %d points", len(got), len(space))
	}
	for i, cfg := range space {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, cfg.Name, want, got[i])
	}
}

// TestBatchMatchesAnnotatedRandom differentially tests the multi-lane
// batch against Simulate on random programs across randomized Table 2
// configurations (every width, depth, L2 geometry and predictor
// appears across the seeds), one batch call per program over pooled
// planes.
func TestBatchMatchesAnnotatedRandom(t *testing.T) {
	space := dse.Space(uarch.Default())
	for seed := int64(1); seed <= 6; seed++ {
		p := randprog.Generate(randprog.Default(seed))
		pw, err := harness.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []uarch.Config
		for i := int(seed) - 1; i < len(space); i += 6 {
			cfgs = append(cfgs, space[i])
		}
		pts := batchPointsFor(t, pw.Trace, cfgs)
		got, err := pipeline.SimulateAnnotatedBatch(pw.Trace, pts)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			want, err := pipeline.Simulate(pw.Trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, cfg.Name, want, got[i])
		}
	}
}

// TestBatchEdgeCases covers the degenerate inputs: no points, an
// invalid config, mismatched planes, and a front-end deeper than the
// 16-slot drain ring, which must be an error rather than a panic.
func TestBatchEdgeCases(t *testing.T) {
	p := randprog.Generate(randprog.Default(42))
	pw, err := harness.ProfileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.SimulateAnnotatedBatch(pw.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}

	bad := uarch.Default()
	bad.Width = 0
	if _, err := pipeline.SimulateAnnotatedBatch(pw.Trace, []pipeline.BatchPoint{{Cfg: bad}}); err == nil {
		t.Fatal("invalid config accepted")
	}

	cfg := uarch.Default()
	ann := annotationFor(t, pw.Trace, cfg)
	short := pipeline.Annotation{Mem: trace.NewBytePlaneBuilder().Plane(), Br: ann.Br}
	if _, err := pipeline.SimulateAnnotatedBatch(pw.Trace, []pipeline.BatchPoint{{Cfg: cfg, Ann: short}}); err == nil {
		t.Fatal("mismatched annotation plane accepted")
	}

	deep := cfg
	deep.FrontEndDepth = 17
	if err := deep.Validate(); err != nil {
		t.Fatalf("depth-17 config should be valid for Simulate: %v", err)
	}
	if _, err := pipeline.SimulateAnnotatedBatch(pw.Trace, []pipeline.BatchPoint{{Cfg: cfg, Ann: ann}, {Cfg: deep, Ann: ann}}); err == nil {
		t.Fatal("front-end depth 17 accepted")
	}
}

// TestBatchCancel verifies a cancelled context aborts the batch with
// ctx.Err() and an uncancelled one-lane run is bit-identical to
// Simulate.
func TestBatchCancel(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.Default()
	pts := batchPointsFor(t, pw.Trace, []uarch.Config{cfg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pipeline.SimulateAnnotatedBatchCtx(ctx, pw.Trace, pts); err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	got, err := pipeline.SimulateAnnotatedBatch(pw.Trace, pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.Simulate(pw.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, cfg.Name, want, got[0])
}
