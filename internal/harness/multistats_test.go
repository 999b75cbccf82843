package harness

import (
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// table2Combos enumerates the 16 distinct (L2 size, L2 ways, predictor)
// statistics sets behind the 192-point Table 2 space.
func table2Combos() []uarch.Config {
	var out []uarch.Config
	base := uarch.Default()
	for _, sizeKB := range []int{128, 256, 512, 1024} {
		for _, ways := range []int{8, 16} {
			for _, pk := range []uarch.PredictorKind{uarch.PredGShare1KB, uarch.PredHybrid3_5KB} {
				out = append(out, base.WithL2(sizeKB, ways).WithPredictor(pk))
			}
		}
	}
	return out
}

// TestMultiStatsMatchesPerConfigReplay pins the tentpole property: the
// single-pass engine must reproduce, bit for bit, the statistics the
// per-configuration replay collects for every Table 2 combination.
func TestMultiStatsMatchesPerConfigReplay(t *testing.T) {
	for _, name := range []string{"sha", "tiff2bw"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			pw := MustProfileProgram(spec.Build())
			combos := table2Combos()
			ms, err := CollectMultiStats(pw.Trace, combos)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range combos {
				wantC, wantB, err := MachineStats(pw.Trace, cfg)
				if err != nil {
					t.Fatal(err)
				}
				gotC, gotB, err := ms.Stats(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if gotC != wantC {
					t.Errorf("%s: cache stats diverge\n got  %+v\n want %+v", cfg, gotC, wantC)
				}
				if gotB != wantB {
					t.Errorf("%s: branch stats diverge\n got  %+v\n want %+v", cfg, gotB, wantB)
				}
			}
		})
	}
}

// TestCollectMultiStatsSinglePass asserts the whole Table 2 space
// costs exactly one trace traversal.
func TestCollectMultiStatsSinglePass(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	before := ReplayCount()
	if _, err := CollectMultiStats(pw.Trace, table2Combos()); err != nil {
		t.Fatal(err)
	}
	if got := ReplayCount() - before; got != 1 {
		t.Errorf("CollectMultiStats over 16 combos took %d replays, want 1", got)
	}
}

// TestMultiStatsUnknownConfig verifies lookups outside the collected
// space fail loudly instead of returning zero statistics.
func TestMultiStatsUnknownConfig(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	base := uarch.Default()
	ms, err := CollectMultiStats(pw.Trace, []uarch.Config{base})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms.Stats(base.WithL2(128, 16)); err == nil {
		t.Error("unknown hierarchy accepted")
	}
	if _, _, err := ms.Stats(base.WithPredictor(uarch.PredBimodal2KB)); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// sameInputs fails the test unless set resolves every configuration in
// cfgs to the model inputs a one-shot MultiInputs collects.
func sameInputs(t *testing.T, pw *Profiled, set *InputsSet, cfgs []uarch.Config) {
	t.Helper()
	ref, err := pw.MultiInputs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		got, err := set.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mem != want.Mem || got.Branch != want.Branch || got.Prof != want.Prof {
			t.Errorf("%s: inputs differ from MultiInputs:\n got  %+v %+v\n want %+v %+v",
				cfg.Name, got.Mem, got.Branch, want.Mem, want.Branch)
		}
	}
}

// TestExploreInputsWarmCostsNoReplay pins that the model inputs of a
// validated exploration travel with the annotation entries: without an
// artifact store, a cold call, a call over partly resident planes and
// a fully warm call all cost no statistics traversal, and every input
// is bit-identical to MultiInputs'.
func TestExploreInputsWarmCostsNoReplay(t *testing.T) {
	pw := MustProfileProgram(mustSpec(t, "sha").Build())
	cfgs := table2Subset(t)
	if err := pw.EnsureAnnotated(cfgs[:2], 2); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"partly resident", "warm"} {
		r0 := ReplayCount()
		set, err := pw.ExploreInputs(cfgs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := ReplayCount() - r0; d != 0 {
			t.Errorf("%s ExploreInputs cost %d statistics replays, want 0", pass, d)
		}
		sameInputs(t, pw, set, cfgs)
	}
}

// TestExploreInputsDiskLoadedCostsOneReplay pins the one gap: planes
// rehydrated from the artifact store carry no model statistics (the
// format stores none), so one traversal covers every such component —
// at most one replay per call — with inputs still bit-identical to
// MultiInputs'. A gap of predictors only (a new hierarchy computed
// beside disk-loaded predictor planes) is covered the same way.
func TestExploreInputsDiskLoadedCostsOneReplay(t *testing.T) {
	store := openTestStore(t)
	cfgs := table2Subset(t)
	pwCold, _, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil {
		t.Fatal(err)
	}
	if err := pwCold.EnsureAnnotated(cfgs, 2); err != nil {
		t.Fatal(err)
	}

	pwWarm, fromDisk, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil {
		t.Fatal(err)
	}
	if !fromDisk {
		t.Fatal("second Profiled did not rehydrate from the store")
	}
	c0, b0, r0 := CacheAnnotationCount(), BranchAnnotationCount(), ReplayCount()
	set, err := pwWarm.ExploreInputs(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dc, db := CacheAnnotationCount()-c0, BranchAnnotationCount()-b0; dc != 0 || db != 0 {
		t.Errorf("disk-loaded ExploreInputs annotated %d/%d components, want 0", dc, db)
	}
	if d := ReplayCount() - r0; d > 1 {
		t.Errorf("disk-loaded ExploreInputs cost %d statistics replays, want at most 1", d)
	}
	sameInputs(t, pwWarm, set, cfgs)

	// A hierarchy not in the store is annotated (and carries its
	// statistics); the store's predictor planes do not.
	fresh := []uarch.Config{cfgs[0].WithL2(128, 16), cfgs[1].WithL2(128, 16)}
	r1 := ReplayCount()
	set, err = pwWarm.ExploreInputs(fresh, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := ReplayCount() - r1; d > 1 {
		t.Errorf("predictor-only gap cost %d statistics replays, want at most 1", d)
	}
	sameInputs(t, pwWarm, set, fresh)
}

// TestExploreInputsConcurrentUnderBudget runs validated-explore passes
// from several goroutines at once on one Profiled whose byte budget
// evicts planes as they are published, so claims, waits on other
// goroutines' claims and evicted-but-held values all interleave. Every
// goroutine must get MultiInputs' inputs and pipeline.Simulate's
// results.
func TestExploreInputsConcurrentUnderBudget(t *testing.T) {
	pw := MustProfileProgram(mustSpec(t, "crc32").Build())
	pw.SetAnnotBudget(32 << 10)
	cfgs := budgetSpaceConfigs()
	want := make([]pipeline.Result, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if want[i], err = pipeline.Simulate(pw.Trace, cfg); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := pw.MultiInputs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts at a different point, so the
			// goroutines claim overlapping component sets.
			sub := append(append([]uarch.Config(nil), cfgs[g:]...), cfgs[:g]...)
			set, err := pw.ExploreInputs(sub, 2)
			if err != nil {
				t.Error(err)
				return
			}
			for _, cfg := range sub {
				got, err1 := set.Inputs(cfg)
				exp, err2 := ref.Inputs(cfg)
				if err1 != nil || err2 != nil || got != exp {
					t.Errorf("goroutine %d, %s: inputs differ from MultiInputs (%v, %v)", g, cfg.Name, err1, err2)
				}
			}
			res, err := pw.SimulateDetailedBatch(sub, 2)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range sub {
				if res[i] != want[(i+g)%len(cfgs)] {
					t.Errorf("goroutine %d, %s: batch diverges from Simulate", g, sub[i].Name)
				}
			}
		}()
	}
	wg.Wait()
	if used := pw.AnnotBytes(); used > 32<<10 {
		t.Errorf("resident bytes %d exceed the 32 KiB budget", used)
	}
}
