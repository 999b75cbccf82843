package harness

import (
	"context"
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// replays counts full-trace traversals performed for machine-statistics
// collection. Tests use it to pin the single-pass property of the
// design-space exploration: 192 design points, one replay.
var replays atomic.Int64

// ReplayCount returns the number of machine-statistics trace
// traversals performed so far in this process.
func ReplayCount() int64 { return replays.Load() }

// hierFront identifies the L2-independent part of a hierarchy plus the
// L2 block size — the unit one single-pass engine covers.
type hierFront struct {
	il1, dl1    cache.Config
	itlbEntries int
	dtlbEntries int
	pageBytes   int64
	l2Block     int64
}

func frontOf(h cache.HierarchyConfig) hierFront {
	return hierFront{
		il1:         h.IL1,
		dl1:         h.DL1,
		itlbEntries: h.ITLBEntries,
		dtlbEntries: h.DTLBEntries,
		pageBytes:   h.PageBytes,
		l2Block:     h.L2.BlockBytes,
	}
}

// MultiStats holds the mixed program/machine statistics for every
// design point of a space, collected in a single traversal of the
// trace: one stack-distance engine per distinct L1/TLB front covers
// all L2 geometries, and every distinct branch predictor runs
// simultaneously on the same stream.
type MultiStats struct {
	cacheStats  map[cache.HierarchyConfig]cache.Stats
	branchStats map[uarch.PredictorKind]branch.Stats
}

// CollectMultiStats collects machine statistics for every
// configuration in cfgs in one pass over tr. The returned MultiStats
// is immutable and safe for concurrent use.
func CollectMultiStats(tr *trace.Trace, cfgs []uarch.Config) (*MultiStats, error) {
	return CollectMultiStatsCtx(context.Background(), tr, cfgs)
}

// CollectMultiStatsCtx is CollectMultiStats under a context: the
// single statistics traversal aborts at a trace chunk boundary once
// ctx ends, returning ctx.Err() with nothing collected.
func CollectMultiStatsCtx(ctx context.Context, tr *trace.Trace, cfgs []uarch.Config) (*MultiStats, error) {
	var (
		hiers []cache.HierarchyConfig
		preds []uarch.PredictorKind
	)
	seenH := make(map[cache.HierarchyConfig]bool)
	seenP := make(map[uarch.PredictorKind]bool)
	for _, cfg := range cfgs {
		if !seenH[cfg.Hier] {
			seenH[cfg.Hier] = true
			hiers = append(hiers, cfg.Hier)
		}
		if !seenP[cfg.Predictor] {
			seenP[cfg.Predictor] = true
			preds = append(preds, cfg.Predictor)
		}
	}
	return collectStats(ctx, tr, hiers, preds)
}

// collectStats collects the statistics of the given distinct
// hierarchies and predictors in one traversal of tr — and no
// traversal at all when both lists are empty. Only the requested kinds
// run: a predictors-only call builds no cache engine.
func collectStats(ctx context.Context, tr *trace.Trace, hiers []cache.HierarchyConfig, preds []uarch.PredictorKind) (*MultiStats, error) {
	m := &MultiStats{
		cacheStats:  make(map[cache.HierarchyConfig]cache.Stats, len(hiers)),
		branchStats: make(map[uarch.PredictorKind]branch.Stats, len(preds)),
	}
	if len(hiers)+len(preds) == 0 {
		return m, nil
	}

	// One engine per distinct fixed front; one collector per predictor.
	fronts, byFront := groupByFront(hiers)
	engines := make(map[hierFront]*cache.L2SpaceSim, len(fronts))
	consumers := make(trace.Tee, 0, len(fronts)+len(preds))
	for _, f := range fronts {
		base := cache.HierarchyConfig{
			IL1: f.il1, DL1: f.dl1,
			ITLBEntries: f.itlbEntries, DTLBEntries: f.dtlbEntries,
			PageBytes: f.pageBytes,
		}
		l2s := make([]cache.Config, len(byFront[f]))
		for k, h := range byFront[f] {
			l2s[k] = h.L2
		}
		eng, err := cache.NewL2SpaceSim(base, l2s)
		if err != nil {
			return nil, err
		}
		engines[f] = eng
		consumers = append(consumers, eng)
	}
	bcs := make([]*branch.Collector, len(preds))
	for i, pk := range preds {
		bcs[i] = branch.NewCollector(pk.New())
		consumers = append(consumers, bcs[i])
	}

	replays.Add(1)
	if err := tr.ReplayCtx(ctx, consumers); err != nil {
		return nil, err
	}

	for _, h := range hiers {
		cs, err := engines[frontOf(h)].StatsFor(h.L2)
		if err != nil {
			return nil, err
		}
		m.cacheStats[h] = cs
	}
	for i, pk := range preds {
		m.branchStats[pk] = bcs[i].S
	}
	return m, nil
}

// Stats returns the machine statistics for one design point of the
// collected space.
func (m *MultiStats) Stats(cfg uarch.Config) (cache.Stats, branch.Stats, error) {
	cs, ok := m.cacheStats[cfg.Hier]
	if !ok {
		return cache.Stats{}, branch.Stats{}, fmt.Errorf("harness: hierarchy %v not in collected space", cfg.Hier)
	}
	bs, ok := m.branchStats[cfg.Predictor]
	if !ok {
		return cache.Stats{}, branch.Stats{}, fmt.Errorf("harness: predictor %v not in collected space", cfg.Predictor)
	}
	return cs, bs, nil
}

// MultiInputs collects statistics for the whole space in one pass and
// returns the per-configuration model inputs, keyed by the memo
// accessor. See CollectMultiStats.
func (pw *Profiled) MultiInputs(cfgs []uarch.Config) (*InputsSet, error) {
	return pw.MultiInputsCtx(context.Background(), cfgs)
}

// MultiInputsCtx is MultiInputs under a context (see
// CollectMultiStatsCtx).
func (pw *Profiled) MultiInputsCtx(ctx context.Context, cfgs []uarch.Config) (*InputsSet, error) {
	ms, err := CollectMultiStatsCtx(ctx, pw.Trace, cfgs)
	if err != nil {
		return nil, err
	}
	return &InputsSet{pw: pw, ms: ms}, nil
}

// InputsSet resolves model inputs for any configuration of a collected
// space. It is immutable and safe for concurrent use.
type InputsSet struct {
	pw *Profiled
	ms *MultiStats
}

// ExploreInputs is ExploreInputsCtx with a background context.
func (pw *Profiled) ExploreInputs(cfgs []uarch.Config, workers int) (*InputsSet, error) {
	return pw.ExploreInputsCtx(context.Background(), cfgs, workers)
}

// ExploreInputsCtx ensures the annotation planes of every
// configuration in cfgs (EnsureAnnotatedCtx) and returns their model
// inputs from the same pass. The cache engine and predictor that
// compute a component's plane see exactly the stream CollectMultiStats
// would replay, so the end-of-run statistics they leave in the
// component's annotation entry double as its model inputs — whether
// the component was computed by this call, waited on, or already
// resident. Only planes loaded from the artifact store, which does not
// store these statistics, lack them; one CollectMultiStats traversal
// of just those components (and just their kinds) covers the gap. A
// validated exploration over computed or resident components
// therefore performs no statistics traversal at all. The returned
// inputs are bit-identical to MultiInputsCtx's.
func (pw *Profiled) ExploreInputsCtx(ctx context.Context, cfgs []uarch.Config, workers int) (*InputsSet, error) {
	c, err := pw.annotated(ctx, cfgs, workers)
	if err != nil {
		return nil, err
	}
	ms := &MultiStats{
		cacheStats:  make(map[cache.HierarchyConfig]cache.Stats, len(c.hiers)),
		branchStats: make(map[uarch.PredictorKind]branch.Stats, len(c.preds)),
	}
	var (
		gapH []cache.HierarchyConfig
		gapP []uarch.PredictorKind
	)
	for _, h := range c.hiers {
		if mp := c.mem[h]; mp.hasRaw {
			ms.cacheStats[h] = mp.raw
		} else {
			gapH = append(gapH, h)
		}
	}
	for _, pk := range c.preds {
		if bp := c.br[pk]; bp.hasStats {
			ms.branchStats[pk] = bp.stats
		} else {
			gapP = append(gapP, pk)
		}
	}
	if len(gapH)+len(gapP) > 0 {
		gap, err := collectStats(ctx, pw.Trace, gapH, gapP)
		if err != nil {
			return nil, err
		}
		maps.Copy(ms.cacheStats, gap.cacheStats)
		maps.Copy(ms.branchStats, gap.branchStats)
	}
	return &InputsSet{pw: pw, ms: ms}, nil
}

// Inputs assembles the model inputs for one design point.
func (s *InputsSet) Inputs(cfg uarch.Config) (core.Inputs, error) {
	cs, bs, err := s.ms.Stats(cfg)
	if err != nil {
		return core.Inputs{}, err
	}
	return core.Inputs{Prof: s.pw.Prof, Mem: cs, Branch: bs}, nil
}
