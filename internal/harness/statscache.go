package harness

import (
	"context"
	"maps"
	"slices"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/uarch"
)

// StatsCache accumulates machine statistics for an incrementally
// discovered design-point set — the evaluation substrate of the
// heuristic search (dse.Search), whose generations arrive one batch at
// a time rather than as one known-up-front space. Each AddCtx collects
// only the components (distinct cache hierarchies, distinct branch
// predictors) not yet cached, in at most one trace traversal; a batch
// whose components are all cached costs no replay at all. Statistics
// are bit-identical to a one-shot CollectMultiStats over the union:
// the stack-distance engines and predictor collectors produce
// per-component results independent of which other components share a
// traversal.
//
// A StatsCache is not safe for concurrent use; the search drives it
// from one goroutine.
type StatsCache struct {
	pw      *Profiled
	mem     map[cache.HierarchyConfig]cache.Stats
	br      map[uarch.PredictorKind]branch.Stats
	replays int
}

// NewStatsCache returns an empty cache over pw's trace.
func (pw *Profiled) NewStatsCache() *StatsCache {
	return &StatsCache{
		pw:  pw,
		mem: make(map[cache.HierarchyConfig]cache.Stats),
		br:  make(map[uarch.PredictorKind]branch.Stats),
	}
}

// AddCtx ensures every configuration in cfgs has its statistics
// cached, collecting the missing components in at most one trace
// traversal (aborted at a chunk boundary once ctx ends, caching
// nothing).
func (c *StatsCache) AddCtx(ctx context.Context, cfgs []uarch.Config) error {
	var (
		missH []cache.HierarchyConfig
		missP []uarch.PredictorKind
	)
	for _, cfg := range cfgs {
		if _, ok := c.mem[cfg.Hier]; !ok && !slices.Contains(missH, cfg.Hier) {
			missH = append(missH, cfg.Hier)
		}
		if _, ok := c.br[cfg.Predictor]; !ok && !slices.Contains(missP, cfg.Predictor) {
			missP = append(missP, cfg.Predictor)
		}
	}
	if len(missH)+len(missP) == 0 {
		return nil
	}
	ms, err := collectStats(ctx, c.pw.Trace, missH, missP)
	if err != nil {
		return err
	}
	c.replays++
	maps.Copy(c.mem, ms.cacheStats)
	maps.Copy(c.br, ms.branchStats)
	return nil
}

// Inputs assembles the model inputs for one cached design point; a
// configuration never passed to AddCtx is an error.
func (c *StatsCache) Inputs(cfg uarch.Config) (core.Inputs, error) {
	ms := MultiStats{cacheStats: c.mem, branchStats: c.br}
	cs, bs, err := ms.Stats(cfg)
	if err != nil {
		return core.Inputs{}, err
	}
	return core.Inputs{Prof: c.pw.Prof, Mem: cs, Branch: bs}, nil
}

// Replays returns the number of trace traversals this cache has
// performed — the search's statistics-economy counter.
func (c *StatsCache) Replays() int { return c.replays }
