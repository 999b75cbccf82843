package harness

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// safeSimulateAnnotatedBatch runs the config-parallel replay kernel
// with panics converted to errors (see safeAnnotateFront): a panic
// unwinding past claimed timing entries would wedge their waiters.
func safeSimulateAnnotatedBatch(ctx context.Context, tr *trace.Trace, pts []pipeline.BatchPoint) (res []pipeline.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("harness: batch detailed simulation of %d points panicked: %v", len(pts), r)
		}
	}()
	return pipeline.SimulateAnnotatedBatchCtx(ctx, tr, pts)
}

// SimulateDetailed runs the detailed cycle-accurate simulation of one
// design point as a one-point SimulateDetailedBatch: machine events
// come from the (cached) annotation planes and the replay is
// timing-only arithmetic. Timing results are memoized by (timing
// parameters, plane identity) — design points whose planes
// canonicalized to the same objects share one replay, and only the
// hierarchy statistics are stamped per configuration. The Result is
// bit-identical to pipeline.Simulate's. Front-end depths above 16 are
// rejected with an error (the annotated kernel's drain ring has 16
// slots); every supported design space stops at depth 6.
func (pw *Profiled) SimulateDetailed(cfg uarch.Config) (pipeline.Result, error) {
	return pw.SimulateDetailedCtx(context.Background(), cfg)
}

// SimulateDetailedCtx is SimulateDetailed under a request context,
// with SimulateDetailedBatchCtx's cancellation contract.
func (pw *Profiled) SimulateDetailedCtx(ctx context.Context, cfg uarch.Config) (pipeline.Result, error) {
	res, err := pw.SimulateDetailedBatchCtx(ctx, []uarch.Config{cfg}, 1)
	if err != nil {
		return pipeline.Result{}, err
	}
	return res[0], nil
}

// SimulateDetailedBatch runs the detailed cycle-accurate simulation of
// every design point in cfgs through the config-parallel annotated
// kernel: the trace is annotated once per distinct component, the
// points are deduplicated through the timing memo, and all
// memo-missing points replay together in one pass over each trace
// chunk (pipeline.SimulateAnnotatedBatch), sharded across workers by
// stream (see sortByStream). Results are indexed like cfgs and each is
// bit-identical to pipeline.Simulate's.
func (pw *Profiled) SimulateDetailedBatch(cfgs []uarch.Config, workers int) ([]pipeline.Result, error) {
	return pw.SimulateDetailedBatchCtx(context.Background(), cfgs, workers)
}

// SimulateDetailedBatchCtx is SimulateDetailedBatch under a request
// context: own replays abort at chunk boundaries once ctx ends, waits
// on other requests' in-flight entries abandon promptly, and another
// request's cancellation is recomputed rather than reported (the same
// contract as EnsureAnnotatedCtx). A cancelled batch resolves and
// removes every timing entry it claimed — no partial memo entries
// survive.
func (pw *Profiled) SimulateDetailedBatchCtx(ctx context.Context, cfgs []uarch.Config, workers int) ([]pipeline.Result, error) {
	for {
		res, err := pw.simulateDetailedBatch(ctx, cfgs, workers)
		if err != nil && isCancellation(err) && ctx.Err() == nil {
			continue
		}
		return res, err
	}
}

func (pw *Profiled) simulateDetailedBatch(ctx context.Context, cfgs []uarch.Config, workers int) ([]pipeline.Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	c, err := pw.ensureAnnotated(ctx, cfgs, workers)
	if err != nil {
		return nil, err
	}
	anns := make([]pipeline.Annotation, len(cfgs))
	for i, cfg := range cfgs {
		anns[i] = c.annotation(cfg)
	}

	// Partition the points over the timing memo: the first point of
	// each memo-missing key claims it (singleflight — concurrent
	// requests for the same key wait below), repeat keys within this
	// call ride the claim, and present keys are waited on.
	st := &pw.annot
	st.mu.Lock()
	if st.timing == nil {
		st.timing = make(map[timingKey]*annotEntry[pipeline.Result])
	}
	keys := make([]timingKey, len(cfgs))
	own := make(map[timingKey]*annotEntry[pipeline.Result])
	waits := make(map[timingKey]*annotEntry[pipeline.Result])
	var claims []claim
	for i, cfg := range cfgs {
		k := timingKeyOf(cfg, anns[i].Mem, anns[i].Br)
		keys[i] = k
		if _, mine := own[k]; mine {
			continue
		}
		if e, ok := st.timing[k]; ok {
			st.touchLocked(&e.lastUse)
			waits[k] = e
			continue
		}
		e := &annotEntry[pipeline.Result]{done: make(chan struct{})}
		st.timing[k] = e
		own[k] = e
		claims = append(claims, claim{key: k, rep: i})
	}
	st.mu.Unlock()
	sortByStream(claims)

	// Replay every claimed key in config-parallel batches, one shard
	// per worker. Every claim is resolved exactly once below — a shard
	// error (including cancellation and converted panics) resolves its
	// claims with the error and removes them so a later call retries;
	// completed shards publish even when a sibling failed, so their
	// work is kept.
	ownRes := make(map[timingKey]pipeline.Result, len(claims))
	if len(claims) > 0 {
		ns := min(par.Workers(workers), len(claims))
		shardRes := make([][]pipeline.Result, ns)
		shardErr := make([]error, ns)
		lo := func(s int) int { return s * len(claims) / ns }
		cutErr := par.ForEachCtx(ctx, workers, ns, func(s int) error {
			a, b := lo(s), lo(s+1)
			pts := make([]pipeline.BatchPoint, b-a)
			for j := a; j < b; j++ {
				i := claims[j].rep
				pts[j-a] = pipeline.BatchPoint{Cfg: cfgs[i], Ann: anns[i]}
			}
			shardRes[s], shardErr[s] = safeSimulateAnnotatedBatch(ctx, pw.Trace, pts)
			return nil
		})
		var firstErr error
		st.mu.Lock()
		for s := 0; s < ns; s++ {
			err := shardErr[s]
			if err == nil && shardRes[s] == nil {
				err = cutErr // shard never ran: the cancellation cut it
			}
			for j := lo(s); j < lo(s+1); j++ {
				k := claims[j].key
				e := own[k]
				if err != nil {
					e.err = err
					if firstErr == nil {
						firstErr = err
					}
					if st.timing[k] == e {
						delete(st.timing, k)
					}
				} else {
					e.val = shardRes[s][j-lo(s)]
					e.val.Cache = cache.Stats{} // stamped per configuration on use
					st.chargeTimingLocked(k, e)
					ownRes[k] = e.val
				}
				close(e.done)
			}
		}
		st.evictLocked()
		st.mu.Unlock()
		if firstErr != nil {
			return nil, firstErr
		}
	}

	// Waits on other requests' claims abandon when ctx ends — every
	// claim of this call is already resolved above.
	waitRes := make(map[timingKey]pipeline.Result, len(waits))
	for k, e := range waits {
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		waitRes[k] = e.val
	}

	out := make([]pipeline.Result, len(cfgs))
	for i := range cfgs {
		res, ok := ownRes[keys[i]]
		if !ok {
			res = waitRes[keys[i]]
		}
		res.Cache = anns[i].MemStats
		out[i] = res
	}
	return out, nil
}

// claim is one timing key this call replays, with the index of the
// configuration that represents it.
type claim struct {
	key timingKey
	rep int
}

// sortByStream orders claims by the kernel's stream — (memory plane,
// branch plane, width), planes ranked by first appearance so the order
// is deterministic — keeping the original order within a stream. The
// contiguous shard split then hands each shard few streams: each
// builds a plane's uops and decomposes a stream once, where an
// unsorted split makes every shard redo every stream.
func sortByStream(claims []claim) {
	memRank := make(map[*trace.BytePlane]int)
	brRank := make(map[*trace.BitPlane]int)
	for _, c := range claims {
		if _, ok := memRank[c.key.mem]; !ok {
			memRank[c.key.mem] = len(memRank)
		}
		if _, ok := brRank[c.key.br]; !ok {
			brRank[c.key.br] = len(brRank)
		}
	}
	slices.SortStableFunc(claims, func(a, b claim) int {
		return cmp.Or(
			cmp.Compare(memRank[a.key.mem], memRank[b.key.mem]),
			cmp.Compare(brRank[a.key.br], brRank[b.key.br]),
			cmp.Compare(a.key.width, b.key.width),
		)
	})
}
