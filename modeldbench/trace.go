package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/workloads"
)

// work is a snapshot of the work counters the layers expose.
type work struct {
	replays, cacheAnn, branchAnn  int64 // harness
	profiles, diskHits, evictions int64 // harness pool
	hits, misses                  int64 // harness pool
	mapped                        int64 // artifact
}

func readWork(ps harness.PoolStats) work {
	return work{
		replays:   harness.ReplayCount(),
		cacheAnn:  harness.CacheAnnotationCount(),
		branchAnn: harness.BranchAnnotationCount(),
		profiles:  ps.Profiles,
		diskHits:  ps.DiskHits,
		evictions: ps.Evictions,
		hits:      ps.Hits,
		misses:    ps.Misses,
		mapped:    artifact.MappedLoadCount(),
	}
}

func (w work) add(o work) work {
	return work{
		w.replays + o.replays, w.cacheAnn + o.cacheAnn, w.branchAnn + o.branchAnn,
		w.profiles + o.profiles, w.diskHits + o.diskHits, w.evictions + o.evictions,
		w.hits + o.hits, w.misses + o.misses, w.mapped + o.mapped,
	}
}

func (w work) sub(o work) work {
	return work{
		w.replays - o.replays, w.cacheAnn - o.cacheAnn, w.branchAnn - o.branchAnn,
		w.profiles - o.profiles, w.diskHits - o.diskHits, w.evictions - o.evictions,
		w.hits - o.hits, w.misses - o.misses, w.mapped - o.mapped,
	}
}

// crossChecked lists the counts the handler run and the layer replay
// must agree on.
func (w work) crossChecked() []struct {
	name string
	n    int64
} {
	return []struct {
		name string
		n    int64
	}{
		{"stats replays", w.replays}, {"cache annotations", w.cacheAnn},
		{"branch annotations", w.branchAnn}, {"profiles", w.profiles},
		{"disk hits", w.diskHits}, {"mapped loads", w.mapped},
	}
}

// newReplayer builds the layer replay's state the way service.New and
// set-up build the server's: a pool with the same bounds over its own
// artifact store and ingest registry, with the resident set admitted.
// The admitted workloads are fresh copies of the handler run's
// profiles — same trace and profile, empty memos — so both runs replay
// the very same trace memory.
func newReplayer(ctx context.Context, wl *workload, dir string, workers int, refs map[string]*harness.Profiled) (*replayer, error) {
	cfg := wl.config(dir)
	rp := &replayer{
		minDyn:  cfg.MinDynInsts,
		workers: workers,
		pm:      power.NewModel(),
		lim:     cfg.Ingest.WithDefaults(),
	}
	opts := harness.PoolOptions{MaxWorkloads: cfg.MaxWorkloads, MaxPlaneBytes: cfg.MaxPlaneBytes, MinDynInsts: cfg.MinDynInsts}
	regDir := ""
	if cfg.ArtifactDir != "" {
		store, err := artifact.Open(cfg.ArtifactDir)
		if err != nil {
			return nil, err
		}
		rp.tier = &timedTier{Store: store, parent: -1}
		opts.Store = rp.tier
		regDir = filepath.Join(cfg.ArtifactDir, "ingest")
	}
	reg, err := ingest.OpenRegistry(regDir, rp.lim)
	if err != nil {
		return nil, err
	}
	rp.registry = reg
	rp.pool = harness.NewPool(opts)
	for _, name := range wl.resident {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		pw := refs[name]
		if _, err := rp.pool.GetBuiltCtx(ctx, name, spec.Build, func(context.Context, *program.Program) (*harness.Profiled, error) {
			return pw.Fresh(), nil
		}); err != nil {
			return nil, fmt.Errorf("admitting %s: %w", name, err)
		}
	}
	return rp, nil
}

// perLayer is the per-layer metric set, in report order.
var perLayer = []struct {
	name, unit string
}{
	{"service.decode_us", "us"},
	{"service.encode_us", "us"},
	{"service.residual_ms", "ms"},
	{"harness.stats_ms", "ms"},
	{"harness.stats_replays_per_req", "count/req"},
	{"core.predict_us", "us"},
	{"harness.annotate_ms", "ms"},
	{"harness.cache_annotations_per_req", "count/req"},
	{"harness.branch_annotations_per_req", "count/req"},
	{"pipeline.batch_ms", "ms"},
	{"pipeline.ns_per_inst_point", "ns"},
	{"dse.assemble_ms", "ms"},
	{"harness.pool_get_ms", "ms"},
	{"workloads.build_ms", "ms"},
	{"harness.pool_hit_ratio", "ratio"},
	{"harness.pool_evictions", "count"},
	{"harness.profiles", "count"},
	{"harness.disk_hits", "count"},
	{"artifact.load_ms", "ms"},
	{"artifact.mapped_loads", "count"},
	{"artifact.save_ms", "ms"},
	{"ingest.parse_ms", "ms"},
	{"ingest.profile_ms", "ms"},
	{"runtime.alloc_mb_per_req", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"model_err_pct", "%"},
}

// layerMetric names the per-request time metric of each span layer.
var layerMetric = [numLayers]string{
	lDecode:   "service.decode_us",
	lParse:    "ingest.parse_ms",
	lPoolGet:  "harness.pool_get_ms",
	lBuild:    "workloads.build_ms",
	lLoad:     "artifact.load_ms",
	lSave:     "artifact.save_ms",
	lProfile:  "ingest.profile_ms",
	lStats:    "harness.stats_ms",
	lAnnotate: "harness.annotate_ms",
	lPredict:  "core.predict_us",
	lBatch:    "pipeline.batch_ms",
	lAssemble: "dse.assemble_ms",
	lEncode:   "service.encode_us",
}

// traceChunks is how many alternating chunks the traced run splits its
// prefix into.
const traceChunks = 12

// traceRun replays the first traceN requests of the sequence twice on
// equal fresh state: through the handler, timing each request and
// counting the work, and through the layers' public functions with a
// span around each call. The replay must reproduce every handler
// response byte for byte and cause the same work.
func traceRun(ctx context.Context, wl *workload, seed int64, dir string) (result, error) {
	if wl.cycle > 0 && wl.traceN > wl.cycle {
		return result{}, fmt.Errorf("%s: the traced prefix of %d requests spans more than one cycle", wl.name, wl.traceN)
	}
	srv, refs, _, err := setUpRepeated(ctx, wl, dir, setupBefore, true)
	if err != nil {
		return result{}, err
	}
	rp, err := newReplayer(ctx, wl, filepath.Join(dir, "layers"), srv.MetricsSnapshot().Workers.PerExplore, refs)
	if err != nil {
		return result{}, fmt.Errorf("layer set-up: %w", err)
	}

	reqs, err := requests(wl, seed, 0, wl.traceN)
	if err != nil {
		return result{}, err
	}
	// The two runs alternate in chunks, so that a change in the host's
	// speed during the run shows in both alike and not in the residual,
	// and take turns going first, so that neither gains from finding the
	// other's trace memory in the caches. The work counters are
	// process-wide, so the runs never overlap.
	var (
		hOuts, lOuts []outcome
		hWork, lWork work
		alloc, pause uint64
		m0, m1       runtime.MemStats
	)
	handlerChunk := func(from int, chunk []request) {
		w0 := readWork(srv.Pool().Stats())
		runtime.ReadMemStats(&m0)
		outs, _ := drive(chunk, from, 0, serveHandler(srv.Handler()))
		runtime.ReadMemStats(&m1)
		hWork = hWork.add(readWork(srv.Pool().Stats()).sub(w0))
		alloc += m1.TotalAlloc - m0.TotalAlloc
		pause += m1.PauseTotalNs - m0.PauseTotalNs
		hOuts = append(hOuts, outs...)
	}
	layerChunk := func(from int, chunk []request) {
		l0 := readWork(rp.pool.Stats())
		outs, _ := drive(chunk, from, 0, serveLayers(ctx, rp))
		lWork = lWork.add(readWork(rp.pool.Stats()).sub(l0))
		lOuts = append(lOuts, outs...)
	}
	runtime.GC()
	size := (wl.traceN + traceChunks - 1) / traceChunks
	for k, from := 0, 0; from < wl.traceN; k, from = k+1, from+size {
		chunk := reqs[from:min(from+size, wl.traceN)]
		if k%2 == 0 {
			handlerChunk(from, chunk)
			layerChunk(from, chunk)
		} else {
			layerChunk(from, chunk)
			handlerChunk(from, chunk)
		}
	}
	if len(hOuts) != len(lOuts) {
		return result{}, fmt.Errorf("handler run issued %d requests, layer replay %d", len(hOuts), len(lOuts))
	}

	n := len(hOuts)
	var c checked
	var self [numLayers]time.Duration
	var handlerSum time.Duration
	var instPoints int64
	hLats := make([]float64, n)
	for i := range hOuts {
		h, l := hOuts[i], lOuts[i]
		hLats[i] = ms(h.lat)
		handlerSum += h.lat
		switch {
		case h.status < 200 || h.status > 299:
			c.fail(h, fmt.Sprintf("handler status %d: %s", h.status, bytes.TrimSpace(h.body)))
		case l.status != h.status || !bytes.Equal(l.body, h.body):
			c.fail(h, fmt.Sprintf("layer replay answered %d %q, handler %d", l.status, firstLine(l.body), h.status))
		}
		s := l.rec.self()
		for k := range self {
			self[k] += s[k]
		}
		instPoints += l.rec.instPoints
	}
	correct := c.failed == 0
	for i, hc := range hWork.crossChecked() {
		if lc := lWork.crossChecked()[i]; hc.n != lc.n {
			correct = false
			fmt.Printf("work mismatch: %s: handler %d, layer replay %d\n", hc.name, hc.n, lc.n)
		}
	}

	per := func(d time.Duration) time.Duration { return d / time.Duration(n) }
	vals := make(map[string]float64)
	var layerSum time.Duration
	for l := layer(0); l < numLayers; l++ {
		d := per(self[l])
		layerSum += d
		if strings.HasSuffix(layerMetric[l], "_us") {
			vals[layerMetric[l]] = d.Seconds() * 1e6
		} else {
			vals[layerMetric[l]] = ms(d)
		}
	}
	handlerMean := per(handlerSum)
	vals["service.residual_ms"] = ms(handlerMean - layerSum)
	if err := spansFit(handlerMean, layerSum); err != nil {
		correct = false
		fmt.Println(err)
	}
	fn := float64(n)
	vals["harness.stats_replays_per_req"] = float64(hWork.replays) / fn
	vals["harness.cache_annotations_per_req"] = float64(hWork.cacheAnn) / fn
	vals["harness.branch_annotations_per_req"] = float64(hWork.branchAnn) / fn
	if instPoints > 0 {
		vals["pipeline.ns_per_inst_point"] = float64(self[lBatch].Nanoseconds()) / float64(instPoints)
	}
	if gets := hWork.hits + hWork.misses; gets > 0 {
		vals["harness.pool_hit_ratio"] = float64(hWork.hits) / float64(gets)
	}
	vals["harness.pool_evictions"] = float64(hWork.evictions)
	vals["harness.profiles"] = float64(hWork.profiles)
	vals["harness.disk_hits"] = float64(hWork.diskHits)
	vals["artifact.mapped_loads"] = float64(hWork.mapped)
	vals["runtime.alloc_mb_per_req"] = float64(alloc) / fn / (1 << 20)
	vals["runtime.gc_pause_ms"] = float64(pause) / 1e6
	vals["model_err_pct"], _ = modelErr(hOuts)

	res := result{Correct: correct, Attempted: n, Failed: c.failed, Metrics: make(map[string]metric)}
	fmt.Printf("workload %s seed %d: traced %d requests (handler, then layers)\n", wl.name, seed, n)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		fmt.Printf("%-36s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	if c.example != "" {
		fmt.Printf("first failure: %s\n", c.example)
	}
	report(wl.name, self, n, handlerMean, median(hLats))
	return res, nil
}

// spanSlack is how far the layer spans may exceed the handler's time
// before the traced run fails. The two are measured in separate runs of
// the same requests, whose means differ by a few percent from noise
// alone; a replay that does more work than the handler exceeds it by
// far more.
const spanSlack = 0.10

// spansFit checks that the mean layer time per request, summed over the
// layers, fits inside the handler's mean latency, allowing spanSlack
// for noise.
func spansFit(handlerMean, layerSum time.Duration) error {
	if float64(layerSum) > (1+spanSlack)*float64(handlerMean) {
		return fmt.Errorf("layer spans take %.4f ms per request, more than the handler's %.4f ms by over %.0f%%",
			ms(layerSum), ms(handlerMean), 100*spanSlack)
	}
	return nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}

// report prints the accounting of the handler's mean latency: per-layer
// self time per request, which add up because every span is
// attributed once, plus the residual the spans do not cover, and the
// verdict on which layers dominate.
func report(name string, self [numLayers]time.Duration, n int, mean time.Duration, med float64) {
	fmt.Printf("accounting: handler latency mean %.4f ms, median %.4f ms over %d requests\n", ms(mean), med, n)
	share := func(ls ...layer) float64 {
		var d time.Duration
		for _, l := range ls {
			d += self[l]
		}
		return float64(d/time.Duration(n)) / float64(mean)
	}
	var covered float64
	for l := layer(0); l < numLayers; l++ {
		if self[l] == 0 {
			continue
		}
		s := share(l)
		covered += s
		fmt.Printf("  %-24s %8.4f ms/req %6.1f%%\n", layerMetric[l], ms(self[l]/time.Duration(n)), 100*s)
	}
	fmt.Printf("  %-24s %8.4f ms/req %6.1f%%\n", "service.residual_ms", ms(mean)*(1-covered), 100*(1-covered))
	switch name {
	case "predict_warm":
		s := share(lStats)
		fmt.Printf("verdict: harness.stats_ms is %.1f%% of predict_warm's mean latency: %s\n", 100*s, dominates(s))
	case "explore_validate":
		s := share(lAnnotate, lBatch)
		fmt.Printf("verdict: harness.annotate_ms + pipeline.batch_ms are %.1f%% of explore_validate's mean latency: %s\n", 100*s, dominates(s))
	case "ingest_churn":
		s := share(lPoolGet, lBuild, lLoad, lSave, lProfile, lParse)
		fmt.Printf("verdict: pool, artifact and ingest layers are %.1f%% of ingest_churn's mean latency: %s\n", 100*s, dominates(s))
	}
}

func dominates(share float64) string {
	if share > 0.5 {
		return "dominates"
	}
	return "does not dominate"
}
