package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// layer names one span kind of the traced replay. Each wraps a call
// into one package's public API.
type layer int

const (
	lDecode   layer = iota // query parsing and design-point validation (service)
	lParse                 // source checks, assembly, fingerprint (ingest)
	lPoolGet               // workload pool lookup and admission (harness)
	lBuild                 // program construction for the artifact key, inside a pool admission
	lLoad                  // artifact rehydration, inside a pool admission
	lSave                  // artifact write-through, inside a pool admission
	lProfile               // sandboxed profiling, inside a pool admission
	lStats                 // machine-statistics replay (harness)
	lAnnotate              // fused annotation + inputs pass (harness)
	lPredict               // mechanistic model evaluation (core)
	lBatch                 // detailed timing kernel (pipeline via harness)
	lAssemble              // point and response assembly (dse)
	lEncode                // JSON encoding of the response (service)
	numLayers
)

type span struct {
	l          layer
	parent     int
	start, end time.Duration
}

// recorder collects the spans of one replayed request. Spans are
// recorded from the request's goroutine and, for pool admissions, from
// the pool's admission goroutine, which the request waits on.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span

	instPoints int64 // dynamic instructions × design points simulated
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (-1 for a top-level span) and
// returns its id; a nil recorder records nothing.
func (r *recorder) begin(l layer, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{l: l, parent: parent, start: now, end: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// self returns each layer's self time: its spans' durations minus the
// parts their child spans cover.
func (r *recorder) self() [numLayers]time.Duration {
	var out [numLayers]time.Duration
	for _, s := range r.spans {
		d := s.end - s.start
		out[s.l] += d
		if s.parent >= 0 {
			out[r.spans[s.parent].l] -= d
		}
	}
	return out
}

// timedTier is the artifact store seen through spans: the pool calls
// it from its admission goroutine, so it records into the request that
// is in flight. The benchmark runs one client, so at most one request
// is in flight.
type timedTier struct {
	*artifact.Store
	mu     sync.Mutex
	rec    *recorder
	parent int
}

func (t *timedTier) attach(rec *recorder, parent int) {
	t.mu.Lock()
	t.rec, t.parent = rec, parent
	t.mu.Unlock()
}

func (t *timedTier) current() (*recorder, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec, t.parent
}

func (t *timedTier) LoadWorkload(id artifact.WorkloadID) (*trace.Trace, *profile.Profile, error) {
	rec, parent := t.current()
	defer rec.end(rec.begin(lLoad, parent))
	return t.Store.LoadWorkload(id)
}

func (t *timedTier) SaveWorkload(id artifact.WorkloadID, tr *trace.Trace, prof *profile.Profile) (string, error) {
	rec, parent := t.current()
	defer rec.end(rec.begin(lSave, parent))
	return t.Store.SaveWorkload(id, tr, prof)
}

var _ harness.ArtifactTier = (*timedTier)(nil)

// encodeJSON encodes v exactly as the service's handlers do.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func queryOf(target string) (url.Values, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	return url.ParseQuery(u.RawQuery)
}

func intOr(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// decodePredict parses a /v1/predict target into its workload and
// Table 2 design point, with the service's defaults.
func decodePredict(target string) (string, uarch.Config, error) {
	q, err := queryOf(target)
	if err != nil {
		return "", uarch.Config{}, err
	}
	var v [4]int
	for i, p := range []struct {
		name string
		def  int
	}{{"width", 4}, {"stages", 9}, {"l2kb", 512}, {"l2ways", 8}} {
		if v[i], err = intOr(q, p.name, p.def); err != nil {
			return "", uarch.Config{}, err
		}
	}
	pred := q.Get("pred")
	if pred == "" {
		pred = "gshare"
	}
	cfg, err := uarch.Table2Config(uarch.Default(), v[0], v[1], v[2], v[3], pred)
	return q.Get("bench"), cfg, err
}

// decodeExplore parses a /v1/explore sweep target into its workload
// and the filtered design points of its space, in enumeration order.
func decodeExplore(target string) (string, []uarch.Config, error) {
	q, err := queryOf(target)
	if err != nil {
		return "", nil, err
	}
	d, err := uarch.DomainByName(q.Get("space"))
	if err != nil {
		return "", nil, err
	}
	pts := d.EnumeratePoints()
	axes := d.Axes()
	for ai := range axes {
		v := q.Get(axes[ai].Name)
		if v == "" {
			continue
		}
		idx, err := axes[ai].IndexOfValue(v)
		if err != nil {
			return "", nil, err
		}
		kept := pts[:0:0]
		for _, pt := range pts {
			if pt[ai] == idx {
				kept = append(kept, pt)
			}
		}
		pts = kept
	}
	cfgs := make([]uarch.Config, len(pts))
	for i, pt := range pts {
		if cfgs[i], err = d.Apply(uarch.Default(), pt); err != nil {
			return "", nil, err
		}
	}
	return q.Get("bench"), cfgs, nil
}

// predictResponse builds the /v1/predict answer for one evaluated
// design point.
func predictResponse(bench string, n int64, cfg uarch.Config, st *core.Stack) service.PredictResponse {
	stack := make(map[string]float64)
	for c := core.Component(0); c < core.NumComponents; c++ {
		if st.Cycles[c] != 0 {
			stack[c.String()] = st.CPIOf(c)
		}
	}
	return service.PredictResponse{
		Benchmark:    bench,
		Instructions: n,
		Config: service.ConfigJSON{
			Name:      cfg.String(),
			Width:     cfg.Width,
			Stages:    cfg.PipelineStages(),
			FreqMHz:   cfg.FreqMHz,
			L2KB:      cfg.Hier.L2.SizeBytes / uarch.KB,
			L2Ways:    cfg.Hier.L2.Ways,
			Predictor: uarch.PredictorName(cfg.Predictor),
		},
		Model: service.ModelJSON{
			Cycles:   st.Total(),
			CPI:      st.CPI(),
			Seconds:  cfg.Seconds(st.Total()),
			CPIStack: stack,
		},
	}
}

// exploreResponse runs a validated sweep of cfgs on pw through the
// public calls dse.ExploreValidatedCtx makes — the fused annotation
// pass, the model, the batch timing kernel — and assembles the
// /v1/explore answer, recording a span around each part. The assembly
// between those calls (power objectives, points, best EDP) is dse's and
// the service's own unexported code, so it is redone here: the
// dse.assemble_ms span times this copy, not dse. The response check
// and the work cross-check catch a copy that drifts from dse.
func exploreResponse(ctx context.Context, pw *harness.Profiled, bench string, cfgs []uarch.Config, workers int, pm power.Model, rec *recorder) (service.ExploreResponse, error) {
	id := rec.begin(lAnnotate, -1)
	memo, err := pw.ExploreInputsCtx(ctx, cfgs, workers)
	rec.end(id)
	if err != nil {
		return service.ExploreResponse{}, err
	}
	asm1 := rec.begin(lAssemble, -1)
	pts := make([]dse.Point, 0, len(cfgs))
	for _, cfg := range cfgs {
		in, err := memo.Inputs(cfg)
		if err != nil {
			return service.ExploreResponse{}, err
		}
		pid := rec.begin(lPredict, asm1)
		st, err := core.Predict(in, cfg)
		rec.end(pid)
		if err != nil {
			return service.ExploreResponse{}, err
		}
		obj, err := pm.Objectives(power.EventsFrom(in.Prof, in.Mem, in.Branch), cfg, st.Total())
		if err != nil {
			return service.ExploreResponse{}, err
		}
		pts = append(pts, dse.Point{
			Cfg: cfg, ModelStack: st, ModelCycles: st.Total(), ModelCPI: st.CPI(),
			ModelSecs: obj.DelaySec, ModelEDP: obj.EDP, ModelEnergyJ: obj.EnergyJ,
		})
	}
	rec.end(asm1)

	id = rec.begin(lBatch, -1)
	sims, err := pw.SimulateDetailedBatchCtx(ctx, cfgs, workers)
	rec.end(id)
	if err != nil {
		return service.ExploreResponse{}, err
	}
	if rec != nil {
		rec.instPoints += pw.Prof.N * int64(len(cfgs))
	}

	defer rec.end(rec.begin(lAssemble, -1))
	for i := range pts {
		p := &pts[i]
		in, err := memo.Inputs(p.Cfg)
		if err != nil {
			return service.ExploreResponse{}, err
		}
		obj, err := pm.Objectives(power.EventsFrom(in.Prof, in.Mem, in.Branch), p.Cfg, float64(sims[i].Cycles))
		if err != nil {
			return service.ExploreResponse{}, err
		}
		p.Sim = &sims[i]
		p.SimCPI = sims[i].CPI()
		p.SimSecs, p.SimEDP, p.SimEnergyJ = obj.DelaySec, obj.EDP, obj.EnergyJ
		if p.SimCPI > 0 {
			d := p.ModelCPI - p.SimCPI
			if d < 0 {
				d = -d
			}
			p.CPIErr = d / p.SimCPI
		}
	}
	resp := service.ExploreResponse{Benchmark: bench, Count: len(pts), Validated: true, Workers: workers}
	mBest, sBest := dse.BestEDP(pts)
	if mBest >= 0 {
		resp.ModelBest = pts[mBest].Cfg.Name
	}
	if sBest >= 0 {
		resp.SimBest = pts[sBest].Cfg.Name
	}
	resp.Points = make([]service.ExplorePoint, len(pts))
	var sum, max float64
	for i, p := range pts {
		resp.Points[i] = service.ExplorePoint{
			Name: p.Cfg.Name, ModelCPI: p.ModelCPI, ModelEDP: p.ModelEDP, ModelCycles: p.ModelCycles,
			SimCPI: p.SimCPI, SimEDP: p.SimEDP, SimCycles: p.Sim.Cycles, CPIErrPercent: 100 * p.CPIErr,
		}
		sum += p.CPIErr
		if p.CPIErr > max {
			max = p.CPIErr
		}
	}
	if len(pts) > 0 {
		resp.AvgErrPercent = 100 * sum / float64(len(pts))
		resp.MaxErrPercent = 100 * max
	}
	return resp, nil
}

// replayer answers the benchmark's requests through the layers' public
// functions, in the order the service's handlers call them, over state
// built the same way as the server's.
type replayer struct {
	pool     *harness.Pool
	tier     *timedTier // nil without an artifact store
	registry *ingest.Registry
	minDyn   int64
	workers  int
	pm       power.Model
	lim      ingest.Limits
	progs    sync.Map // ingested name -> *program.Program
}

// get resolves a workload through the pool as the service does: a
// built-in is built from its spec and profiled, an ingested program —
// registered by an earlier submission, or by the one being answered —
// is profiled under the sandbox.
func (p *replayer) get(ctx context.Context, name string, rec *recorder) (*harness.Profiled, error) {
	id := rec.begin(lPoolGet, -1)
	defer rec.end(id)
	if p.tier != nil {
		p.tier.attach(rec, id)
		defer p.tier.attach(nil, -1)
	}
	if spec, err := workloads.ByName(name); err == nil {
		build := func() *program.Program {
			defer rec.end(rec.begin(lBuild, id))
			return spec.Build()
		}
		return p.pool.GetBuiltCtx(ctx, name, build, func(wctx context.Context, prog *program.Program) (*harness.Profiled, error) {
			defer rec.end(rec.begin(lProfile, id))
			return harness.ProfileProgramScaledCtx(wctx, prog, p.minDyn)
		})
	}
	v, ok := p.progs.Load(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	prog := v.(*program.Program)
	return p.pool.GetBuiltCtx(ctx, name, func() *program.Program { return prog }, func(wctx context.Context, prog *program.Program) (*harness.Profiled, error) {
		defer rec.end(rec.begin(lProfile, id))
		pw, err := ingest.Profile(wctx, prog, p.minDyn, p.lim)
		if err != nil {
			return nil, err
		}
		pw.Name = name
		return pw, nil
	})
}

// do answers one request and returns its status and body.
func (p *replayer) do(ctx context.Context, req request, rec *recorder) (int, []byte, error) {
	var v any
	status := http.StatusOK
	switch req.op {
	case opPredict:
		id := rec.begin(lDecode, -1)
		bench, cfg, err := decodePredict(req.target)
		rec.end(id)
		if err != nil {
			return 0, nil, err
		}
		pw, err := p.get(ctx, bench, rec)
		if err != nil {
			return 0, nil, err
		}
		// Profiled.PredictCtx, the handler's call, is these two calls.
		id = rec.begin(lStats, -1)
		in, err := pw.InputsCtx(ctx, cfg)
		rec.end(id)
		if err != nil {
			return 0, nil, err
		}
		id = rec.begin(lPredict, -1)
		st, err := core.PredictOpts(in, cfg, core.Options{})
		rec.end(id)
		if err != nil {
			return 0, nil, err
		}
		v = predictResponse(bench, pw.Prof.N, cfg, st)
	case opExplore:
		id := rec.begin(lDecode, -1)
		bench, cfgs, err := decodeExplore(req.target)
		rec.end(id)
		if err != nil {
			return 0, nil, err
		}
		pw, err := p.get(ctx, bench, rec)
		if err != nil {
			return 0, nil, err
		}
		workers := p.workers
		if workers > len(cfgs) {
			workers = len(cfgs)
		}
		if v, err = exploreResponse(ctx, pw, bench, cfgs, workers, p.pm, rec); err != nil {
			return 0, nil, err
		}
	case opIngest:
		id := rec.begin(lDecode, -1)
		tenant, err := ingest.CleanTenant(req.tenant)
		rec.end(id)
		if err != nil {
			return 0, nil, err
		}
		id = rec.begin(lParse, -1)
		var prog *program.Program
		err = ingest.CheckSource(req.src, p.lim)
		if err == nil {
			prog, err = ingest.Parse(req.src, p.lim)
		}
		var fp, name, canon string
		if err == nil {
			fp = prog.Fingerprint()
			name = ingest.WorkloadName(fp)
			canon = asm.Disassemble(prog)
		}
		rec.end(id)
		if err != nil {
			return 0, nil, err
		}
		p.progs.Store(name, prog)
		pw, err := p.get(ctx, name, rec)
		if err != nil {
			return 0, nil, err
		}
		entry, created := p.registry.Add(prog, canon)
		if created {
			status = http.StatusCreated
		}
		v = service.IngestResponse{
			Name: name, Fingerprint: fp, Instructions: pw.Prof.N, SourceBytes: len(canon),
			Created: created, Stored: entry.Stored, Resident: p.pool.Resident(name), Tenant: tenant,
		}
	}
	defer rec.end(rec.begin(lEncode, -1))
	body, err := encodeJSON(v)
	return status, body, err
}
