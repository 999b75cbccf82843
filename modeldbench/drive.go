package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// outcome is one completed request.
type outcome struct {
	req    request
	status int
	body   []byte
	lat    time.Duration
	rec    *recorder // layer replay only
}

// requests returns requests from … to-1 of a workload's sequence.
// Callers build them before the loop that issues them, so the time a
// run measures is spent serving, not generating requests.
func requests(wl *workload, seed int64, from, to int) ([]request, error) {
	out := make([]request, 0, to-from)
	for i := from; i < to; i++ {
		r, err := wl.at(seed, i)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// drive runs a closed loop of one client over reqs, which hold the
// sequence from index from on: it issues each request through serve and
// takes the next only after the reply. It stops when reqs run out or,
// with a positive budget, once budget has passed, so the outcomes cover
// a prefix of reqs. It returns them with the wall time from the first
// issue to the last completion.
func drive(reqs []request, from int, budget time.Duration, serve func(int, request) outcome) ([]outcome, time.Duration) {
	var out []outcome
	start := time.Now()
	for k, req := range reqs {
		if budget > 0 && time.Since(start) >= budget {
			break
		}
		out = append(out, serve(from+k, req))
	}
	return out, time.Since(start)
}

// serveHandler issues req to h in-process and times the handler.
func serveHandler(h http.Handler) func(int, request) outcome {
	return func(_ int, req request) outcome {
		var hr *http.Request
		if req.op == opIngest {
			hr = httptest.NewRequest(http.MethodPost, req.target, strings.NewReader(req.src))
			hr.Header.Set(service.TenantHeader, req.tenant)
		} else {
			hr = httptest.NewRequest(http.MethodGet, req.target, nil)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, hr)
		lat := time.Since(start)
		return outcome{req: req, status: rec.Code, body: rec.Body.Bytes(), lat: lat}
	}
}

// serveLayers answers req through the replayer, timing the whole
// request and recording its layer spans.
func serveLayers(ctx context.Context, rp *replayer) func(int, request) outcome {
	return func(_ int, req request) outcome {
		rec := newRecorder()
		status, body, err := rp.do(ctx, req, rec)
		lat := time.Since(rec.t0)
		if err != nil {
			status, body = 0, []byte(err.Error())
		}
		return outcome{req: req, status: status, body: body, lat: lat, rec: rec}
	}
}

// checked is the verdict of comparing served responses with the
// expected ones.
type checked struct {
	failed  int    // non-2xx or mismatching responses
	example string // first failure, for the report
}

func (c *checked) fail(o outcome, why string) {
	c.failed++
	if c.example == "" {
		c.example = fmt.Sprintf("%s: %s", o.req.target, why)
	}
}

// verify recomputes every response the server gave from the library's
// public functions and compares bytes. It profiles each workload itself
// unless refs, the profiles set-up produced, hold it, and drops what it
// profiled after the workload's last request. Predicts use the
// single-pass multi-configuration statistics engine, a different path
// from the handler's per-request replay; explores run on fresh copies
// of the profiles, so no memo the server filled is consulted.
func verify(ctx context.Context, wl *workload, outs []outcome, refs map[string]*harness.Profiled, workers int) (checked, error) {
	var c checked
	minDyn := wl.config("").MinDynInsts
	lim := ingest.DefaultLimits()
	own := make(map[string]*harness.Profiled)
	profileOf := func(r request) (*harness.Profiled, error) {
		if pw, ok := refs[r.bench]; ok {
			return pw, nil
		}
		if pw, ok := own[r.bench]; ok {
			return pw, nil
		}
		var pw *harness.Profiled
		var err error
		if r.prog != nil {
			pw, err = ingest.Profile(ctx, r.prog, minDyn, lim)
		} else {
			var spec workloads.Spec
			if spec, err = workloads.ByName(r.bench); err == nil {
				pw, err = harness.ProfileProgramScaledCtx(ctx, spec.Build(), minDyn)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", r.bench, err)
		}
		own[r.bench] = pw
		return pw, nil
	}
	lastUse := make(map[string]int)
	for i, o := range outs {
		lastUse[o.req.bench] = i
	}

	byBench := make(map[string][]uarch.Config)
	sets := make(map[string]*harness.InputsSet)
	cfgOf := make([]uarch.Config, len(outs))
	for i, o := range outs {
		if o.req.op != opPredict {
			continue
		}
		_, cfg, err := decodePredict(o.req.target)
		if err != nil {
			return c, err
		}
		cfgOf[i] = cfg
		byBench[o.req.bench] = append(byBench[o.req.bench], cfg)
	}
	created := make(map[string]bool)
	for i, o := range outs {
		if o.status < 200 || o.status > 299 {
			c.fail(o, fmt.Sprintf("status %d: %s", o.status, bytes.TrimSpace(o.body)))
			continue
		}
		var want []byte
		wantStatus := http.StatusOK
		switch o.req.op {
		case opPredict:
			pw, err := profileOf(o.req)
			if err != nil {
				return c, err
			}
			if cfgs := byBench[o.req.bench]; cfgs != nil {
				// One pass collects the statistics of every point this
				// workload was asked for.
				set, err := pw.MultiInputsCtx(ctx, cfgs)
				if err != nil {
					return c, err
				}
				sets[o.req.bench] = set
				byBench[o.req.bench] = nil
			}
			in, err := sets[o.req.bench].Inputs(cfgOf[i])
			if err != nil {
				return c, err
			}
			st, err := core.PredictOpts(in, cfgOf[i], core.Options{})
			if err != nil {
				return c, err
			}
			if want, err = encodeJSON(predictResponse(o.req.bench, pw.Prof.N, cfgOf[i], st)); err != nil {
				return c, err
			}
		case opExplore:
			bench, cfgs, err := decodeExplore(o.req.target)
			if err != nil {
				return c, err
			}
			w := workers
			if w > len(cfgs) {
				w = len(cfgs)
			}
			pw, err := profileOf(o.req)
			if err != nil {
				return c, err
			}
			resp, err := exploreResponse(ctx, pw.Fresh(), bench, cfgs, w, power.NewModel(), nil)
			if err != nil {
				return c, err
			}
			if want, err = encodeJSON(resp); err != nil {
				return c, err
			}
		case opIngest:
			pw, err := profileOf(o.req)
			if err != nil {
				return c, err
			}
			canon := asm.Disassemble(o.req.prog)
			if !created[o.req.bench] {
				created[o.req.bench] = true
				wantStatus = http.StatusCreated
			}
			if want, err = encodeJSON(service.IngestResponse{
				Name: o.req.bench, Fingerprint: o.req.prog.Fingerprint(), Instructions: pw.Prof.N,
				SourceBytes: len(canon), Created: wantStatus == http.StatusCreated, Stored: true,
				Resident: true, Tenant: o.req.tenant,
			}); err != nil {
				return c, err
			}
		}
		switch {
		case o.status != wantStatus:
			c.fail(o, fmt.Sprintf("status %d, want %d", o.status, wantStatus))
		case !bytes.Equal(o.body, want):
			c.fail(o, "body differs from the library's answer")
		}
		if lastUse[o.req.bench] == i {
			delete(own, o.req.bench)
			delete(sets, o.req.bench)
		}
	}
	return c, nil
}
