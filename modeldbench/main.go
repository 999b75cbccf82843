// Command modeldbench is the repository's benchmark. It drives modeld's
// HTTP handler in-process, with no sockets, through a seeded closed-loop
// request sequence per workload, byte-checks every response against the
// library's own answer, and prints end-to-end metrics. With -trace 1 it
// instead replays a fixed prefix of the same sequence twice — through the
// handler, then through the layers' public functions with a span around
// each call — and prints where the time and the work go.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash modeldbench/run.sh --workload predict_warm --seed 1 --seconds 10 --trace 0
//	bash modeldbench/run.sh --steady 10 --workload explore_validate --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads and the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/service"
	"repro/internal/workloads"
)

// A run sets up from scratch setupBefore times before its measured
// phase, serving from the last server, and setupAfter times after it;
// setup_s is the median of all. Splitting them spreads the set-ups over
// the whole run, so a burst of load from elsewhere on the host moves
// fewer of them.
const (
	setupBefore = 4
	setupAfter  = 3
)

// genBlock is how many requests of the sequence the untraced run builds
// at a time, off the clock.
const genBlock = 256

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "modeldbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: predict_warm, explore_validate or ingest_churn")
	seed := flag.Int64("seed", 1, "seed of the request sequence")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 replays a fixed prefix through the layers and prints per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times, one process per run with seeds seed, seed+1, ..., and print each end-to-end metric's median, quartiles and spread against its bound")
	benchJSON := flag.String("bench-json", "BENCHMARK.json", "file holding the metric bounds, for -steady")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	if *steady > 0 {
		return steadiness(wl, *seed, *seconds, *traced, *steady, *benchJSON)
	}

	// Everything the run writes lives under the checkout's build
	// directory and is removed when the run ends.
	dir, err := filepath.Abs(filepath.Join(".bench_build", "modeldbench", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	var res result
	if *traced == 1 {
		res, err = traceRun(ctx, wl, *seed, dir)
	} else {
		res, err = measure(ctx, wl, *seed, time.Duration(*seconds)*time.Second, dir)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp builds a server from an empty artifact directory and makes it
// servable: service.New, then cold profiling of the workload's resident
// set through the server's pool, as a first request for each would. It
// returns the set-up time and, if keep is set, the profiles.
func setUp(ctx context.Context, wl *workload, dir string, keep bool) (*service.Server, time.Duration, map[string]*harness.Profiled, error) {
	cfg := wl.config(dir)
	start := time.Now()
	srv, err := service.New(cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	profs, err := admitAll(ctx, srv.Pool(), wl.resident, cfg.MinDynInsts, keep)
	return srv, time.Since(start), profs, err
}

// admitAll admits the named built-ins into pool the way the service
// admits a built-in. If keep is set it returns the admitted profiles;
// otherwise a bounded pool may release them.
func admitAll(ctx context.Context, pool *harness.Pool, names []string, minDyn int64, keep bool) (map[string]*harness.Profiled, error) {
	profs := make(map[string]*harness.Profiled, len(names))
	for _, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		pw, err := pool.GetBuiltCtx(ctx, name, spec.Build, func(wctx context.Context, prog *program.Program) (*harness.Profiled, error) {
			return harness.ProfileProgramScaledCtx(wctx, prog, minDyn)
		})
		if err != nil {
			return nil, fmt.Errorf("admitting %s: %w", name, err)
		}
		if keep {
			profs[name] = pw
		}
	}
	return profs, nil
}

// restart builds a fresh server for a workload without an artifact
// store and admits fresh copies of profs — the same traces, empty memos
// — into its pool: the state set-up leaves, without profiling again.
// Without a store the pool needs no artifact key, so admission skips
// building the program.
func restart(ctx context.Context, wl *workload, profs map[string]*harness.Profiled) (*service.Server, error) {
	srv, err := service.New(wl.config(""))
	if err != nil {
		return nil, err
	}
	for _, name := range wl.resident {
		pw := profs[name]
		if _, err := srv.Pool().GetCtx(ctx, name, func(context.Context) (*harness.Profiled, error) {
			return pw.Fresh(), nil
		}); err != nil {
			return nil, fmt.Errorf("admitting %s: %w", name, err)
		}
	}
	return srv, nil
}

// setUpRepeated sets up reps times from scratch, each time
// dropping the previous server and its directory and returning the
// freed heap to the operating system, as a new process would start;
// it keeps the last server, so every run, traced or not, serves from a
// server built the same way. It returns the set-up times, and the
// profiles if keep is set.
func setUpRepeated(ctx context.Context, wl *workload, dir string, reps int, keep bool) (*service.Server, map[string]*harness.Profiled, []float64, error) {
	var (
		srv    *service.Server
		refs   map[string]*harness.Profiled
		setups []float64
	)
	for r := 0; r < reps; r++ {
		srv, refs = nil, nil
		debug.FreeOSMemory()
		if r > 0 {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup-%d", r-1))); err != nil {
				return nil, nil, nil, err
			}
		}
		s, took, profs, err := setUp(ctx, wl, filepath.Join(dir, fmt.Sprintf("setup-%d", r)), keep)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		srv, refs = s, profs
		setups = append(setups, took.Seconds())
	}
	runtime.GC()
	return srv, refs, setups, nil
}

// measure is the untraced run: set up, run the closed loop for the
// given time, then check every response. It keeps the set-up profiles
// only where the server's pool holds them all anyway, so the benchmark
// holds no workload the server has released and the peak resident set
// is the server's.
func measure(ctx context.Context, wl *workload, seed int64, length time.Duration, dir string) (result, error) {
	keep := wl.config("").MaxWorkloads == 0
	if wl.cycle > 0 && !keep {
		return result{}, fmt.Errorf("%s: a cycled sequence needs an unbounded pool", wl.name)
	}
	srv, refs, setups, err := setUpRepeated(ctx, wl, filepath.Join(dir, "before"), setupBefore, keep)
	if err != nil {
		return result{}, err
	}
	serve := serveHandler(srv.Handler())
	if wl.cycle > 0 {
		serve = func(i int, req request) outcome {
			if i > 0 && i%wl.cycle == 0 {
				s, err := restart(ctx, wl, refs)
				if err != nil {
					return outcome{req: req, body: []byte("restarting the server: " + err.Error())}
				}
				srv = s
			}
			return serveHandler(srv.Handler())(i, req)
		}
	}
	// The sequence is built a block at a time between stretches of the
	// closed loop; only the stretches count towards the measured time.
	var (
		outs []outcome
		wall time.Duration
	)
	for from := 0; wall < length; from += genBlock {
		reqs, err := requests(wl, seed, from, from+genBlock)
		if err != nil {
			return result{}, err
		}
		o, w := drive(reqs, from, length-wall, serve)
		outs, wall = append(outs, o...), wall+w
		if len(o) < len(reqs) {
			break
		}
	}
	if len(outs) == 0 {
		return result{}, errors.New("no request completed")
	}
	rss := rssPeakMB()
	chk, err := verify(ctx, wl, outs, refs, srv.MetricsSnapshot().Workers.PerExplore)
	if err != nil {
		return result{}, fmt.Errorf("checking responses: %w", err)
	}
	srv, refs = nil, nil
	_, _, after, err := setUpRepeated(ctx, wl, filepath.Join(dir, "after"), setupAfter, false)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, after...)

	lats := make([]float64, len(outs))
	for i, o := range outs {
		lats[i] = ms(o.lat)
	}
	p50, p90 := nearestRank(lats, 50), nearestRank(lats, 90)
	res := result{
		Correct:   chk.failed == 0,
		Attempted: len(outs),
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"throughput_rps": {float64(len(outs)) / wall.Seconds(), "1/s"},
			"latency_p50_ms": {p50.value, "ms"},
			"latency_p90_ms": {p90.value, "ms"},
			"rss_peak_mb":    {rss, "MB"},
		},
	}
	fmt.Printf("workload %s seed %d: %d requests in %.3f s\n", wl.name, seed, len(outs), wall.Seconds())
	fmt.Printf("setup_s %.4f s (median of %d: %v)\n", res.Metrics["setup_s"].Value, len(setups), setups)
	fmt.Printf("throughput_rps %.3f 1/s\n", res.Metrics["throughput_rps"].Value)
	fmt.Printf("latency_p50_ms %.4f ms (n=%d)\n", p50.value, p50.samples)
	fmt.Printf("latency_p90_ms %.4f ms (n=%d)\n", p90.value, p90.samples)
	if p90.samples < minSamples(90) {
		fmt.Printf("warning: latency_p90_ms rests on %d samples; %d leave ten beyond it\n", p90.samples, minSamples(90))
	}
	fmt.Printf("failed_pct %.4f %% (%d of %d)\n", 100*float64(chk.failed)/float64(len(outs)), chk.failed, len(outs))
	if chk.example != "" {
		fmt.Printf("first failure: %s\n", chk.example)
	}
	fmt.Printf("rss_peak_mb %.2f MB\n", res.Metrics["rss_peak_mb"].Value)
	if e, n := modelErr(outs); n > 0 {
		fmt.Printf("model_err_pct %.4f %% (mean |model-sim|/sim CPI over %d validated points)\n", e, n)
	}
	return res, nil
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// modelErr is the mean model CPI error, in percent, over every point
// of the validated explore responses among outs.
func modelErr(outs []outcome) (float64, int) {
	var sum float64
	var n int
	for _, o := range outs {
		if o.req.op != opExplore {
			continue
		}
		var r service.ExploreResponse
		if json.Unmarshal(o.body, &r) != nil {
			continue
		}
		sum += r.AvgErrPercent * float64(r.Count)
		n += r.Count
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
