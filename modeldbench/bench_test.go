package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

func sequence(t *testing.T, wl *workload, seed int64, n int) []request {
	t.Helper()
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		r, err := wl.at(seed, i)
		if err != nil {
			t.Fatalf("%s seed %d request %d: %v", wl.name, seed, i, err)
		}
		out = append(out, r)
	}
	return out
}

func sameRequests(a, b []request) bool {
	for i := range a {
		if a[i].target != b[i].target || a[i].src != b[i].src || a[i].tenant != b[i].tenant {
			return false
		}
	}
	return true
}

func TestSequenceDeterminedBySeed(t *testing.T) {
	for _, wl := range allWorkloads {
		n := 2 * ingestCycle
		a, b := sequence(t, wl, 7, n), sequence(t, wl, 7, n)
		if !sameRequests(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", wl.name)
		}
		if sameRequests(a, sequence(t, wl, 8, n)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", wl.name)
		}
	}
}

func TestPredictDeckStratified(t *testing.T) {
	deck := builtins
	counts := make(map[string]int)
	for i := 0; i < 3*len(deck); i++ {
		counts[deckAt(deck, 3, streamDeck, i)]++
	}
	want := make(map[string]int)
	for _, name := range deck {
		want[name] += 3
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s drawn %d times in three decks, want %d", name, counts[name], n)
		}
	}
}

func TestExploreSequenceNeverRepeats(t *testing.T) {
	cycle := len(exploreNames) * len(exploreL1)
	seen := make(map[string]int)
	shares := make(map[string]int)
	for i := 0; i < 3*cycle; i++ {
		r := exploreAt(exploreNames, 5, i)
		if j, ok := seen[r.target]; ok {
			t.Fatalf("request %d repeats request %d: %s", i, j, r.target)
		}
		seen[r.target] = i
		// Within a cycle every visit of a workload uses a new L1 cell.
		q, err := queryOf(r.target)
		if err != nil {
			t.Fatal(err)
		}
		cell := fmt.Sprintf("%d %s %s/%s", i/cycle, r.bench, q.Get("l1kb"), q.Get("l1ways"))
		if j, ok := seen[cell]; ok {
			t.Fatalf("request %d reuses the L1 cell of request %d in its cycle: %s", i, j, r.target)
		}
		seen[cell] = i
		share := fmt.Sprintf("%d %s fscale %s", i/cycle, r.bench, q.Get("fscale"))
		shares[share]++
	}
	// Within a cycle a workload uses each fscale on the same number of
	// cells, so every cycle holds the same share of 128-point slices.
	for share, n := range shares {
		if n != len(exploreL1)/3 {
			t.Errorf("%s: %d cells, want %d", share, n, len(exploreL1)/3)
		}
	}
	// Every block of len(exploreNames) requests visits each workload once.
	for b := 0; b < 3*len(exploreL1); b++ {
		got := make(map[string]bool)
		for pos := 0; pos < len(exploreNames); pos++ {
			got[exploreAt(exploreNames, 5, b*len(exploreNames)+pos).bench] = true
		}
		if len(got) != len(exploreNames) {
			t.Fatalf("block %d visits %d workloads, want %d", b, len(got), len(exploreNames))
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		got := nearestRank(xs, c.p)
		if got.value != c.want || got.samples != len(xs) {
			t.Errorf("p%v of 1..10 = %v over %d samples, want %v over 10", c.p, got.value, got.samples, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := nearestRank(hundred, 90); got.value != 90 || got.samples != 100 {
		t.Errorf("p90 of 1..100 = %+v, want 90 over 100", got)
	}
	if got := nearestRank([]float64{3}, 90); got.value != 3 || got.samples != 1 {
		t.Errorf("p90 of one sample = %+v", got)
	}
	if got := nearestRank(nil, 50); !math.IsNaN(got.value) || got.samples != 0 {
		t.Errorf("p50 of no samples = %+v, want NaN over 0", got)
	}
	if minSamples(90) != 100 || minSamples(50) != 20 {
		t.Errorf("minSamples(90), minSamples(50) = %d, %d; want 100, 20", minSamples(90), minSamples(50))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

// topLevel returns the summed duration of a request's top-level spans,
// which never overlap because one request runs its layers in sequence.
func topLevel(r *recorder) time.Duration {
	var sum time.Duration
	for _, s := range r.spans {
		if s.parent < 0 {
			sum += s.end - s.start
		}
	}
	return sum
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin(lPoolGet, -1)
	time.Sleep(2 * time.Millisecond)
	rec.end(rec.begin(lLoad, outer))
	inner := rec.begin(lProfile, outer)
	time.Sleep(2 * time.Millisecond)
	rec.end(inner)
	rec.end(outer)
	rec.end(rec.begin(lEncode, -1))
	total := time.Since(rec.t0)

	self := rec.self()
	var sum time.Duration
	for _, d := range self {
		if d < 0 {
			t.Fatalf("negative self time in %v", self)
		}
		sum += d
	}
	if sum != topLevel(rec) {
		t.Errorf("self times add to %v, top-level spans to %v", sum, topLevel(rec))
	}
	if topLevel(rec) > total {
		t.Errorf("spans cover %v of a %v request", topLevel(rec), total)
	}
	if self[lProfile] < 2*time.Millisecond || self[lPoolGet] < 2*time.Millisecond {
		t.Errorf("self times %v lost a sleep", self)
	}
}

func TestSpansFit(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		handler, layers time.Duration
		ok              bool
	}{
		{10 * ms, 9 * ms, true},
		{10 * ms, 10 * ms, true},
		{10 * ms, 10*ms + 900*time.Microsecond, true}, // within the noise allowance
		{10 * ms, 11*ms + time.Microsecond, false},
		{10 * ms, 20 * ms, false}, // a replay that does the work twice
	} {
		if err := spansFit(c.handler, c.layers); (err == nil) != c.ok {
			t.Errorf("spansFit(%v, %v) = %v, want ok=%v", c.handler, c.layers, err, c.ok)
		}
	}
}

func TestDriveStopsAtBudgetOnAPrefix(t *testing.T) {
	reqs := make([]request, 1000)
	var issued []int
	serve := func(i int, _ request) outcome {
		issued = append(issued, i)
		time.Sleep(time.Millisecond)
		return outcome{}
	}
	outs, wall := drive(reqs, 5, 20*time.Millisecond, serve)
	if len(outs) == 0 || len(outs) == len(reqs) {
		t.Fatalf("served %d of %d requests in a 20ms budget", len(outs), len(reqs))
	}
	if len(issued) != len(outs) {
		t.Fatalf("issued %d requests, returned %d outcomes", len(issued), len(outs))
	}
	for k, i := range issued {
		if i != 5+k {
			t.Fatalf("request %d issued as index %d, want %d: not a prefix", k, i, 5+k)
		}
	}
	if wall < 20*time.Millisecond {
		t.Errorf("stopped after %v, before the budget", wall)
	}
	if outs, _ := drive(reqs[:7], 0, 0, serve); len(outs) != 7 {
		t.Errorf("without a budget served %d of 7", len(outs))
	}
}

// TestLayerReplayReproducesHandler drives a few requests of each kind
// through the handler and through the layer replay on equal state, and
// requires equal bytes, equal work, and spans inside each request.
func TestLayerReplayReproducesHandler(t *testing.T) {
	ctx := context.Background()
	names := []string{"sha", "qsort"}
	wl := &workload{
		name: "test", resident: names,
		config: func(dir string) service.Config {
			c := baseConfig()
			c.MaxWorkloads = 1
			c.MaxPlaneBytes = explorePlaneBytes
			c.ArtifactDir = dir
			return c
		},
		at: func(seed int64, i int) (request, error) {
			switch i {
			case 0:
				return exploreAt(names, seed, 0), nil
			case 1, 2, 3:
				return predictRequest(names[i%2], seed, i), nil
			}
			return ingestAt(names, seed, i+ingestCycle-2-4)
		},
	}
	const n = 6 // explore, three predicts, an ingest, a predict of it
	dir := t.TempDir()
	srv, refs, _, err := setUpRepeated(ctx, wl, dir, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sequence(t, wl, 1, n)
	w0 := readWork(srv.Pool().Stats())
	hOuts, _ := drive(reqs, 0, 0, serveHandler(srv.Handler()))
	hWork := readWork(srv.Pool().Stats()).sub(w0)
	// The check passes with the set-up profiles and with none, when it
	// profiles every workload itself.
	for _, r := range []map[string]*harness.Profiled{refs, nil} {
		chk, err := verify(ctx, wl, hOuts, r, srv.MetricsSnapshot().Workers.PerExplore)
		if err != nil {
			t.Fatal(err)
		}
		if chk.failed != 0 {
			t.Fatalf("%d handler responses failed the check; first: %s", chk.failed, chk.example)
		}
	}

	rp, err := newReplayer(ctx, wl, t.TempDir(), srv.MetricsSnapshot().Workers.PerExplore, refs)
	if err != nil {
		t.Fatal(err)
	}
	l0 := readWork(rp.pool.Stats())
	lOuts, _ := drive(reqs, 0, 0, serveLayers(ctx, rp))
	lWork := readWork(rp.pool.Stats()).sub(l0)
	if len(hOuts) != n || len(lOuts) != n {
		t.Fatalf("issued %d and %d requests, want %d", len(hOuts), len(lOuts), n)
	}
	for i := range hOuts {
		h, l := hOuts[i], lOuts[i]
		if h.status != l.status || !bytes.Equal(h.body, l.body) {
			t.Errorf("%s: handler %d %q, replay %d %q", h.req.target, h.status, firstLine(h.body), l.status, firstLine(l.body))
		}
	}
	for i, hc := range hWork.crossChecked() {
		if lc := lWork.crossChecked()[i]; hc.n != lc.n {
			t.Errorf("%s: handler %d, replay %d", hc.name, hc.n, lc.n)
		}
	}
	if hWork.replays == 0 || hWork.cacheAnn == 0 || hWork.profiles == 0 || hWork.diskHits == 0 {
		t.Errorf("the requests did too little work to compare: %+v", hWork)
	}
}
