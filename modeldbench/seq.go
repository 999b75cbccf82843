package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/asm"
	"repro/internal/funcsim"
	"repro/internal/ingest"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// op is the kind of one benchmark request.
type op uint8

const (
	opPredict op = iota // GET /v1/predict, model only
	opExplore           // GET /v1/explore, validated slice of the extended space
	opIngest            // POST /v1/workloads
)

// request is one element of a workload's seeded sequence. It is a pure
// function of (workload, seed, index), so every run with the same seed
// issues the same requests in the same order.
type request struct {
	op     op
	bench  string // workload the request names (for ingest: the name the server must return)
	target string // request URI
	tenant string // X-Tenant of an ingest
	src    string // ingest body: assembly text
	prog   *program.Program
}

// mix derives a 64-bit stream seed from the run seed and a stream
// position (splitmix64), so each block of the sequence draws from its
// own generator and can be produced in any order.
func mix(seed int64, stream, idx int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(idx)*0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func rngFor(seed int64, stream, idx int) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, stream, idx)))
}

// Seeded streams: each kind of draw has its own stream so that
// changing one does not shift the others.
const (
	streamDeck = iota + 1
	streamPoint
	streamRound
	streamCell
	streamProg
)

// deckAt returns element i of an endless sequence of seeded shuffles of
// deck. Stratifying the draws this way fixes the share of every deck
// entry in any run (to within one deck), so the percentiles of a
// mixed-latency workload do not move with the sampled proportions.
func deckAt(deck []string, seed int64, stream, i int) string {
	block, pos := i/len(deck), i%len(deck)
	perm := rngFor(seed, stream, block).Perm(len(deck))
	return deck[perm[pos]]
}

// table2Query draws one Table 2 design point uniformly and spells it as
// /v1/predict query parameters.
func table2Query(rng *rand.Rand) string {
	d := uarch.Table2Domain()
	var b strings.Builder
	for _, ax := range d.Axes() {
		vals := ax.Values()
		fmt.Fprintf(&b, "&%s=%s", ax.Name, url.QueryEscape(vals[rng.Intn(len(vals))]))
	}
	return b.String()
}

func predictRequest(bench string, seed int64, i int) request {
	return request{
		op:     opPredict,
		bench:  bench,
		target: "/v1/predict?bench=" + url.QueryEscape(bench) + table2Query(rngFor(seed, streamPoint, i)),
	}
}

// builtinNames lists every built-in workload in registry order.
func builtinNames() []string {
	var out []string
	for _, s := range workloads.All() {
		out = append(out, s.Name)
	}
	return out
}

// exploreL1 lists the (l1kb, l1ways) cells of the extended space as
// axis value indices. A request fixes one cell and one fscale value and
// leaves the Table 2 axes free: 192 points, or 128 at fscale 1.2 (which
// needs ≥ 7 stages).
var exploreL1 = [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}

// exploreAt returns request i of an explore sequence over names. The
// sequence runs in cycles of len(names) × 6 requests, and each cycle
// comes in six blocks that visit every workload once, in a seeded
// order, so every run holds the workloads in the same proportion. A
// workload's six visits in a cycle use its six L1 cells, each once, so
// every request of a cycle annotates hierarchies no earlier request of
// the cycle built; the benchmark starts each cycle on a fresh server.
// The fscale of a (workload, cell) pair does not depend on the seed:
// in every cycle each fscale goes to two of a workload's six cells, and
// each cell's fscale moves on by one each cycle. So cycle k holds the
// same slices under every seed, in a seeded order, which keeps the
// percentiles of this wide latency mix from moving with the seed, and
// no (workload, slice) pair repeats within three cycles.
func exploreAt(names []string, seed int64, i int) request {
	perCycle := len(names) * len(exploreL1)
	cycle, j := i/perCycle, i%perCycle
	block, pos := j/len(names), j%len(names)
	w := rngFor(seed, streamRound, cycle*len(exploreL1)+block).Perm(len(names))[pos]
	cell := rngFor(seed, streamCell, w*1_000_003+cycle).Perm(len(exploreL1))[block]

	d := uarch.ExtendedDomain()
	axis := func(name string) []string {
		_, ai, _ := d.AxisByName(name)
		return d.Axes()[ai].Values()
	}
	fscales := axis("fscale")
	f := (w + cell + cycle) % len(fscales)
	q := fmt.Sprintf("/v1/explore?bench=%s&space=extended&validate=true&l1kb=%s&l1ways=%s&fscale=%s",
		url.QueryEscape(names[w]),
		axis("l1kb")[exploreL1[cell][0]],
		axis("l1ways")[exploreL1[cell][1]],
		url.QueryEscape(fscales[f]))
	return request{op: opExplore, bench: names[w], target: q}
}

// ingestTargetInsts is the dynamic length an ingested program aims at.
const ingestTargetInsts = 300_000

// ingestProgram generates ingested program k of a run: a randprog
// program whose outer trip count is scaled so that it executes about
// ingestTargetInsts instructions, rendered as assembly text.
func ingestProgram(seed int64, k int) (string, *program.Program, error) {
	cfg := randprog.Default(mix(seed, streamProg, k))
	// Dynamic length is affine in the trip count; two short runs fix it.
	n := func(trips int64) (int64, error) {
		cfg.OuterTrips = trips
		m, err := funcsim.New(randprog.Generate(cfg))
		if err != nil {
			return 0, err
		}
		return m.Run(nil)
	}
	n10, err := n(10)
	if err != nil {
		return "", nil, err
	}
	n20, err := n(20)
	if err != nil {
		return "", nil, err
	}
	per := (n20 - n10) / 10
	if per < 1 {
		per = 1
	}
	trips := (ingestTargetInsts - (n10 - 10*per)) / per
	if trips < 1 {
		trips = 1
	}
	cfg.OuterTrips = trips
	src := asm.Disassemble(randprog.Generate(cfg))
	prog, err := ingest.Parse(src, ingest.DefaultLimits())
	if err != nil {
		return "", nil, fmt.Errorf("generated program %d does not parse: %w", k, err)
	}
	return src, prog, nil
}

// ingestTenants is how many X-Tenant values submissions rotate
// through; with the default quota of 64 stored workloads per tenant it
// allows 1024 submissions per run before any tenant is refused.
const ingestTenants = 16

// ingestCycle is the ingest_churn request pattern: six predicts over
// the built-ins, one submission, one predict of the submitted program.
const ingestCycle = 8

func ingestAt(names []string, seed int64, i int) (request, error) {
	cycle, pos := i/ingestCycle, i%ingestCycle
	switch {
	case pos < ingestCycle-2:
		slot := cycle*(ingestCycle-2) + pos
		return predictRequest(deckAt(names, seed, streamDeck, slot), seed, i), nil
	case pos == ingestCycle-2:
		src, prog, err := ingestProgram(seed, cycle)
		if err != nil {
			return request{}, err
		}
		return request{
			op:     opIngest,
			bench:  ingest.WorkloadName(prog.Fingerprint()),
			target: "/v1/workloads",
			tenant: fmt.Sprintf("bench-%02d", cycle%ingestTenants),
			src:    src,
			prog:   prog,
		}, nil
	default:
		_, prog, err := ingestProgram(seed, cycle)
		if err != nil {
			return request{}, err
		}
		r := predictRequest(ingest.WorkloadName(prog.Fingerprint()), seed, i)
		r.prog = prog
		return r, nil
	}
}
