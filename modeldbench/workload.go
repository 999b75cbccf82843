package main

import (
	"fmt"
	"runtime"

	"repro/internal/service"
)

// workload is one traffic mix. Its request sequence is a pure function
// of the seed; its server configuration and resident set are fixed.
type workload struct {
	name string
	// traceN is how many requests of the sequence the traced run
	// replays, through the handler and then through the layers.
	traceN int
	// cycle, when positive, is the sequence's cycle length: the
	// untraced run serves each cycle from a fresh server (same profiles,
	// empty memos), so every request finds the state its first cycle
	// found.
	cycle int
	// resident is the set of built-ins set-up profiles.
	resident []string
	config   func(dir string) service.Config
	at       func(seed int64, i int) (request, error)
}

// builtins lists every built-in workload in registry order. It is also
// predict_warm's deck: each built-in once per shuffle. Their latency
// bands overlap, so neither the median nor the 90th percentile falls in
// a gap between two of them.
var builtins = builtinNames()

// exploreNames is explore_validate's workload set: the built-ins whose
// validated 192-point slice takes 35–150 ms on a 2-core x86 host. The
// seven heaviest (100–800 ms per slice) are left out: at one client
// they would leave too few samples per run for a 90th percentile, and
// the gap between them and the rest would put it on a mode boundary.
var exploreNames = []string{
	"adpcm_c", "adpcm_d", "dijkstra", "gsm_c", "jpeg_c", "jpeg_d", "lame",
	"patricia", "qsort", "rsynth", "sha", "stringsearch", "susan_c", "susan_e",
	"susan_s", "tiff2bw", "tiff2rgba", "tiffdither", "tiffmedian", "milc_like",
	"basicmath", "crc32", "blowfish",
}

// Server bounds shared by the workloads: the worker pot and the
// per-explore cap equal the core count.
func baseConfig() service.Config {
	n := runtime.GOMAXPROCS(0)
	return service.Config{Workers: n, ExploreWorkers: n}
}

// explorePlaneBytes bounds each workload's annotation planes and timing
// memo on explore_validate (the pool bounds no workload count, so the
// budget applies per workload): room for one request's planes, so
// memory stays bounded without a request evicting planes it still needs.
const explorePlaneBytes = 4 << 20

// ingestMaxWorkloads is ingest_churn's resident bound: far below the 30
// built-ins, so most predicts rehydrate their workload from the store.
const ingestMaxWorkloads = 4

// allWorkloads are the benchmark's traffic mixes; README.md records why
// each was chosen.
var allWorkloads = []*workload{
	{
		name:     "predict_warm",
		traceN:   600,
		resident: builtins,
		config:   func(string) service.Config { return baseConfig() },
		at: func(seed int64, i int) (request, error) {
			return predictRequest(deckAt(builtins, seed, streamDeck, i), seed, i), nil
		},
	},
	{
		name:     "explore_validate",
		traceN:   96,
		cycle:    len(exploreNames) * len(exploreL1),
		resident: exploreNames,
		config: func(string) service.Config {
			c := baseConfig()
			c.MaxPlaneBytes = explorePlaneBytes
			return c
		},
		at: func(seed int64, i int) (request, error) {
			return exploreAt(exploreNames, seed, i), nil
		},
	},
	{
		name:     "ingest_churn",
		traceN:   240,
		resident: builtins,
		config: func(dir string) service.Config {
			c := baseConfig()
			c.MaxWorkloads = ingestMaxWorkloads
			c.ArtifactDir = dir
			return c
		},
		at: func(seed int64, i int) (request, error) {
			return ingestAt(builtins, seed, i)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
