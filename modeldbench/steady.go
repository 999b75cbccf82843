package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadJSON is one metric's noise band in the steadiness summary.
type spreadJSON struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Bound  float64   `json:"bound,omitempty"`
}

// steadySummary is the steadiness mode's last line. It reports a noise
// band; it makes no performance claim.
type steadySummary struct {
	Workload string                `json:"workload"`
	Seconds  int                   `json:"seconds"`
	Trace    int                   `json:"trace"`
	Seeds    []int64               `json:"seeds"`
	Correct  bool                  `json:"correct"`
	Metrics  map[string]spreadJSON `json:"metrics"`
	Claim    *string               `json:"claim"`
}

// steadiness runs the workload runs times, each in its own process
// with the next seed, and prints each metric's quartiles and its
// spread — the interquartile range as a share of the median — beside
// the bound BENCHMARK.json gives it. A spread below a third of the
// bound is steady.
func steadiness(wl *workload, seed int64, seconds, traced, runs int, benchJSON string) error {
	if runs < 2 {
		return fmt.Errorf("-steady %d: need at least 2 runs", runs)
	}
	bounds := make(map[string]float64)
	if traced == 0 {
		raw, err := os.ReadFile(benchJSON)
		if err != nil {
			return fmt.Errorf("reading bounds: %w", err)
		}
		var spec benchSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("parsing %s: %w", benchJSON, err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sum := steadySummary{Workload: wl.name, Seconds: seconds, Trace: traced, Correct: true, Metrics: make(map[string]spreadJSON)}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return fmt.Errorf("run with seed %d: parsing its result: %w", s, err)
		}
		sum.Seeds = append(sum.Seeds, s)
		sum.Correct = sum.Correct && r.Correct
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, r.Correct, r.Attempted, r.Failed)
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %12s %12s %12s %8s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		vs := values[name]
		q1, med, q3 := quartiles(vs)
		sp := spreadJSON{Unit: units[name], Values: vs, Q1: q1, Median: med, Q3: q3, Bound: bounds[name]}
		if med != 0 {
			sp.Spread = (q3 - q1) / med
		}
		verdict := ""
		if b, ok := bounds[name]; ok {
			switch {
			case sp.Spread < b/3:
				verdict = "steady"
			case sp.Spread <= b:
				verdict = "within bound, not below a third of it"
			default:
				verdict = "too noisy"
			}
		}
		sum.Metrics[name] = sp
		fmt.Printf("%-36s %12.4f %12.4f %12.4f %8.4f %8.4f  %s\n", name, q1, med, q3, sp.Spread, sp.Bound, verdict)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
