package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke tests check
// the emitted metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeConfig runs a workload on inputs a twentieth of the benchmark's
// size for a fraction of a second.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 3, seconds: 0.3, scale: 20, dir: t.TempDir(), outDir: t.TempDir()}
}

// checkOutcome asserts that a run passed its output checks and emitted
// exactly the named metrics, each with its unit.
func checkOutcome(t *testing.T, o outcome, want map[string]string) {
	t.Helper()
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d; notes: %v", o.Correct, o.Attempted, o.Failed, o.notes)
	}
	if len(o.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, want %d", len(o.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := o.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	if len(o.digest) != 64 {
		t.Errorf("digest %q is not a sha256 hex digest", o.digest)
	}
}

func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("workload %s is not implemented", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t)
			ctx := context.Background()
			first, err := run.measure(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, first, e2e)
			again, err := run.measure(ctx, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if again.digest != first.digest {
				t.Errorf("digest changed between runs of one seed: %s, then %s", first.digest, again.digest)
			}
			traced, err := run.traced(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, traced, layers)
			if traced.digest != first.digest {
				t.Errorf("traced run digest %s differs from the measured run's %s", traced.digest, first.digest)
			}
			matches, err := filepath.Glob(filepath.Join(cfg.outDir, "spans-"+w.Name+"-*.json"))
			if err != nil || len(matches) != 1 {
				t.Errorf("span file not written (%v, %v)", matches, err)
			}
		})
	}
}
