package core

import (
	"testing"

	"memexplore/internal/cachesim"
)

// TestParseEngine pins the flag spellings and String round trip.
func TestParseEngine(t *testing.T) {
	for _, e := range []Engine{EngineAuto, EnginePerPoint, EngineBatched, EngineAuto} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if e, err := ParseEngine(""); err != nil || e != EngineAuto {
		t.Errorf("ParseEngine(\"\") = %v, %v", e, err)
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
}

// TestPlanMatchesSweepPartition checks that Options.Plan predicts exactly
// the partition the engines build: the same workload grouping, and per
// workload the same inclusion-group/fallback split cachesim reports.
func TestPlanMatchesSweepPartition(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO} {
			for _, eng := range []Engine{EngineAuto, EngineBatched} {
				opts := DefaultOptions()
				opts.OptimizeLayout = optimized
				opts.Replacement = repl
				opts.Engine = eng
				points := opts.Space()
				groups := groupWorkloads(opts, points)
				var wantGroups, wantIncl, wantFallback int
				for _, g := range groups {
					cfgs := make([]cachesim.Config, len(g.indices))
					for i, pi := range g.indices {
						p := points[pi]
						cfgs[i] = opts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc)
					}
					s, err := newGroupSweep(opts, cfgs)
					if err != nil {
						t.Fatal(err)
					}
					wantGroups += s.InclusionGroups()
					wantFallback += s.FallbackConfigs()
					wantIncl += len(cfgs) - s.FallbackConfigs()
					s.Release()
				}
				plan := opts.Plan()
				if plan.Points != len(points) || plan.Workloads != len(groups) ||
					plan.InclusionGroups != wantGroups || plan.InclusionConfigs != wantIncl ||
					plan.FallbackConfigs != wantFallback {
					t.Errorf("opt=%v repl=%v eng=%v: Plan = %+v, engines built %d groups / %d inclusion / %d fallback over %d workloads",
						optimized, repl, eng, plan, wantGroups, wantIncl, wantFallback, len(groups))
				}
				if plan.PassUnits() != wantGroups+wantFallback {
					t.Errorf("PassUnits = %d, want %d", plan.PassUnits(), wantGroups+wantFallback)
				}
			}
		}
	}
}

// TestPlanPerPoint pins the degenerate plans: classified and forced
// per-point sweeps pay one trace pass per point and share nothing.
func TestPlanPerPoint(t *testing.T) {
	opts := DefaultOptions()
	opts.Classify = true
	plan := opts.Plan()
	n := len(opts.Space())
	if plan.Workloads != n || plan.FallbackConfigs != n || plan.InclusionGroups != 0 {
		t.Errorf("classified plan = %+v, want %d workloads and fallbacks", plan, n)
	}
	if plan.ConfigsPerPass() != 1 {
		t.Errorf("classified ConfigsPerPass = %g, want 1", plan.ConfigsPerPass())
	}
	opts.Classify = false
	opts.Engine = EnginePerPoint
	if got := opts.Plan(); got.Workloads != n || got.FallbackConfigs != n {
		t.Errorf("per-point plan = %+v, want %d workloads and fallbacks", got, n)
	}
}

// TestPlanInclusionAmplification documents the headline: the default
// sequential-layout sweep collapses most points into inclusion groups,
// so each pass unit serves well over one configuration.
func TestPlanInclusionAmplification(t *testing.T) {
	opts := DefaultOptions()
	opts.OptimizeLayout = false
	plan := opts.Plan()
	if plan.InclusionGroups == 0 {
		t.Fatal("default sequential sweep formed no inclusion groups")
	}
	if cpp := plan.ConfigsPerPass(); cpp < 1.5 {
		t.Errorf("ConfigsPerPass = %g, want ≥ 1.5 on the default sequential space", cpp)
	}
}
