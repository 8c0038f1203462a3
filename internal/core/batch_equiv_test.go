package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/kernels"
)

// TestBatchedMatchesPerPoint pins the tentpole invariant: the
// workload-grouped engine — mixed inclusion/batch by default, and with
// each engine forced explicitly — returns bit-identical metrics to the
// per-point reference engine for every layout/policy combination, in the
// same Space() order. Write traffic is charged into the energy model so
// a write-back accounting bug cannot hide.
func TestBatchedMatchesPerPoint(t *testing.T) {
	n := kernels.Compress()
	base := DefaultOptions()
	base.CacheSizes = []int{16, 64, 256}
	base.LineSizes = []int{4, 8}
	base.Assocs = []int{1, 2, 4}
	base.Tilings = []int{1, 4}
	base.Energy.CountWriteTraffic = true

	for _, optimized := range []bool{false, true} {
		for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random} {
			for _, writeThrough := range []bool{false, true} {
				for _, noWriteAlloc := range []bool{false, true} {
					for _, victim := range []int{0, 2} {
						opts := base
						opts.OptimizeLayout = optimized
						opts.Replacement = repl
						opts.WriteThrough = writeThrough
						opts.NoWriteAllocate = noWriteAlloc
						opts.VictimLines = victim
						name := fmt.Sprintf("opt=%v/repl=%v/wt=%v/nwa=%v/victim=%d",
							optimized, repl, writeThrough, noWriteAlloc, victim)
						t.Run(name, func(t *testing.T) {
							ctx := context.Background()
							want, err := ExplorePerPointContext(ctx, n, opts)
							if err != nil {
								t.Fatal(err)
							}
							got, err := ExploreContext(ctx, n, opts)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("batched metrics differ from per-point reference")
								reportFirstDiff(t, got, want)
							}
							par, err := ExploreParallelContext(ctx, n, opts, 4)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(par, want) {
								t.Errorf("parallel batched metrics differ from per-point reference")
								reportFirstDiff(t, par, want)
							}
							for _, eng := range []Engine{EnginePerPoint, EngineBatched, EngineAuto} {
								fopts := opts
								fopts.Engine = eng
								forced, err := ExploreContext(ctx, n, fopts)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(forced, want) {
									t.Errorf("forced %v engine differs from per-point reference", eng)
									reportFirstDiff(t, forced, want)
								}
							}
						})
					}
				}
			}
		}
	}
}

func reportFirstDiff(t *testing.T, got, want []Metrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Logf("length %d, want %d", len(got), len(want))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Logf("first difference at point %d:\n got %+v\nwant %+v", i, got[i], want[i])
			return
		}
	}
}

// TestBatchedMatchesPerPointClassify checks the classified sweep too:
// Classify routes both entry points through the per-point engine, so the
// results must trivially agree — this pins the routing.
func TestBatchedMatchesPerPointClassify(t *testing.T) {
	n := kernels.Compress()
	opts := DefaultOptions()
	opts.CacheSizes = []int{16, 64}
	opts.LineSizes = []int{4, 8}
	opts.Assocs = []int{1, 2}
	opts.Tilings = []int{1, 4}
	opts.OptimizeLayout = false
	opts.Classify = true
	ctx := context.Background()
	want, err := ExplorePerPointContext(ctx, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExploreContext(ctx, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("classified sweep differs between entry points")
	}
	par, err := ExploreParallelContext(ctx, n, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, want) {
		t.Error("classified parallel sweep differs from reference")
	}
}

// TestWorkloads pins the workload count arithmetic the service metrics
// report: a sequential-layout space collapses to one workload per tiling;
// an optimized-layout space keys on (tiling, line, sets) as well.
func TestWorkloads(t *testing.T) {
	opts := DefaultOptions()
	opts.OptimizeLayout = false
	if got, want := opts.Workloads(), len(opts.Tilings); got != want {
		t.Errorf("sequential workloads = %d, want %d (one per tiling)", got, want)
	}
	opts.OptimizeLayout = true
	points := opts.Space()
	seen := map[[3]int]bool{}
	for _, p := range points {
		seen[[3]int{p.Tiling, p.LineSize, p.CacheSize / p.LineSize}] = true
	}
	if got := opts.Workloads(); got != len(seen) {
		t.Errorf("optimized workloads = %d, want %d", got, len(seen))
	}
	if got := opts.Workloads(); got >= len(points) {
		t.Errorf("grouping saved nothing: %d workloads for %d points", got, len(points))
	}
}
