package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
)

// TestSweepDriverSources pins the chunk driver: one random mixed trace
// fed through the in-memory and the stream source, at worker counts
// below, at and far above the pass-unit count, leaves the sweep's Stats
// and the bus measurement identical to a direct single-block pass; and
// a cancellation mid-stream stops either source with ErrCanceled before
// the next block.
func TestSweepDriverSources(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr := randomMixedTrace(rng, 5*traceChunkRefs+123, 8192)
	var enc bytes.Buffer
	if _, err := extrace.WriteBinary(&enc, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	opts, err := traceSpace(pipelineTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []cachesim.Config
	for _, p := range opts.Space() {
		cfgs = append(cfgs, opts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc))
	}

	ref, err := cachesim.NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.InclusionGroups() == 0 || ref.FallbackConfigs() == 0 {
		t.Fatalf("want a mixed sweep, got %d groups and %d fallbacks", ref.InclusionGroups(), ref.FallbackConfigs())
	}
	ref.AccessBlock(tr.Refs())
	wantStats := ref.Stats()
	ref.Release()
	wantBus := bus.NewSwitchCounter(bus.Gray)
	wantBus.DriveRefs(tr.Refs())

	// drive runs the trace through a fresh sweep from the named source;
	// cancelAfter > 0 cancels the context once that many blocks are done.
	drive := func(source string, workers, cancelAfter int) ([]cachesim.Stats, *bus.SwitchCounter, int, error) {
		sweep, err := cachesim.NewSweep(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		defer sweep.Release()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		blocks := 0
		r := sweepRun{
			sweep:  sweep,
			shards: fanShards(sweep, workers),
			bus:    bus.NewSwitchCounter(bus.Gray),
			progress: func(ProgressEvent) {
				if blocks++; blocks == cancelAfter {
					cancel()
				}
			},
		}
		var src blockSource = &memSource{refs: tr.Refs()}
		if source == "stream" {
			rd := extrace.NewReader(bytes.NewReader(enc.Bytes()), extrace.Options{})
			defer rd.Close()
			src = newStreamSource(rd, len(r.shards) > 1, nil)
		}
		if err := r.run(ctx, src); err != nil {
			return nil, nil, blocks, err
		}
		return sweep.Stats(), r.bus, blocks, nil
	}

	for _, source := range []string{"memory", "stream"} {
		for _, workers := range []int{1, 2, 3, 64} {
			t.Run(fmt.Sprintf("%s/workers=%d", source, workers), func(t *testing.T) {
				stats, ctr, blocks, err := drive(source, workers, 0)
				if err != nil {
					t.Fatal(err)
				}
				if blocks != 6 {
					t.Errorf("driver saw %d blocks, want 6", blocks)
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Error("sweep statistics diverge from a direct pass")
				}
				if ctr.PerDrive() != wantBus.PerDrive() || ctr.Drives() != wantBus.Drives() {
					t.Errorf("bus = %d drives / %g per drive, want %d / %g",
						ctr.Drives(), ctr.PerDrive(), wantBus.Drives(), wantBus.PerDrive())
				}

				_, _, blocks, err = drive(source, workers, 2)
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled mid-stream: err = %v, want ErrCanceled", err)
				}
				if blocks != 2 {
					t.Errorf("driver went on for %d blocks after canceling at 2", blocks)
				}
			})
		}
	}
}
