package cachesim_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// The trace-sweep driver lives in internal/core: it walks a trace in
// CancelCheckInterval-sized blocks, feeds each block to a Batch or Sweep
// with AccessBlock, and checks its context between blocks. The tests
// below pin the cachesim side of that contract (block traversal equals
// a per-reference run) and the cancellation bound the constant promises.

// contractTrace is a mixed read/write trace spanning several driver
// blocks plus a partial one.
func contractTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	var tr trace.Trace
	for i := 0; i < 3*cachesim.CancelCheckInterval+77; i++ {
		r := trace.Ref{Addr: uint64(rng.Intn(4096)) &^ 3, Size: 4}
		if i%4 == 1 {
			r.Kind = trace.Write
		}
		tr.Append(r)
	}
	return &tr
}

func encodeContractTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := extrace.WriteBinary(&buf, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func contractOptions(engine core.Engine) core.Options {
	opts := core.DefaultOptions()
	opts.CacheSizes = []int{64, 128, 256}
	opts.LineSizes = []int{8, 16}
	opts.Assocs = []int{1, 2, 4}
	opts.Engine = engine
	opts.Workers = 1
	return opts
}

// TestRunTraceContextMatchesRun checks that driving a Batch block by
// block, in the driver's CancelCheckInterval blocks, visits every
// reference once and leaves statistics identical to a per-reference Run.
func TestRunTraceContextMatchesRun(t *testing.T) {
	tr := contractTrace()
	cfgs := []cachesim.Config{
		cachesim.DefaultConfig(64, 8, 1),
		cachesim.DefaultConfig(256, 16, 2),
		cachesim.DefaultConfig(512, 8, 4),
	}
	want, err := cachesim.RunBatch(cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cachesim.NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	refs := tr.Refs()
	visited := 0
	for start := 0; start < len(refs); start += cachesim.CancelCheckInterval {
		block := refs[start:min(start+cachesim.CancelCheckInterval, len(refs))]
		visited += len(block)
		b.AccessBlock(block)
	}
	if visited != tr.Len() {
		t.Errorf("blocks covered %d refs, want %d", visited, tr.Len())
	}
	got := b.Stats()
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("config %d: block traversal %+v != Run %+v", i, got[i], want[i])
		}
	}
}

// TestRunTraceContextCancel checks the cancellation bound on the batched
// engine: a context canceled after the first block stops the pass before
// another block is read, and a pre-canceled context reads none.
func TestRunTraceContextCancel(t *testing.T) {
	enc := encodeContractTrace(t, contractTrace())
	opts := contractOptions(core.EngineBatched)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var records int64
	ctx = core.WithProgress(ctx, func(ev core.ProgressEvent) {
		records += ev.Records
		cancel()
	})
	_, _, err := core.ExploreTraceReader(ctx, bytes.NewReader(enc), opts, extrace.Options{})
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if records == 0 || records > cachesim.CancelCheckInterval {
		t.Errorf("read %d refs after canceling on the first block; want within one interval (%d)", records, cachesim.CancelCheckInterval)
	}

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	touched := int64(0)
	pre = core.WithProgress(pre, func(ev core.ProgressEvent) { touched += ev.Records })
	if _, _, err := core.ExploreTraceReader(pre, bytes.NewReader(enc), opts, extrace.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v, want context.Canceled", err)
	}
	if touched != 0 {
		t.Errorf("pre-canceled pass read %d refs, want 0", touched)
	}
}

// TestSweepCancel checks the same block-boundary context contract on the
// inclusion-sweep engine.
func TestSweepCancel(t *testing.T) {
	enc := encodeContractTrace(t, contractTrace())
	opts := contractOptions(core.EngineAuto)
	plan, err := core.TraceSweepPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.InclusionGroups == 0 {
		t.Fatal("options formed no inclusion groups")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := core.ExploreTraceReader(ctx, bytes.NewReader(enc), opts, extrace.Options{}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled context did not stop the sweep: err = %v", err)
	}
}
