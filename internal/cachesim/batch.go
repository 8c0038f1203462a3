package cachesim

import (
	"fmt"
	"io"

	"memexplore/internal/trace"
)

// CancelCheckInterval is the block size of core's sweep driver, which
// checks its context between blocks: a canceled context stops a running
// pass within one interval.
const CancelCheckInterval = 8192

// Batch simulates many cache configurations in a single pass over a
// trace — the classic Dinero IV trick for sweeps: the trace is read once
// and fanned out to every cache, which matters when trace generation or
// I/O dominates.
type Batch struct {
	caches []*Cache
}

// NewBatch builds a batch of caches, one per configuration, without 3C
// classification (use individual caches when classification is needed).
func NewBatch(cfgs []Config) (*Batch, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cachesim: batch needs at least one configuration")
	}
	b := &Batch{caches: make([]*Cache, len(cfgs))}
	for i, cfg := range cfgs {
		c, err := NewFast(cfg)
		if err != nil {
			return nil, fmt.Errorf("cachesim: batch config %d: %w", i, err)
		}
		b.caches[i] = c
	}
	return b, nil
}

// Access feeds one reference to every cache.
func (b *Batch) Access(r trace.Ref) {
	for _, c := range b.caches {
		c.Access(r)
	}
}

// Run drains a source through every cache and returns per-configuration
// statistics in input order.
func (b *Batch) Run(src trace.Source) ([]Stats, error) {
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("cachesim: batch reading trace: %w", err)
		}
		b.Access(r)
	}
	return b.Stats(), nil
}

// AccessBlock feeds a block of references to every cache, letting each
// cache consume the whole block before the next runs: the per-cache
// state stays resident instead of every reference fanning out across all
// caches, which dominates wall-clock for wide batches. It is the
// chunk-granular entry point of core's sweep driver, producing
// statistics identical to per-reference Access in any chunking (caches
// do not interact).
func (b *Batch) AccessBlock(block []trace.Ref) {
	for _, c := range b.caches {
		c.AccessBlock(block)
	}
}

// Stats returns the per-configuration statistics in input order.
func (b *Batch) Stats() []Stats {
	out := make([]Stats, len(b.caches))
	for i, c := range b.caches {
		out[i] = c.Stats()
	}
	return out
}

// Reset clears every cache in the batch.
func (b *Batch) Reset() {
	for _, c := range b.caches {
		c.Reset()
	}
}

// Release returns the caches' backing arrays to a package pool for reuse
// by later batches. Call after the final Stats(); the batch must not be
// used afterwards.
func (b *Batch) Release() {
	for _, c := range b.caches {
		c.release()
	}
	b.caches = nil
}

// RunBatch simulates a trace against every configuration in one pass.
func RunBatch(cfgs []Config, tr *trace.Trace) ([]Stats, error) {
	b, err := NewBatch(cfgs)
	if err != nil {
		return nil, err
	}
	return b.Run(tr.Reader())
}
