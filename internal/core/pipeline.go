package core

// This file is the one chunk driver every sweep runs on. A sweep's
// reference stream arrives as blocks of at most traceChunkRefs
// references from a blockSource:
//
//   - memSource sub-slices an in-memory kernel trace without copying;
//   - readerSource decodes an external trace (extrace.Reader) into one
//     reused buffer on the driving goroutine;
//   - ringSource puts a decode producer goroutine in front of the
//     reader, filling recycled chunk slabs into a small bounded ring so
//     parsing (and gzip inflation) overlaps simulation. Stream sweeps use
//     it exactly when the simulation fans out, i.e. when
//     cachesim.Sweep.Shards yields more than one shard.
//
// sweepRun.run owns everything between a block and the sweep's
// statistics: the context check before each block, the optional stream
// filter, the Gray-code bus drive, the simulation — on the driving
// goroutine, or broadcast to shard workers that each own a disjoint
// subset of the sweep's pass units (sweepFanout) — and per-block
// progress. A barrier per block keeps every consumer block-synchronous,
// so statistics are bit-identical at any worker count: each pass unit
// sees the same references in the same order, and units never interact.
// Kernel groups (batch.go), external traces and distributed shards
// (tracesweep.go) all reach the sweep through this one loop.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// pipelineRingChunks bounds how many filled chunks may sit between the
// decode producer and the simulation coordinator: the producer runs at
// most this far ahead (triple buffering), which caps pipeline memory at
// a few chunk slabs while still absorbing decode jitter.
const pipelineRingChunks = 2

// chunkSlabPool recycles the pipeline's chunk slabs across sweeps.
var chunkSlabPool = sync.Pool{
	New: func() any {
		s := make([]trace.Ref, traceChunkRefs)
		return &s
	},
}

// PipelineObserver receives trace-pipeline events so callers (the
// memexplored service) can export gauges without the engine depending
// on a metrics system. Any callback may be nil. Callbacks run on the
// engine's goroutines and must be cheap and safe for concurrent use.
type PipelineObserver struct {
	// Workers reports the effective simulation worker count of a trace
	// sweep as it starts (1 for the sequential path).
	Workers func(n int)
	// ChunksInflight reports ring occupancy changes: +1 when the
	// producer fills a chunk, -1 when the coordinator retires it.
	ChunksInflight func(delta int)
	// ChunkStall reports how long the simulation coordinator waited for
	// the decode producer before each chunk — the pipeline's exposed
	// decode latency (zero when simulation is the bottleneck).
	ChunkStall func(d time.Duration)
}

type pipelineObsCtxKey struct{}

// WithPipelineObserver returns a context whose trace sweeps report
// their pipeline events to obs (nil silences them). Like WithProgress,
// it scopes the observer to the sweeps run under the context rather
// than to the process.
func WithPipelineObserver(ctx context.Context, obs *PipelineObserver) context.Context {
	return context.WithValue(ctx, pipelineObsCtxKey{}, obs)
}

// pipelineObserverFrom extracts the context's observer (nil when none).
func pipelineObserverFrom(ctx context.Context) *PipelineObserver {
	obs, _ := ctx.Value(pipelineObsCtxKey{}).(*PipelineObserver)
	return obs
}

func (o *PipelineObserver) workers(n int) {
	if o != nil && o.Workers != nil {
		o.Workers(n)
	}
}

func (o *PipelineObserver) chunks(delta int) {
	if o != nil && o.ChunksInflight != nil {
		o.ChunksInflight(delta)
	}
}

func (o *PipelineObserver) stall(d time.Duration) {
	if o != nil && o.ChunkStall != nil {
		o.ChunkStall(d)
	}
}

// effectiveWorkers resolves the Options.Workers knob: 0 (or negative)
// means GOMAXPROCS, 1 selects the exact sequential path.
func (o Options) effectiveWorkers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// fanShards returns the cost-balanced partition of the sweep's pass
// units across up to workers shard workers, or nil when the sweep runs
// on the driving goroutine (one worker, or a single pass unit).
func fanShards(sweep *cachesim.Sweep, workers int) []*cachesim.SweepShard {
	if workers <= 1 || sweep.PassUnits() < 2 {
		return nil
	}
	return sweep.Shards(workers)
}

// blockSource yields a sweep's reference stream in blocks of at most
// traceChunkRefs references.
type blockSource interface {
	// next returns the next block together with the source's terminal
	// state: io.EOF at a clean end, possibly alongside a final block. The
	// block stays valid until the following next or close call.
	next() ([]trace.Ref, error)
	// close releases the source. After it returns the source no longer
	// touches its underlying reader.
	close()
}

// memSource walks an in-memory trace. Its blocks alias the trace, so
// they are read-only: a sweep over it runs without a filter.
type memSource struct{ refs []trace.Ref }

func (s *memSource) next() ([]trace.Ref, error) {
	if len(s.refs) == 0 {
		return nil, io.EOF
	}
	n := min(len(s.refs), traceChunkRefs)
	block := s.refs[:n]
	s.refs = s.refs[n:]
	return block, nil
}

func (s *memSource) close() {}

// readerSource decodes a stream into one reused buffer on the driving
// goroutine.
type readerSource struct {
	rd  *extrace.Reader
	buf []trace.Ref
}

func (s *readerSource) next() ([]trace.Ref, error) {
	n, err := s.rd.Read(s.buf)
	return s.buf[:n], err
}

func (s *readerSource) close() {}

// newStreamSource reads rd on the driving goroutine, or through a decode
// producer and its ring when pipelined.
func newStreamSource(rd *extrace.Reader, pipelined bool, obs *PipelineObserver) blockSource {
	if !pipelined {
		return &readerSource{rd: rd, buf: make([]trace.Ref, traceChunkRefs)}
	}
	return &ringSource{p: startChunkProducer(rd, obs)}
}

// pipeChunk is one decoded chunk travelling from the producer to the
// coordinator. refs slices the recyclable slab; err is the reader's
// terminal state (io.EOF for a clean end) and may accompany refs.
type pipeChunk struct {
	slab *[]trace.Ref
	refs []trace.Ref
	err  error
}

// chunkProducer decodes the trace on its own goroutine, publishing
// filled chunks into a bounded ring. The final chunk carries the
// reader's terminal error (io.EOF on success); the channel closes once
// the producer exits, which also publishes every write it made to the
// extrace.Reader (ingest statistics) to the coordinator.
type chunkProducer struct {
	full chan pipeChunk
	done chan struct{} // closed by the coordinator to abandon the stream
	join chan struct{} // closed when the producer goroutine has exited
	obs  *PipelineObserver
}

func startChunkProducer(rd *extrace.Reader, obs *PipelineObserver) *chunkProducer {
	p := &chunkProducer{
		full: make(chan pipeChunk, pipelineRingChunks),
		done: make(chan struct{}),
		join: make(chan struct{}),
		obs:  obs,
	}
	go func() {
		defer close(p.join)
		defer close(p.full)
		for {
			slab := chunkSlabPool.Get().(*[]trace.Ref)
			n, err := rd.Read((*slab)[:traceChunkRefs])
			if n == 0 && err == nil {
				// Defensive: a no-progress, no-error read; try again.
				chunkSlabPool.Put(slab)
				continue
			}
			if n > 0 {
				obs.chunks(+1)
			}
			msg := pipeChunk{slab: slab, refs: (*slab)[:n], err: err}
			select {
			case p.full <- msg:
			case <-p.done:
				p.retire(msg)
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return p
}

// retire returns a chunk's slab to the pool and its ring slot to the
// occupancy gauge.
func (p *chunkProducer) retire(msg pipeChunk) {
	if len(msg.refs) > 0 {
		p.obs.chunks(-1)
	}
	chunkSlabPool.Put(msg.slab)
}

// stop abandons the stream and joins the producer goroutine, then
// drains any chunks still in the ring. After stop returns the producer
// no longer touches the extrace.Reader, so the caller may snapshot its
// statistics. The join can block while the producer sits in a blocking
// Read — the same exposure as the sequential source, which also only
// notices cancellation between reads.
func (p *chunkProducer) stop() {
	close(p.done)
	<-p.join
	for msg := range p.full {
		p.retire(msg)
	}
}

// ringSource hands out the producer's chunks, retiring each one when
// the driver asks for the next.
type ringSource struct {
	p    *chunkProducer
	held pipeChunk // the chunk last returned, owned until the next call
}

func (s *ringSource) next() ([]trace.Ref, error) {
	s.release()
	wait := time.Now()
	msg, ok := <-s.p.full
	if !ok {
		// Producer exited without a terminal chunk: only possible after
		// stop(), which close alone calls — treat as EOF.
		return nil, io.EOF
	}
	s.p.obs.stall(time.Since(wait))
	s.held = msg
	return msg.refs, msg.err
}

func (s *ringSource) close() {
	s.release()
	s.p.stop()
}

// release retires the chunk last handed out, if any.
func (s *ringSource) release() {
	if s.held.slab != nil {
		s.p.retire(s.held)
		s.held = pipeChunk{}
	}
}

// sweepFanout owns a set of worker goroutines, each consuming a
// disjoint shard of a Sweep's pass units. process broadcasts one block
// to every worker and returns only when all of them have consumed it —
// the per-block barrier that keeps the sweep block-synchronous (and
// makes the block's backing slab reusable the moment process returns).
type sweepFanout struct {
	chans []chan []trace.Ref
	ack   chan struct{}
	wg    sync.WaitGroup
}

// newSweepFanout starts one goroutine per shard. Callers must stop() it
// before reading the sweep's statistics or releasing the sweep.
func newSweepFanout(shards []*cachesim.SweepShard) *sweepFanout {
	f := &sweepFanout{
		chans: make([]chan []trace.Ref, len(shards)),
		ack:   make(chan struct{}, len(shards)),
	}
	for i, sh := range shards {
		ch := make(chan []trace.Ref)
		f.chans[i] = ch
		f.wg.Add(1)
		go func(sh *cachesim.SweepShard, ch <-chan []trace.Ref) {
			defer f.wg.Done()
			for block := range ch {
				sh.AccessBlock(block)
				f.ack <- struct{}{}
			}
		}(sh, ch)
	}
	return f
}

// process broadcasts block to every shard worker, drives the bus
// counter with it on the calling goroutine while the workers chew, and
// returns after every worker has acknowledged the block.
func (f *sweepFanout) process(block []trace.Ref, ctr *bus.SwitchCounter) {
	for _, ch := range f.chans {
		ch <- block
	}
	ctr.DriveRefs(block)
	for range f.chans {
		<-f.ack
	}
}

// stop shuts the workers down and joins them. It must not race a
// process call.
func (f *sweepFanout) stop() {
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
}

// sweepRun is one pass of a reference stream through a Sweep.
type sweepRun struct {
	sweep *cachesim.Sweep
	// shards, when it holds more than one shard, fans every block out
	// to that many workers; otherwise the driving goroutine simulates.
	shards []*cachesim.SweepShard
	// bus measures the Gray-code address-bus switching of the simulated
	// references.
	bus *bus.SwitchCounter
	// filter thins the stream before simulation (nil for exact sweeps).
	// It compacts blocks in place, so it needs a source whose blocks the
	// driver owns: never memSource.
	filter *traceFilter
	// progress, when non-nil, receives one event per block read,
	// counting records read rather than records simulated, so
	// percent-done tracks the stream. Kernel sweeps leave it nil and
	// report per workload group instead.
	progress ProgressFunc
}

// run drives src through the sweep to its end, the first read error or
// cancellation, leaving the sweep ready for Stats. src is closed before
// run returns.
func (r *sweepRun) run(ctx context.Context, src blockSource) error {
	defer src.close()
	var fan *sweepFanout
	if len(r.shards) > 1 {
		fan = newSweepFanout(r.shards)
		defer fan.stop()
	}
	for {
		if err := ctx.Err(); err != nil {
			return canceled(err)
		}
		read, err := src.next()
		if len(read) > 0 {
			// The filter runs here on the coordinator — blocks arrive in
			// stream order and are exclusively ours until the barrier —
			// so thinning is deterministic at any worker count.
			block := read
			if r.filter != nil {
				block = r.filter.apply(block)
			}
			if len(block) > 0 {
				if fan != nil {
					fan.process(block, r.bus)
				} else {
					r.bus.DriveRefs(block)
					r.sweep.AccessBlock(block)
				}
			}
			if r.progress != nil {
				r.progress(ProgressEvent{Records: int64(len(read)), Chunks: 1})
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: ingesting trace: %w", err)
		}
	}
}
