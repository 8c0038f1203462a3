package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// sampleSeeds is how many SHARDS sample seeds trace-sampled sweeps
// under, one seed per operation in turn: the records a spatial sample
// keeps vary from sample to sample, and cycling through a fixed set of
// samples (the same sample seeds for every workload seed) makes the
// operation-time distribution the same from run to run.
const sampleSeeds = 64

// sampleRate is trace-sampled's SHARDS sampling rate.
const sampleRate = 0.01

// traceWorkload is a generated trace input and the sweeps run over it.
type traceWorkload struct {
	path    string
	records int64
	// opts holds the sweeps the timed operations run in turn: the
	// default trace space for trace-exact, one per sample seed for
	// trace-sampled.
	opts []core.Options
	// workers is the sweep goroutine count of a timed operation; 0 leaves
	// it at the default, GOMAXPROCS.
	workers int
}

// traceSpace restricts sweep options the way an external-trace sweep
// does: B pinned to 1, layout as recorded.
func traceSpace(o core.Options) core.Options {
	o.Tilings = []int{1}
	o.OptimizeLayout = false
	return o.Normalize()
}

func setupTraceExact(cfg runConfig, step stepFunc) (traceWorkload, error) {
	segs := planSegments(rand.New(rand.NewSource(cfg.seed)), exactMix, cfg.scale)
	path := filepath.Join(cfg.dir, "trace-exact.din")
	n, err := writeSegmentsFile(path, segs, 0, step)
	if err != nil {
		return traceWorkload{}, fmt.Errorf("writing din input: %w", err)
	}
	return traceWorkload{path: path, records: n, opts: []core.Options{core.DefaultOptions()}}, nil
}

// setupTraceSampled streams the compute and polling segments as din text
// through a pipe into the transcoder, which writes the indexed mxt v2 file
// the sweeps read.
func setupTraceSampled(cfg runConfig, step stepFunc) (traceWorkload, error) {
	segs := planSegments(rand.New(rand.NewSource(cfg.seed)), sampledMix, cfg.scale)
	path := filepath.Join(cfg.dir, "trace-sampled.mxt")
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := writeSegments(pw, segs, pollRecords, step)
		pw.CloseWithError(err)
		done <- err
	}()
	st, err := transcodeFile(path, pr, extrace.V2WriterOptions{})
	pr.CloseWithError(err) // unblocks the writer if the transcode failed
	if werr := <-done; werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return traceWorkload{}, fmt.Errorf("generating the mxt v2 input: %w", err)
	}
	// A timed sweep runs on one worker: at the default worker count the
	// pipeline hands each thinned chunk between goroutines, and what those
	// hand-offs cost depends on how the host schedules them.
	w := traceWorkload{path: path, records: st.Records, workers: 1}
	// The workload is the case the index skip exists for: samples that
	// leave the idle phases' device buffer out, so whole polling chunks
	// are provably dead. A sample that keeps the buffer simulates the
	// busy-wait loop itself (a quarter of the trace per kept granule),
	// which trace-exact already measures; candidate seeds that keep it
	// are passed over. Seeds spread over all 64 bits because the filter
	// XORs the seed into the granule index before hashing: seeds that
	// differ only in low bits would draw correlated samples.
	for j := uint64(1); len(w.opts) < sampleSeeds; j++ {
		o := core.DefaultOptions()
		// A smoke run's smaller trace samples at a proportionally higher
		// rate, so it still simulates about as many records.
		o.SampleRate = min(sampleRate*float64(cfg.scale), 0.5)
		o.SampleSeed = extrace.Mix64(j)
		keeps := newSampleFilter(o)
		pollKept := false
		for a := uint64(pollBuffer); a < pollBuffer+256; a += 8 {
			pollKept = pollKept || keeps(a)
		}
		if !pollKept {
			w.opts = append(w.opts, o)
		}
	}
	return w, nil
}

// sweepFile runs one trace sweep over the file at path.
func sweepFile(ctx context.Context, path string, opts core.Options) ([]core.Metrics, extrace.IngestStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, extrace.IngestStats{}, err
	}
	defer f.Close()
	return core.ExploreTraceReader(ctx, f, opts, extrace.Options{})
}

func measureTraceExact(ctx context.Context, cfg runConfig) (outcome, error) {
	return measureTrace(ctx, cfg, func() (traceWorkload, error) { return setupTraceExact(cfg, runStep) }, checkPerPoint)
}

func measureTraceSampled(ctx context.Context, cfg runConfig) (outcome, error) {
	return measureTrace(ctx, cfg, func() (traceWorkload, error) { return setupTraceSampled(cfg, runStep) }, checkNoIndex)
}

// measureTrace is the measured run of both trace workloads: set up (seven
// times, for a steady setup_s), run each sweep once untimed to warm the
// page cache and pools and to fix the reference results, then run one
// sweep after another, cycling through w.opts, until the window ends and
// a cycle is complete, so every sweep of w.opts weighs the same.
// Each sweep is one operation, timed in process CPU time. Every timed
// sweep must reproduce its reference, taken at the default worker count,
// exactly, and the references must pass the workload's output check.
func measureTrace(ctx context.Context, cfg runConfig, setup func() (traceWorkload, error), check func(context.Context, runConfig, traceWorkload, [][]core.Metrics) error) (outcome, error) {
	var w traceWorkload
	setupS, err := medianSetup(7, func() (err error) {
		w, err = setup()
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	refs := make([][]core.Metrics, len(w.opts))
	for k, o := range w.opts {
		ms, st, err := sweepFile(ctx, w.path, o)
		if err != nil {
			return outcome{}, fmt.Errorf("warm-up sweep: %w", err)
		}
		if st.Records != w.records {
			return outcome{}, fmt.Errorf("warm-up sweep ingested %d records, want %d", st.Records, w.records)
		}
		refs[k] = ms
	}

	var (
		ops    opTimes
		failed int64
	)
	ops.start()
	for end := deadline(cfg); len(ops.cpu)%len(w.opts) != 0 || len(ops.cpu) == 0 || time.Now().Before(end); {
		k := len(ops.cpu) % len(w.opts)
		o := w.opts[k]
		o.Workers = w.workers
		op := ops.begin()
		ms, st, err := sweepFile(ctx, w.path, o)
		ops.end(op)
		if err != nil || st.Records != w.records || !reflect.DeepEqual(ms, refs[k]) {
			failed++
		}
	}
	ops.stop()
	rss := peakRSSMiB()

	o := outcome{digest: digestOf(refs)}
	if err := check(ctx, cfg, w, refs); err != nil {
		o.notes = append(o.notes, "output check failed: "+err.Error())
		failed = int64(len(ops.cpu))
	}
	o.result = result{
		Correct:   failed == 0,
		Attempted: int64(len(ops.cpu)),
		Failed:    failed,
		Metrics:   ops.endToEnd(float64(w.records)*float64(len(ops.cpu)), ops.total(), setupS, rss),
	}
	o.notes = append(o.notes, fmt.Sprintf("records=%d sweeps=%d points=%d", w.records, len(ops.cpu), len(refs[0])), ops.wallNote())
	return o, nil
}

// loadTrace decodes a whole trace file into memory.
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := extrace.NewReader(f, extrace.Options{})
	defer rd.Close()
	var refs []trace.Ref
	buf := make([]trace.Ref, 4096)
	for {
		n, err := rd.Read(buf)
		refs = append(refs, buf[:n]...)
		if err == io.EOF {
			return trace.FromRefs(refs), nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// fallbackPoints returns the indices of the points whose (line, sets)
// geometry holds a single configuration: the sweep simulates those
// through its fallback caches instead of an inclusion group.
func fallbackPoints(pts []core.ConfigPoint) []int {
	type geom struct{ line, sets int }
	count := map[geom]int{}
	for _, p := range pts {
		count[geom{p.LineSize, p.CacheSize / (p.LineSize * p.Assoc)}]++
	}
	var out []int
	for i, p := range pts {
		if count[geom{p.LineSize, p.CacheSize / (p.LineSize * p.Assoc)}] == 1 {
			out = append(out, i)
		}
	}
	return out
}

// checkPerPoint is trace-exact's output check: for a seeded subset of
// points, one of them a fallback configuration, the sweep's Metrics must
// equal an independent simulation of the same stream on a single cache
// (cachesim.New / Access) scored by the library's per-point path.
func checkPerPoint(ctx context.Context, cfg runConfig, w traceWorkload, refs [][]core.Metrics) error {
	tr, err := loadTrace(w.path)
	if err != nil {
		return err
	}
	opts := traceSpace(w.opts[0])
	pts := opts.Space()
	got := refs[0]
	if len(got) != len(pts) {
		return fmt.Errorf("sweep returned %d points, want %d", len(got), len(pts))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	fb := fallbackPoints(pts)
	if len(fb) == 0 {
		return fmt.Errorf("the trace space has no fallback configuration")
	}
	chosen := []int{fb[rng.Intn(len(fb))]}
	for _, i := range rng.Perm(len(pts))[:4] {
		chosen = append(chosen, i)
	}
	addBS := bus.MeasureTrace(tr, bus.Gray).AddBS()
	for _, i := range chosen {
		c, err := cachesim.New(pts[i].Config())
		if err != nil {
			return err
		}
		for _, r := range tr.Refs() {
			c.Access(r)
		}
		st := c.Stats()
		m := got[i]
		if st.Accesses != m.Accesses || st.Hits != m.Hits || st.Misses != m.Misses {
			return fmt.Errorf("%s: sweep counted %d/%d/%d accesses/hits/misses, single cache %d/%d/%d",
				m.Label(), m.Accesses, m.Hits, m.Misses, st.Accesses, st.Hits, st.Misses)
		}
		want, err := core.EvaluateTraceMeasured(tr, addBS, pts[i].Config(), 1, opts.Energy, false)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, m) {
			return fmt.Errorf("%s: sweep metrics %+v differ from per-point %+v", m.Label(), m, want)
		}
	}
	return nil
}

// checkNoIndex is trace-sampled's output check: sweeping an index-less
// copy of the artifact, which decodes every chunk, must reproduce the
// indexed sweep's Metrics bit for bit for every sample seed.
func checkNoIndex(ctx context.Context, cfg runConfig, w traceWorkload, refs [][]core.Metrics) error {
	bare := filepath.Join(cfg.dir, "noindex.mxt")
	in, err := os.Open(w.path)
	if err != nil {
		return err
	}
	_, err = transcodeFile(bare, in, extrace.V2WriterOptions{NoIndex: true})
	in.Close()
	if err != nil {
		return err
	}
	defer os.Remove(bare)
	for k, o := range w.opts {
		ms, st, err := sweepFile(ctx, bare, o)
		if err != nil {
			return err
		}
		if st.ChunksSkipped != 0 {
			return fmt.Errorf("the index-less copy skipped %d chunks", st.ChunksSkipped)
		}
		if !reflect.DeepEqual(ms, refs[k]) {
			return fmt.Errorf("sample seed %d: indexed sweep differs from the index-less sweep", o.SampleSeed)
		}
	}
	return nil
}
