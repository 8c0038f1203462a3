package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/cycles"
	"memexplore/internal/energy"
	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/search"
	"memexplore/internal/service"
	"memexplore/internal/trace"
)

// layerMetrics lists every per-layer metric with its unit. Every traced
// run reports all of them: a layer the workload does not drive itself is
// measured on the workload's own inputs (the kernels its trace is built
// from, its trace served over HTTP, the trace bodies of its requests).
var layerMetrics = []struct{ name, unit string }{
	{"extrace.decode_ns_per_record", "ns/rec"},
	{"extrace.records_skipped_share", "ratio"},
	{"extrace.index_probe_ms", "ms"},
	{"extrace.transcode_ns_per_record", "ns/rec"},
	{"bus.drive_ns_per_record", "ns/rec"},
	{"cachesim.simulate_ns_per_record", "ns/rec"},
	{"cachesim.pass_units", "count"},
	{"cachesim.inclusion_groups", "count"},
	{"cachesim.fallback_configs", "count"},
	{"cachesim.shard_max_s", "s"},
	{"cachesim.shard_balance", "ratio"},
	{"energy.score_us_per_point", "us/point"},
	{"core.sweep_workers1_s", "s"},
	{"core.pipeline_speedup", "ratio"},
	{"core.self_s", "s"},
	{"core.sample_keep_share", "ratio"},
	{"core.miss_rate_err_p90", "miss_rate"},
	{"loopir.generate_ns_per_ref", "ns/ref"},
	{"core.explore_ms", "ms"},
	{"core.aggregate_ms", "ms"},
	{"search.kernel_ms", "ms"},
	{"search.evaluations", "count"},
	{"service.overhead_ms", "ms"},
	{"service.cache_hit_share", "ratio"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// layerValues collects per-layer figures by metric name.
type layerValues map[string]float64

func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }

func medianMS(ds []time.Duration) float64 { return median(seconds(ds)) * 1e3 }

// finishTraced turns a traced run's figures into its outcome and writes
// the span file.
func finishTraced(cfg runConfig, workload string, t *tracer, v layerValues, digest string) (outcome, error) {
	o := outcome{digest: digest}
	o.Metrics = map[string]metric{}
	for _, lm := range layerMetrics {
		x, ok := v[lm.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			t.fail("per-layer metric %s was not measured", lm.name)
			continue
		}
		o.Metrics[lm.name] = metric{x, lm.unit}
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, cfg.seed))
	if err := t.write(path, map[string]any{"workload": workload, "seed": cfg.seed, "scale": cfg.scale}); err != nil {
		return outcome{}, err
	}
	o.notes = append(o.notes, "spans written to "+path)
	for _, f := range t.fails {
		o.notes = append(o.notes, "output check failed: "+f)
	}
	layers := t.layers()
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := layers[n]
		o.notes = append(o.notes, fmt.Sprintf("layer %s count=%d total_ms=%.3f self_ms=%.3f", n, l.Count, l.TotalMS, l.SelfMS))
	}
	o.Attempted = int64(len(t.spans))
	o.Failed = int64(len(t.fails))
	o.Correct = len(t.fails) == 0
	return o, nil
}

// errSeeds is how many sample seeds the estimator error is measured over.
const errSeeds = 8

// traceInput is the trace a traced run replays layer by layer.
type traceInput struct {
	open func() (io.ReadCloser, error)
	// opts is the sweep the workload times; variants, when set, are the
	// other sample seeds of a sampled workload.
	opts     core.Options
	variants []core.Options
	// errRate is the sampling rate whose miss-rate error is measured on
	// an exact input; a sampled input uses its own rate.
	errRate float64
	// din opens the workload's trace as din text, the form set-up
	// transcodes.
	din func() (io.ReadCloser, error)
}

// traceLayers replays one trace sweep layer by layer: the sweep itself
// untimed and traced, at one worker, and then each layer's public calls
// alone on the same stream. It fills the extrace, bus, cachesim, energy
// and core figures and returns the sweep's results (the first variant,
// then the others) and the median untimed sweep time.
func traceLayers(ctx context.Context, t *tracer, in traceInput, v layerValues) ([][]core.Metrics, time.Duration, error) {
	sweep := func(o core.Options) ([]core.Metrics, extrace.IngestStats, error) {
		rc, err := in.open()
		if err != nil {
			return nil, extrace.IngestStats{}, err
		}
		defer rc.Close()
		return core.ExploreTraceReader(ctx, rc, o, extrace.Options{})
	}
	ms0, st0, err := sweep(in.opts) // warm-up
	if err != nil {
		return nil, 0, err
	}
	// The same call untimed and inside a span, alternating, at least three
	// pairs and up to two seconds' worth: their gap is the tracing
	// overhead.
	var plain, traced []time.Duration
	for start := time.Now(); len(plain) < 3 || (len(plain) < 50 && time.Since(start) < 2*time.Second); {
		t0 := time.Now()
		if _, _, err := sweep(in.opts); err != nil {
			return nil, 0, err
		}
		plain = append(plain, time.Since(t0))
		d, err := t.do(spanCtx{}, "core.sweep", func(spanCtx) error {
			_, _, err := sweep(in.opts)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		traced = append(traced, d)
	}
	sweepS := median(seconds(plain))
	v["trace.overhead_share"] = median(seconds(traced))/sweepS - 1

	var root spanCtx
	_, err = t.do(spanCtx{}, "replay.trace", func(sc spanCtx) error {
		root = sc
		return replayTrace(ctx, t, root, in, ms0, st0, sweepS, v)
	})
	if err != nil {
		return nil, 0, err
	}

	// Estimator error: sampled sweeps under the first errSeeds seeds of
	// the sample-seed stream, unfiltered, against the exact sweep of the
	// same stream. A sampled workload's own seeds are not used, because
	// they are chosen to leave its polling buffer out.
	results := [][]core.Metrics{ms0}
	for _, vo := range in.variants {
		ms, _, err := sweep(vo)
		if err != nil {
			return nil, 0, err
		}
		results = append(results, ms)
	}
	exact := ms0
	rate := in.errRate
	if in.opts.SampleRate > 0 {
		rate = in.opts.SampleRate
		o := in.opts
		o.SampleRate, o.SampleSeed = 0, 0
		if _, err := t.do(spanCtx{}, "core.sweep_exact_reference", func(spanCtx) (err error) {
			exact, _, err = sweep(o)
			return err
		}); err != nil {
			return nil, 0, err
		}
	}
	var sampled [][]core.Metrics
	for j := uint64(1); j <= errSeeds; j++ {
		o := in.opts
		o.SampleRate, o.SampleSeed = rate, extrace.Mix64(j)
		ms, _, err := sweep(o)
		if err != nil {
			return nil, 0, err
		}
		sampled = append(sampled, ms)
	}
	var errs []float64
	for _, ms := range sampled {
		for i := range ms {
			errs = append(errs, math.Abs(ms[i].MissRate-exact[i].MissRate))
		}
	}
	v["core.miss_rate_err_p90"] = quantile(errs, 0.9)
	return results, time.Duration(sweepS * float64(time.Second)), nil
}

// replayTrace times each layer's calls alone, under root.
func replayTrace(ctx context.Context, t *tracer, root spanCtx, in traceInput, ms0 []core.Metrics, st0 extrace.IngestStats, sweepS float64, v layerValues) error {
	open := func(fn func(io.Reader) error) error {
		rc, err := in.open()
		if err != nil {
			return err
		}
		defer rc.Close()
		return fn(rc)
	}
	records := float64(st0.Records)
	v["extrace.records_skipped_share"] = float64(st0.RecordsSkipped) / records

	o1 := in.opts
	o1.Workers = 1
	w1, err := t.do(root, "core.sweep_workers1", func(spanCtx) error {
		return open(func(r io.Reader) error {
			ms, _, err := core.ExploreTraceReader(ctx, r, o1, extrace.Options{})
			if err == nil && !reflect.DeepEqual(ms, ms0) {
				t.fail("the one-worker sweep differs from the default sweep")
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	v["core.sweep_workers1_s"] = w1.Seconds()
	v["core.pipeline_speedup"] = w1.Seconds() / sweepS

	probe, err := t.do(root, "extrace.probe_index", func(spanCtx) error {
		return open(func(r io.Reader) error { extrace.ProbeIndex(r); return nil })
	})
	if err != nil {
		return err
	}
	v["extrace.index_probe_ms"] = millis(probe)

	// Decode the whole stream into chunks of the sweep's chunk size.
	var chunks [][]trace.Ref
	decode, err := t.do(root, "extrace.decode", func(spanCtx) error {
		return open(func(r io.Reader) error {
			rd := extrace.NewReader(r, extrace.Options{})
			defer rd.Close()
			for {
				buf := make([]trace.Ref, cachesim.CancelCheckInterval)
				n, err := rd.Read(buf)
				if n > 0 {
					chunks = append(chunks, buf[:n])
				}
				if err == io.EOF {
					if got := rd.Stats().Records; got != st0.Records {
						t.fail("decode read %d records, the sweep %d", got, st0.Records)
					}
					return nil
				}
				if err != nil {
					return err
				}
			}
		})
	})
	if err != nil {
		return err
	}
	v["extrace.decode_ns_per_record"] = float64(decode.Nanoseconds()) / records

	// The records the sweep simulates: all of them, or under sampling
	// those whose block granule hashes below the keep threshold.
	kept := chunks
	if in.opts.SampleRate > 0 {
		kept = sampleChunks(chunks, in.opts)
	}
	var keptN int64
	for _, c := range kept {
		keptN += int64(len(c))
	}
	if in.opts.SampleRate > 0 && keptN != ms0[0].SampledRecords {
		t.fail("the sample filter kept %d records, the sweep simulated %d", keptN, ms0[0].SampledRecords)
	}
	v["core.sample_keep_share"] = float64(keptN) / records

	ctr := bus.NewSwitchCounter(bus.Gray)
	drive, _ := t.do(root, "bus.drive", func(spanCtx) error {
		for _, c := range kept {
			for _, r := range c {
				ctr.Drive(r.Addr)
			}
		}
		return nil
	})
	v["bus.drive_ns_per_record"] = float64(drive.Nanoseconds()) / float64(keptN)
	addBS := ctr.PerDrive()
	if addBS != ms0[0].AddBS {
		t.fail("bus replay measured AddBS %v, the sweep %v", addBS, ms0[0].AddBS)
	}

	space := traceSpace(in.opts)
	pts := space.Space()
	if len(pts) != len(ms0) {
		return fmt.Errorf("trace space has %d points, the sweep returned %d", len(pts), len(ms0))
	}
	cfgs := make([]cachesim.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = p.Config()
	}
	var stats []cachesim.Stats
	simulate, err := t.do(root, "cachesim.simulate", func(spanCtx) error {
		sw, err := cachesim.NewSweep(cfgs)
		if err != nil {
			return err
		}
		defer sw.Release()
		for _, c := range kept {
			sw.AccessBlock(c)
		}
		stats = sw.Stats()
		v["cachesim.pass_units"] = float64(sw.PassUnits())
		v["cachesim.inclusion_groups"] = float64(sw.InclusionGroups())
		v["cachesim.fallback_configs"] = float64(sw.FallbackConfigs())
		return nil
	})
	if err != nil {
		return err
	}
	v["cachesim.simulate_ns_per_record"] = float64(simulate.Nanoseconds()) / float64(keptN)
	if in.opts.SampleRate == 0 {
		for i, st := range stats {
			if st.Hits != ms0[i].Hits || st.Misses != ms0[i].Misses {
				t.fail("%s: simulate replay counted %d/%d hits/misses, the sweep %d/%d",
					ms0[i].Label(), st.Hits, st.Misses, ms0[i].Hits, ms0[i].Misses)
				break
			}
		}
	}

	// Each shard of the pipelined engine's partition, replayed alone.
	sw, err := cachesim.NewSweep(cfgs)
	if err != nil {
		return err
	}
	var shardMax, shardSum time.Duration
	shards := sw.Shards(runtime.GOMAXPROCS(0))
	for _, sh := range shards {
		d, _ := t.do(root, "cachesim.shard", func(spanCtx) error {
			for _, c := range kept {
				sh.AccessBlock(c)
			}
			return nil
		})
		shardSum += d
		shardMax = max(shardMax, d)
	}
	sw.Release()
	v["cachesim.shard_max_s"] = shardMax.Seconds()
	v["cachesim.shard_balance"] = shardSum.Seconds() / (float64(len(shards)) * shardMax.Seconds())

	p := space.Energy
	score, err := t.do(root, "energy.score", func(spanCtx) error {
		for i, c := range cfgs {
			if _, err := energy.Total(p, c, addBS, stats[i].Hits, stats[i].Misses); err != nil {
				return err
			}
			cyc, err := cycles.Count(cycles.Params{Assoc: c.Assoc, LineBytes: c.LineBytes, TilingSize: 1}, stats[i].Hits, stats[i].Misses)
			if err != nil {
				return err
			}
			if in.opts.SampleRate == 0 && cyc != ms0[i].Cycles {
				t.fail("%s: cycle replay %v, the sweep %v", ms0[i].Label(), cyc, ms0[i].Cycles)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["energy.score_us_per_point"] = float64(score.Nanoseconds()) / 1e3 / float64(len(cfgs))
	v["core.self_s"] = (w1 - decode - drive - simulate - score).Seconds()

	tc, err := t.do(root, "extrace.transcode", func(spanCtx) error {
		rc, err := in.din()
		if err != nil {
			return err
		}
		defer rc.Close()
		_, _, err = extrace.TranscodeV2Options(io.Discard, rc, extrace.Options{}, extrace.V2WriterOptions{})
		return err
	})
	if err != nil {
		return err
	}
	v["extrace.transcode_ns_per_record"] = float64(tc.Nanoseconds()) / records
	return nil
}

// newSampleFilter returns the SHARDS spatial filter of a sampled sweep: a
// record survives when the splitmix hash of its block granule, salted by
// the sample seed, falls below the rate's keep threshold. The granule is
// the largest line size, and at least extrace.LineGranule.
func newSampleFilter(o core.Options) func(addr uint64) bool {
	g := extrace.LineGranule
	for _, l := range o.LineSizes {
		g = max(g, l)
	}
	shift := uint(bits.TrailingZeros(uint(g)))
	threshold := extrace.SampleThreshold(o.SampleRate)
	return func(addr uint64) bool { return extrace.Mix64((addr>>shift)^o.SampleSeed) < threshold }
}

// sampleChunks keeps the records of chunks that the sample filter of o
// passes, dropping chunks left empty.
func sampleChunks(chunks [][]trace.Ref, o core.Options) [][]trace.Ref {
	keeps := newSampleFilter(o)
	out := make([][]trace.Ref, 0, len(chunks))
	for _, c := range chunks {
		var keep []trace.Ref
		for _, r := range c {
			if keeps(r.Addr) {
				keep = append(keep, r)
			}
		}
		if len(keep) > 0 {
			out = append(out, keep)
		}
	}
	return out
}

// kernelSweepOptions is the small kernel sweep the trace workloads'
// kernel-layer figures use.
func kernelSweepOptions() core.Options {
	o := core.DefaultOptions()
	o.CacheSizes = []int{64, 256, 1024}
	o.LineSizes = []int{8, 16}
	o.Tilings = []int{1, 4}
	o.OptimizeLayout = false
	return o.Normalize()
}

// segmentKernelLayers measures the kernel path on the kernels a trace
// workload's segments run: an explore of each distinct kernel, the §5
// aggregate of all of them weighted by segment count, and a small search
// on the most frequent one.
func segmentKernelLayers(ctx context.Context, t *tracer, seed int64, segs []segment, v layerValues) error {
	count := map[string]int64{}
	for _, s := range segs {
		count[s.kernel]++
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if count[names[i]] != count[names[j]] {
			return count[names[i]] > count[names[j]]
		}
		return names[i] < names[j]
	})
	opts := kernelSweepOptions()
	var explores []time.Duration
	var ws []core.WeightedKernel
	for _, name := range names {
		n, err := kernels.ByName(name)
		if err != nil {
			return err
		}
		ws = append(ws, core.WeightedKernel{Nest: n, Trip: count[name]})
		d, err := t.do(spanCtx{}, "core.explore", func(spanCtx) error {
			_, err := core.ExploreContext(ctx, n, opts)
			return err
		})
		if err != nil {
			return err
		}
		explores = append(explores, d)
	}
	v["core.explore_ms"] = medianMS(explores)
	d, err := t.do(spanCtx{}, "core.aggregate", func(spanCtx) error {
		_, _, err := core.AggregateContext(ctx, ws, opts)
		return err
	})
	if err != nil {
		return err
	}
	v["core.aggregate_ms"] = millis(d)
	var res search.Result
	d, err = t.do(spanCtx{}, "search.kernel", func(spanCtx) (err error) {
		res, err = search.Kernel(ctx, ws[0].Nest, core.DefaultOptions().Normalize(),
			search.Options{Seed: uint64(seed)}.Normalize(), search.Budget{MaxEvaluations: 32}, 0)
		return err
	})
	if err != nil {
		return err
	}
	v["search.kernel_ms"] = millis(d)
	v["search.evaluations"] = float64(res.Evaluations)
	return nil
}

// serveTrace measures the service and job layers on a trace workload: the
// workload's trace posted once to /v1/explore-trace and twice as an
// explore-trace job (the second answered from the job result tier), each
// answer checked against the library sweep.
func serveTrace(ctx context.Context, t *tracer, body []byte, opts core.Options, want []core.Metrics, direct time.Duration, v layerValues) error {
	m, err := startServer(service.Config{MaxBodyBytes: int64(len(body)) + 1<<20})
	if err != nil {
		return err
	}
	defer m.stop()
	header, err := json.Marshal(map[string]any{"options": opts})
	if err != nil {
		return err
	}
	wantSum := digestOf(want)
	reqs := []mixRequest{
		{class: classTrace, path: "/v1/explore-trace", header: string(header), body: body},
		{class: classJob, path: "/v1/jobs", header: string(header), body: body},
		{class: classJob, path: "/v1/jobs", header: string(header), body: body},
	}
	var submits []time.Duration
	hits := 0
	for i, r := range reqs {
		var res opResult
		if _, err := t.do(spanCtx{}, "service.request", func(sc spanCtx) error {
			_, err := t.do(sc, "service.http", func(spanCtx) error {
				res = m.send(ctx, r)
				return res.err
			})
			return err
		}); err != nil {
			return err
		}
		if res.metrics != wantSum {
			t.fail("served %s answer differs from the library sweep", r.path)
		}
		if res.cached {
			hits++
		}
		switch {
		case i == 0:
			v["service.overhead_ms"] = millis(res.lat - direct)
		case i == 1:
			v["jobs.queue_ms"] = millis(res.queue)
			submits = append(submits, res.submit)
		default:
			submits = append(submits, res.submit)
		}
	}
	v["jobs.submit_ms"] = medianMS(submits)
	v["service.cache_hit_share"] = float64(hits) / float64(len(reqs))
	return nil
}

// tracedTrace is the traced run shared by the trace workloads.
func tracedTrace(ctx context.Context, cfg runConfig, workload string, mix []segSpec, poll int,
	setup func(runConfig, stepFunc) (traceWorkload, error)) (outcome, error) {
	t := newTracer()
	v := layerValues{}
	var w traceWorkload
	if _, err := t.do(spanCtx{}, "setup", func(sc spanCtx) (err error) {
		w, err = setup(cfg, t.step(sc))
		return err
	}); err != nil {
		return outcome{}, err
	}
	segs := planSegments(rand.New(rand.NewSource(cfg.seed)), mix, cfg.scale)
	genRefs := w.records - int64(poll*len(segs))
	v["loopir.generate_ns_per_ref"] = float64(t.total("loopir.generate").Nanoseconds()) / float64(genRefs)
	din := w.path
	if poll > 0 {
		// The sampled workload keeps only the mxt v2 file; write the din
		// text it was transcoded from again, untimed, for the replay.
		din = filepath.Join(cfg.dir, "replay.din")
		if _, err := writeSegmentsFile(din, segs, poll, runStep); err != nil {
			return outcome{}, err
		}
	}
	in := traceInput{
		open:     func() (io.ReadCloser, error) { return os.Open(w.path) },
		opts:     w.opts[0],
		variants: w.opts[1:],
		errRate:  min(sampleRate*float64(cfg.scale), 0.5),
		din:      func() (io.ReadCloser, error) { return os.Open(din) },
	}
	results, direct, err := traceLayers(ctx, t, in, v)
	if err != nil {
		return outcome{}, err
	}
	if err := segmentKernelLayers(ctx, t, cfg.seed, segs, v); err != nil {
		return outcome{}, err
	}
	body, err := os.ReadFile(w.path)
	if err != nil {
		return outcome{}, err
	}
	if err := serveTrace(ctx, t, body, w.opts[0], results[0], direct, v); err != nil {
		return outcome{}, err
	}
	return finishTraced(cfg, workload, t, v, digestOf(results))
}

func tracedTraceExact(ctx context.Context, cfg runConfig) (outcome, error) {
	return tracedTrace(ctx, cfg, "trace-exact", exactMix, 0, setupTraceExact)
}

func tracedTraceSampled(ctx context.Context, cfg runConfig) (outcome, error) {
	return tracedTrace(ctx, cfg, "trace-sampled", sampledMix, pollRecords, setupTraceSampled)
}

// tracedServiceMix replays the first requests of the mix one at a time,
// each followed (when it missed the cache) by the direct library call it
// stands for, then replays the mix's trace body layer by layer.
func tracedServiceMix(ctx context.Context, cfg runConfig) (outcome, error) {
	t := newTracer()
	v := layerValues{}
	var (
		d *deck
		m *mixServer
	)
	if _, err := t.do(spanCtx{}, "setup", func(sc spanCtx) error {
		var err error
		d, err = newDeck(cfg.seed, cfg.scale, t.step(sc))
		if err != nil {
			return err
		}
		return t.step(sc)("service.start", func() (err error) {
			m, err = startServer(service.Config{SweepWorkers: mixWorkers})
			return err
		})
	}); err != nil {
		return outcome{}, err
	}
	defer m.stop()
	if err := m.warmUp(ctx); err != nil {
		return outcome{}, err
	}

	n := digestPrefix / cfg.scale
	var (
		ops                          []opResult
		overhead, explore, aggregate []time.Duration
		searches, submits, queues    []time.Duration
		evals                        []float64
		hits                         int
		firstBody                    = map[string]string{}
		generated                    = map[string]bool{}
		genTime                      time.Duration
		genRefs                      int64
	)
	for i := 0; i < n; i++ {
		r := d.at(i)
		var res opResult
		var direct time.Duration
		if _, err := t.do(spanCtx{}, "request."+r.class, func(sc spanCtx) error {
			if _, err := t.do(sc, "service.http", func(spanCtx) error {
				res = m.send(ctx, r)
				return res.err
			}); err != nil {
				return err
			}
			if res.cached {
				return nil
			}
			var want string
			var ev int
			var err error
			direct, err = t.do(sc, directSpan[r.class], func(spanCtx) error {
				want, ev, err = d.direct(ctx, r)
				return err
			})
			if err != nil {
				return err
			}
			if want != res.metrics {
				t.fail("request %d (%s): answer differs from the direct library call", i, r.class)
			}
			if r.class == classSearch {
				evals = append(evals, float64(ev))
			}
			return nil
		}); err != nil {
			return outcome{}, fmt.Errorf("request %d (%s): %w", i, r.class, err)
		}
		ops = append(ops, res)
		if b, ok := firstBody[r.key]; ok && b != res.bodySum {
			t.fail("request %d (%s): answer differs from an earlier one with the same key", i, r.class)
		}
		firstBody[r.key] = res.bodySum
		if r.class == classJob {
			submits = append(submits, res.submit)
		}
		if res.cached {
			hits++
			continue
		}
		switch r.class {
		case classExplore:
			explore = append(explore, direct)
			overhead = append(overhead, res.lat-direct)
		case classJob:
			explore = append(explore, direct)
			queues = append(queues, res.queue)
		case classAggregate:
			aggregate = append(aggregate, direct)
			overhead = append(overhead, res.lat-direct)
		case classSearch:
			searches = append(searches, direct)
			overhead = append(overhead, res.lat-direct)
		case classTrace:
			overhead = append(overhead, res.lat-direct)
		}
		if r.class == classExplore || r.class == classJob {
			if err := generateTilings(t, r, generated, &genTime, &genRefs); err != nil {
				return outcome{}, err
			}
		}
	}
	v["service.overhead_ms"] = medianMS(overhead)
	v["service.cache_hit_share"] = float64(hits) / float64(len(ops))
	v["jobs.submit_ms"] = medianMS(submits)
	v["jobs.queue_ms"] = medianMS(queues)
	v["core.explore_ms"] = medianMS(explore)
	v["core.aggregate_ms"] = medianMS(aggregate)
	v["search.kernel_ms"] = medianMS(searches)
	v["search.evaluations"] = median(evals)
	v["loopir.generate_ns_per_ref"] = float64(genTime.Nanoseconds()) / float64(genRefs)

	body := d.bodies[0]
	in := traceInput{
		open:    func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
		opts:    core.DefaultOptions().Normalize(),
		errRate: 0.1,
	}
	in.din = in.open
	if _, _, err := traceLayers(ctx, t, in, v); err != nil {
		return outcome{}, err
	}
	return finishTraced(cfg, "service-mix", t, v, mixDigest(ops, n))
}

// directSpan names the span of each class's direct library call.
var directSpan = map[string]string{
	classExplore: "core.explore", classJob: "core.explore", classAggregate: "core.aggregate",
	classSearch: "search.kernel", classTrace: "core.sweep",
}

// generateTilings times loopir trace generation for each (kernel, tiling)
// of an explore request not generated before, with the sequential layout,
// adding the time and the references generated to total and refs.
func generateTilings(t *tracer, r mixRequest, done map[string]bool, total *time.Duration, refs *int64) error {
	n, err := kernels.ByName(r.kernels[0])
	if err != nil {
		return err
	}
	for _, b := range r.opts.Tilings {
		key := fmt.Sprint(r.kernels[0], "/", b)
		if done[key] {
			continue
		}
		done[key] = true
		d, err := t.do(spanCtx{}, "loopir.generate", func(spanCtx) error {
			tiled, err := loopir.TileAll(n, b)
			if err != nil {
				return err
			}
			tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
			if err == nil {
				*refs += int64(tr.Len())
			}
			return err
		})
		if err != nil {
			return err
		}
		*total += d
	}
	return nil
}
