package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/jobs"
	"memexplore/internal/kernels"
	"memexplore/internal/search"
	"memexplore/internal/service"
)

// Request classes of service-mix.
const (
	classExplore   = "explore"
	classAggregate = "aggregate"
	classSearch    = "search"
	classTrace     = "trace"
	classJob       = "job"
	classRepeat    = "repeat"
)

// roundClasses is one round of the mix. Every round holds these twenty
// slots in a seeded order, so each seed sends the same share of each
// class; a repeat re-sends an earlier cacheable request of a previous
// round, so about a fifth of the requests are answered by a result cache.
//
// The shares are assumptions, not measurements: no recorded traffic of
// the service exists to draw them from. Interactive explores dominate,
// as an engineer sizing a cache sends many of them; aggregates and
// searches are the rare heavy requests; explore-trace and jobs stand for
// CI-style submissions; the repeat share exercises the result cache.
var roundClasses = []string{
	classExplore, classExplore, classExplore, classExplore,
	classExplore, classExplore, classExplore, classExplore,
	classAggregate, classAggregate, classSearch, classTrace, classTrace,
	classJob, classJob, classJob,
	classRepeat, classRepeat, classRepeat, classRepeat,
}

// mixKernels are the kernels explore, job and search requests draw from:
// paper and extra kernels whose small sweeps take tens of milliseconds.
var mixKernels = []string{"compress", "pde", "sor", "dequant", "lu", "dct2drow", "histogram8"}

// mixWorkers is the sweep goroutine count of every service-mix request:
// one, so a request's CPU time is its sweep's and not also that of
// hand-offs between sweep goroutines, which swings with how the host
// shares its CPUs.
const mixWorkers = 1

// traceBodies is how many distinct /v1/explore-trace bodies the mix uses.
const traceBodies = 4

// digestPrefix is how many leading requests of the mix the digest covers
// (divided by the scale of a smoke run); a measured run sends at least
// that many, however long they take.
const digestPrefix = 200

// mixRequest is one request of the mix plus what the direct library
// call that must reproduce it needs.
type mixRequest struct {
	index  int
	class  string // never classRepeat: a repeat resolves to its target
	key    string // identity: equal keys must get identical answers
	path   string
	header string // X-Memexplore-Options value (trace requests)
	body   []byte

	kernels []string // explore, job and search: one; aggregate: several
	trips   []int64
	opts    core.Options
	sopts   search.Options
	budget  search.Budget
	trace   int // index into the trace bodies
}

// deck generates the request sequence of one seed: request i depends
// only on (seed, i), whichever client sends it.
type deck struct {
	seed        int64
	bodies      [][]byte
	bodyRecords []int64
}

// newDeck builds the trace bodies of the mix.
func newDeck(seed int64, scale int, step stepFunc) (*deck, error) {
	d := &deck{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < traceBodies; i++ {
		var buf bytes.Buffer
		n, err := writeSegments(&buf, planSegments(rng, bodyMix, scale), 0, step)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, buf.Bytes())
		d.bodyRecords = append(d.bodyRecords, n)
	}
	return d, nil
}

func (d *deck) rng(salt ...int) *rand.Rand { return saltedRNG(d.seed, salt) }

// saltedRNG returns a generator seeded by a hash of salt.
func saltedRNG(salt ...any) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, salt...)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// classOf returns the class of slot i and its ordinal among the slots of
// that class in its round.
func (d *deck) classOf(i int) (string, int) {
	perm := d.rng(0, i/len(roundClasses)).Perm(len(roundClasses))
	c := perm[i%len(roundClasses)]
	ord := 0
	for ord < c && roundClasses[c-ord-1] == roundClasses[c] {
		ord++
	}
	return roundClasses[c], ord
}

// at returns request i of the sequence. Kernels, layouts and trace bodies
// rotate through a round by the slot's ordinal rather than being drawn,
// and option subsets and search seeds are drawn from the class and that
// ordinal alone, so every seed sends the same requests and the CPU-time
// quantiles do not depend on how a draw fell; the seed varies the order
// of the slots and which earlier requests the repeats re-send.
func (d *deck) at(i int) mixRequest {
	round := i / len(roundClasses)
	class, ord := d.classOf(i)
	if class == classRepeat {
		if round > 0 {
			rng := d.rng(1, i)
			lo := (round - 3) * len(roundClasses)
			if lo < 0 {
				lo = 0
			}
			for {
				j := lo + rng.Intn(round*len(roundClasses)-lo)
				switch c, _ := d.classOf(j); c {
				case classExplore, classAggregate, classSearch, classJob:
					r := d.at(j)
					r.index = i
					return r
				}
			}
		}
		class = classExplore // the first round has nothing to repeat
	}
	r := mixRequest{index: i, class: class}
	turn := round*len(roundClasses) + ord
	rng := saltedRNG(class, turn)
	switch class {
	case classExplore, classJob:
		r.kernels = []string{mixKernels[turn%len(mixKernels)]}
		// Three in four use the §4.1 layout, the service's default; one in
		// four turns it off, the paper's comparison. The share is an
		// assumption, and it was also chosen so that the median request
		// falls inside the layout-on mode of request times rather than on
		// the edge between the two modes, which would make cpu_ms_p50
		// unsteady.
		r.opts, r.body = kernelOptions(rng, turn%4 != 0, map[string]any{"kernel": r.kernels[0]})
		r.path = "/v1/explore"
		if class == classJob {
			r.path = "/v1/jobs"
		}
	case classAggregate:
		req := map[string]any{}
		var ks []map[string]any
		for _, k := range kernels.MPEGKernels() {
			r.kernels = append(r.kernels, k.Nest.Name)
			r.trips = append(r.trips, k.Trip)
			ks = append(ks, map[string]any{"kernel": k.Nest.Name, "trip": k.Trip})
		}
		req["kernels"] = ks
		// The §4.1 layout makes aggregates the heaviest requests, the
		// tail cpu_ms_p90 measures.
		r.opts, r.body = kernelOptions(rng, true, req)
		r.path = "/v1/aggregate"
	case classSearch:
		r.kernels = []string{mixKernels[turn%len(mixKernels)]}
		r.sopts = search.Options{Seed: uint64(rng.Int63n(1 << 20))}.Normalize()
		r.budget = search.Budget{MaxEvaluations: 32}
		r.opts = core.DefaultOptions().Normalize()
		r.body = mustMarshal(map[string]any{
			"kernel": r.kernels[0], "search": map[string]any{"seed": r.sopts.Seed},
			"budget": map[string]any{"max_evaluations": r.budget.MaxEvaluations},
		})
		r.path = "/v1/search"
	case classTrace:
		r.trace = turn % len(d.bodies)
		sizes := pick(rng, []int{16, 32, 64, 128, 256, 512, 1024}, 4)
		r.opts = core.DefaultOptions()
		r.opts.CacheSizes = sizes
		r.opts = r.opts.Normalize()
		r.opts.Workers = mixWorkers
		r.header = string(mustMarshal(map[string]any{
			"options": map[string]any{"cache_sizes": sizes}, "workers": mixWorkers,
		}))
		r.body = d.bodies[r.trace]
		r.path = "/v1/explore-trace"
	}
	body := string(r.body)
	if class == classTrace {
		body = fmt.Sprint("trace body ", r.trace) // not a copy of the body per request
	}
	r.key = r.path + "\x00" + r.header + "\x00" + body
	return r
}

// kernelOptions draws a sweep option subset (three cache sizes, two line
// sizes, two tilings) with the given layout choice, adds it to req as
// "options" and returns the normalized options the service will run with
// plus the body.
func kernelOptions(rng *rand.Rand, layout bool, req map[string]any) (core.Options, []byte) {
	o := core.DefaultOptions()
	o.CacheSizes = pick(rng, []int{64, 128, 256, 512, 1024}, 3)
	o.LineSizes = pick(rng, []int{4, 8, 16, 32}, 2)
	o.Tilings = pick(rng, []int{1, 2, 4, 8}, 2)
	o.OptimizeLayout = layout
	req["options"] = map[string]any{
		"cache_sizes": o.CacheSizes, "line_sizes": o.LineSizes,
		"tilings": o.Tilings, "optimize_layout": o.OptimizeLayout,
	}
	return o.Normalize(), mustMarshal(req)
}

// pick returns k distinct values of xs in a seeded order.
func pick(rng *rand.Rand, xs []int, k int) []int {
	out := make([]int, k)
	for i, j := range rng.Perm(len(xs))[:k] {
		out[i] = xs[j]
	}
	return out
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps of numbers and strings are marshaled
	}
	return b
}

// mixServer is an in-process memexplored behind httptest.
type mixServer struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer(cfg service.Config) (*mixServer, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	return &mixServer{srv: srv, ts: ts, client: ts.Client()}, nil
}

// stop drains the server and closes its listener.
func (m *mixServer) stop() error {
	m.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return m.srv.Shutdown(ctx)
}

// opResult is what one request of the mix observed.
type opResult struct {
	req     mixRequest
	lat     time.Duration
	err     error
	cached  bool
	bodySum string // the answer with its cached flag cleared
	metrics string // digest of the simulated statistics in the answer
	submit  time.Duration
	queue   time.Duration
}

// send issues one request and waits for its complete answer: the last
// body byte, or for a job the terminal event of its SSE stream.
func (m *mixServer) send(ctx context.Context, r mixRequest) opResult {
	res := opResult{req: r}
	t0 := time.Now()
	body, status, err := m.post(ctx, r)
	if err == nil && r.class == classJob {
		res.submit = time.Since(t0)
		body, err = m.awaitJob(ctx, body, status, &res)
	} else if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	res.lat = time.Since(t0)
	if err != nil {
		res.err = err
		return res
	}
	res.err = res.digestAnswer(body)
	return res
}

func (m *mixServer) post(ctx context.Context, r mixRequest) ([]byte, int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, m.ts.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	if r.header != "" {
		hr.Header.Set(service.OptionsHeader, r.header)
	} else {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.client.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// awaitJob follows a submitted job's SSE stream to its terminal event and
// returns the job's result body.
func (m *mixServer) awaitJob(ctx context.Context, submitted []byte, status int, res *opResult) ([]byte, error) {
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("job submit status %d: %.200s", status, submitted)
	}
	var rec jobs.Record
	if err := json.Unmarshal(submitted, &rec); err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, m.ts.URL+"/v1/jobs/"+rec.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event != "progress":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				return nil, err
			}
			if rec.State != jobs.StateDone {
				return nil, fmt.Errorf("job %s ended %s", rec.ID, rec.State)
			}
			res.cached = rec.Cached
			if rec.StartedAt != nil {
				res.queue = rec.StartedAt.Sub(rec.CreatedAt)
			}
			return rec.Result, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("job %s: event stream ended without a terminal event", rec.ID)
}

// digestAnswer records the answer's cached flag, a digest of the answer
// with that flag cleared (a cache hit must be byte-identical to the miss
// that filled it) and a digest of the simulated statistics it carries.
func (res *opResult) digestAnswer(body []byte) error {
	var meta struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		return err
	}
	if res.req.class != classJob {
		res.cached = meta.Cached
		body = bytes.Replace(body, []byte(`{"cached":true,`), []byte(`{"cached":false,`), 1)
	}
	res.bodySum = digestOf(body)
	switch res.req.class {
	case classExplore, classJob:
		var v service.ExploreResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		res.metrics = digestOf(v.Metrics)
	case classAggregate:
		var v service.AggregateResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		res.metrics = digestOf([]any{v.Program, v.PerKernelBest})
	case classSearch:
		var v service.SearchResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		res.metrics = digestOf(v.Result)
	case classTrace:
		var v service.TraceExploreResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		res.metrics = digestOf(v.Metrics)
	}
	return nil
}

// direct runs the library call a request stands for and returns the
// digest of its simulated statistics, as digestAnswer computes it, and
// the search evaluation count.
func (d *deck) direct(ctx context.Context, r mixRequest) (string, int, error) {
	switch r.class {
	case classExplore, classJob:
		n, err := kernels.ByName(r.kernels[0])
		if err != nil {
			return "", 0, err
		}
		// The service's own call: results are bit-identical at any worker
		// count, and timing the same call keeps service.overhead_ms honest.
		ms, err := core.ExploreParallelContext(ctx, n, r.opts, mixWorkers)
		return digestOf(ms), 0, err
	case classAggregate:
		ws := make([]core.WeightedKernel, len(r.kernels))
		for i, k := range r.kernels {
			n, err := kernels.ByName(k)
			if err != nil {
				return "", 0, err
			}
			ws[i] = core.WeightedKernel{Nest: n, Trip: r.trips[i]}
		}
		program, perKernel, err := core.AggregateContext(ctx, ws, r.opts)
		if err != nil {
			return "", 0, err
		}
		best := map[string]core.Metrics{}
		for name, ms := range perKernel {
			if m, ok := core.MinEnergy(ms); ok {
				best[name] = m
			}
		}
		return digestOf([]any{program, best}), 0, nil
	case classSearch:
		n, err := kernels.ByName(r.kernels[0])
		if err != nil {
			return "", 0, err
		}
		res, err := search.Kernel(ctx, n, r.opts, r.sopts, r.budget, mixWorkers)
		return digestOf(res), res.Evaluations, err
	case classTrace:
		ms, _, err := core.ExploreTraceReader(ctx, bytes.NewReader(d.bodies[r.trace]), r.opts, extrace.Options{})
		return digestOf(ms), 0, err
	}
	return "", 0, fmt.Errorf("unknown request class %q", r.class)
}

// warmUp sends one request outside the mix (its cache sizes are ones the
// mix's kernel requests never use) so connections, pools and the kernel
// trace cache are warm before timing.
func (m *mixServer) warmUp(ctx context.Context) error {
	r := mixRequest{class: classExplore, path: "/v1/explore",
		body: []byte(`{"kernel":"histogram8","options":{"cache_sizes":[16,32],"line_sizes":[4],"tilings":[1]}}`)}
	if res := m.send(ctx, r); res.err != nil {
		return fmt.Errorf("warm-up request: %w", res.err)
	}
	return nil
}

// runMix drives the server with a closed loop of one client until end,
// and at least until minOps requests have been sent, sending the next
// request of the deck once the previous one has been answered. It returns
// every answered request in deck order, and each request's CPU and wall
// time in ops.
func (m *mixServer) runMix(ctx context.Context, d *deck, end time.Time, minOps int, ops *opTimes) []opResult {
	var out []opResult
	ops.start()
	for time.Now().Before(end) || len(out) < minOps {
		r := d.at(len(out))
		op := ops.begin()
		res := m.send(ctx, r)
		ops.end(op)
		out = append(out, res)
	}
	ops.stop()
	return out
}

// checkMix verifies every answer: no request failed, answers with equal
// keys are byte-identical (so cache hits equal the misses that filled
// them), and each distinct request's statistics equal the direct library
// call's. It returns the number of failed requests and a description of
// the first failure.
func checkMix(ctx context.Context, d *deck, ops []opResult) (int64, string) {
	byKey := map[string][]int{}
	var keys []string
	for i, op := range ops {
		if _, ok := byKey[op.req.key]; !ok {
			keys = append(keys, op.req.key)
		}
		byKey[op.req.key] = append(byKey[op.req.key], i)
	}
	bad := make([]bool, len(ops))
	var (
		mu    sync.Mutex
		first string
	)
	fail := func(idx []int, msg string) {
		mu.Lock()
		defer mu.Unlock()
		for _, i := range idx {
			bad[i] = true
		}
		if first == "" {
			first = msg
		}
	}
	var wg sync.WaitGroup
	work := make(chan string)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range work {
				idx := byKey[key]
				ref := ops[idx[0]]
				want, _, err := d.direct(ctx, ref.req)
				if err != nil {
					fail(idx, fmt.Sprintf("request %d: direct call: %v", ref.req.index, err))
					continue
				}
				for _, i := range idx {
					op := ops[i]
					switch {
					case op.err != nil:
						fail([]int{i}, fmt.Sprintf("request %d (%s): %v", op.req.index, op.req.class, op.err))
					case op.metrics != want:
						fail([]int{i}, fmt.Sprintf("request %d (%s): answer differs from the direct library call", op.req.index, op.req.class))
					case op.bodySum != ref.bodySum:
						fail([]int{i}, fmt.Sprintf("request %d (%s): answer differs from request %d with the same key", op.req.index, op.req.class, ref.req.index))
					}
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	var failed int64
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return failed, first
}

// mixDigest hashes the statistics of the first n answers.
func mixDigest(ops []opResult, n int) string {
	var sums []string
	for i, op := range ops {
		if i >= n || op.req.index != i {
			break
		}
		sums = append(sums, op.metrics)
	}
	return digestOf(sums)
}

// setupMix turns the seed into the mix's inputs and a running server.
func setupMix(cfg runConfig, step stepFunc) (*deck, *mixServer, error) {
	d, err := newDeck(cfg.seed, cfg.scale, step)
	if err != nil {
		return nil, nil, err
	}
	m, err := startServer(service.Config{SweepWorkers: mixWorkers})
	return d, m, err
}

func measureServiceMix(ctx context.Context, cfg runConfig) (outcome, error) {
	var (
		d *deck
		m *mixServer
	)
	setupS, err := medianSetup(31, func() error {
		if m != nil {
			if err := m.stop(); err != nil {
				return err
			}
		}
		var err error
		d, m, err = setupMix(cfg, runStep)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	defer m.stop()
	if err := m.warmUp(ctx); err != nil {
		return outcome{}, err
	}

	var times opTimes
	ops := m.runMix(ctx, d, deadline(cfg), digestPrefix/cfg.scale, &times)
	rss := peakRSSMiB()

	failed, msg := checkMix(ctx, d, ops)
	var (
		traceRecords int64
		traceCPU     time.Duration
		traces, hits int
	)
	for i, op := range ops {
		if op.cached {
			hits++
		}
		if op.req.class == classTrace && op.err == nil {
			traceRecords += d.bodyRecords[op.req.trace]
			traceCPU += times.cpu[i]
			traces++
		}
	}
	o := outcome{digest: mixDigest(ops, digestPrefix/cfg.scale)}
	if msg != "" {
		o.notes = append(o.notes, "output check failed: "+msg)
	}
	o.notes = append(o.notes, fmt.Sprintf("requests=%d cache_hits=%d trace_requests=%d", len(ops), hits, traces), times.wallNote())
	byClass := map[string][]float64{}
	for i, op := range ops {
		c := op.req.class
		if op.cached {
			c += "-hit"
		}
		byClass[c] = append(byClass[c], times.cpu[i].Seconds()*1e3)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		v := byClass[c]
		o.notes = append(o.notes, fmt.Sprintf("class %s n=%d cpu_p50_ms=%.1f cpu_p95_ms=%.1f", c, len(v), median(v), quantile(v, 0.95)))
	}
	o.result = result{
		Correct:   failed == 0 && len(ops) > 0,
		Attempted: int64(len(ops)),
		Failed:    failed,
		Metrics:   times.endToEnd(float64(traceRecords), traceCPU, setupS, rss),
	}
	return o, nil
}
