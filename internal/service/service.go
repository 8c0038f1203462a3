// Package service implements memexplored, the HTTP/JSON daemon that
// serves MemExplore sweeps as an API (stdlib only). Endpoints:
//
//	POST   /v1/explore          run (or recall) a sweep for one kernel
//	POST   /v1/explore-trace    stream an external trace through the sweep
//	POST   /v1/aggregate        §5 trip-count-weighted multi-kernel aggregation
//	POST   /v1/search           budgeted NSGA-II search over the config space
//	POST   /v1/jobs             submit an async sweep job (202 + id)
//	GET    /v1/jobs/{id}        job status, progress and result
//	DELETE /v1/jobs/{id}        cancel a running job
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/kernels          registered kernel names
//	GET    /healthz             liveness (503 while draining)
//	GET    /debug/vars          expvar counters (see metrics.go)
//
// Sweeps run on a bounded worker pool via core.ExploreParallelContext
// with the request context threaded through, so client disconnects and
// deadlines cancel work between config points. Completed results are
// kept in a content-addressed LRU cache keyed by the canonical hash of
// (kernel source, normalized options); identical queries are answered
// from memory. Async jobs run on a second bounded pool (internal/jobs)
// whose terminal records land in a Store — in-memory by default, a
// shareable filesystem directory with Config.JobsDir. Shutdown drains
// in-flight sweeps and accepted jobs while new work is rejected with
// 503. See docs/SERVICE.md for the wire reference.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/jobs"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
)

// StatusClientClosedRequest is the non-standard status reported when the
// client abandons a request mid-sweep (nginx's 499 convention). It is
// mostly visible in logs: the client is usually gone before it is sent.
const StatusClientClosedRequest = 499

// Config parameterizes a Server. The zero value is usable: every field
// falls back to its documented default.
type Config struct {
	// MaxConcurrentSweeps bounds the worker pool: at most this many
	// sweeps execute at once, the rest queue until a slot frees or their
	// context is canceled. Default 4.
	MaxConcurrentSweeps int
	// SweepWorkers is the per-sweep goroutine count handed to
	// core.ExploreParallelContext. Default 0 = GOMAXPROCS.
	SweepWorkers int
	// CacheEntries is the result-cache capacity. Default 128; negative
	// disables caching.
	CacheEntries int
	// MaxBodyBytes bounds request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// MaxConcurrentJobs bounds the async job-runner pool: at most this
	// many jobs execute at once, the rest wait in queued state.
	// Default 2.
	MaxConcurrentJobs int
	// JobTTL is how long terminal job records stay readable in the
	// in-memory job store. Default 15 minutes. Ignored with JobsDir.
	JobTTL time.Duration
	// JobCapacity bounds the in-memory job store. Default 256 records.
	// Ignored with JobsDir.
	JobCapacity int
	// JobsDir, when set, stores terminal job records and content-keyed
	// results as files under this directory instead of in memory — a
	// directory shared by several replicas becomes a shared result tier.
	// JobTTL applies here too: a background janitor removes terminal
	// records (cascading through child shard jobs and content keys) and
	// trace blobs older than the TTL, so a shared directory never leaks.
	JobsDir string
	// Peers lists the base URLs of sibling replicas (e.g.
	// "http://10.0.0.2:8080") this server may dispatch distributed sweep
	// shards to. The list must not include the server itself. Empty means
	// distributed requests run every shard locally.
	Peers []string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentSweeps <= 0 {
		c.MaxConcurrentSweeps = 4
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.JobCapacity <= 0 {
		c.JobCapacity = 256
	}
	return c
}

// Server is the memexplored HTTP handler plus its worker pool, result
// cache, async job runner and drain state. Create with New; it is safe
// for concurrent use.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *resultCache
	sem      chan struct{}
	runner   *jobs.Runner
	draining atomic.Bool
	inflight sync.WaitGroup
	// pipeObs reports trace sweeps' pipeline events to the expvar gauges.
	pipeObs *core.PipelineObserver
	// fsStore is non-nil when JobsDir is configured: the shared tier
	// distributed sweeps publish trace blobs to, and the store the
	// cleanup janitor sweeps.
	fsStore     *jobs.FSStore
	peerClient  *http.Client
	janitorStop chan struct{}
	janitorOnce sync.Once
}

// New builds a Server with the given configuration. It fails only when
// Config.JobsDir is set but unusable.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var store jobs.Store
	var fsStore *jobs.FSStore
	if cfg.JobsDir != "" {
		fs, err := jobs.NewFSStore(cfg.JobsDir)
		if err != nil {
			return nil, fmt.Errorf("service: opening job store: %w", err)
		}
		store, fsStore = fs, fs
	} else {
		store = jobs.NewMemStore(cfg.JobCapacity, cfg.JobTTL)
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		cache:      newResultCache(cfg.CacheEntries),
		sem:        make(chan struct{}, cfg.MaxConcurrentSweeps),
		fsStore:    fsStore,
		peerClient: &http.Client{}, // per-request deadlines come from contexts
		pipeObs:    vars.pipelineObserver(),
	}
	if fsStore != nil {
		s.janitorStop = make(chan struct{})
		go s.janitor(fsStore, cfg.JobTTL)
	}
	s.runner = jobs.NewRunner(store, cfg.MaxConcurrentJobs, mapJobError, jobHooks())
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/explore-trace", s.handleExploreTrace)
	s.mux.HandleFunc("POST /v1/aggregate", s.handleAggregate)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s, nil
}

// MustNew is New for callers with a statically valid configuration
// (tests, the bench harness); it panics on error.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// Shutdown starts draining: new sweep requests and job submissions are
// rejected with 503 while in-flight sweeps and accepted jobs (queued or
// running) run to completion. It returns when everything has finished
// or ctx expires (then ctx.Err()). Callers cancel still-running sync
// sweeps by canceling the base context of their http.Server or closing
// client connections; running jobs finish on their own (cancel them
// individually via DELETE /v1/jobs/{id} for a hard stop).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.janitorStop != nil {
		s.janitorOnce.Do(func() { close(s.janitorStop) })
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.runner.Drain(ctx)
}

// Draining reports whether Shutdown has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// janitor periodically sweeps expired terminal records (and their child
// shard jobs, content keys and blobs) out of the filesystem job store.
// It runs until Shutdown; several replicas sweeping the same directory
// are harmless — removal is idempotent.
func (s *Server) janitor(fs *jobs.FSStore, ttl time.Duration) {
	interval := ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_, _ = fs.Cleanup(ttl)
		case <-s.janitorStop:
			return
		}
	}
}

// --- wire types -------------------------------------------------------

// Job and request kinds — the "kind" discriminator of the shared wire
// forms. A synchronous endpoint accepts its own kind (or none); the
// jobs endpoint dispatches on it.
const (
	KindExplore      = "explore"
	KindExploreTrace = "explore-trace"
	KindSearch       = "search"
)

// ExploreRequest is the POST /v1/explore body and (as the "explore"
// kind) the POST /v1/jobs body. Exactly one of Kernel (a registered
// name) or Source (inline loop-nest text, the Nest.String grammar)
// selects the workload.
type ExploreRequest struct {
	// Kind optionally names the request shape; "explore" here. The jobs
	// endpoint dispatches on it, the sync endpoint merely checks it.
	Kind   string `json:"kind,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	Source string `json:"source,omitempty"`
	// Options overrides DefaultOptions field-by-field: absent fields keep
	// their defaults, candidate lists are normalized (sorted, deduped).
	Options json.RawMessage `json:"options,omitempty"`
	// CycleBound/EnergyBoundNJ, when positive, add the paper's bounded
	// selections to the response.
	CycleBound    float64 `json:"cycle_bound,omitempty"`
	EnergyBoundNJ float64 `json:"energy_bound_nj,omitempty"`
}

// Best collects the selection optima over a sweep. Bounded entries are
// present only when the request set the bound; absent also when no
// configuration meets it.
type Best struct {
	MinEnergy                 *core.Metrics `json:"min_energy,omitempty"`
	MinCycles                 *core.Metrics `json:"min_cycles,omitempty"`
	MinEDP                    *core.Metrics `json:"min_edp,omitempty"`
	MinEnergyUnderCycleBound  *core.Metrics `json:"min_energy_under_cycle_bound,omitempty"`
	MinCyclesUnderEnergyBound *core.Metrics `json:"min_cycles_under_energy_bound,omitempty"`
}

// ExploreResponse is the POST /v1/explore reply (and, marshaled, the
// result body of an "explore" job).
type ExploreResponse struct {
	ResultMeta
	Kernel  string         `json:"kernel"`
	Points  int            `json:"points"`
	Metrics []core.Metrics `json:"metrics"`
	Best    Best           `json:"best"`
}

// AggregateKernel names one weighted kernel of an aggregate request.
type AggregateKernel struct {
	Kernel string `json:"kernel,omitempty"`
	Source string `json:"source,omitempty"`
	Trip   int64  `json:"trip"`
}

// AggregateRequest is the POST /v1/aggregate body.
type AggregateRequest struct {
	Kernels       []AggregateKernel `json:"kernels"`
	Options       json.RawMessage   `json:"options,omitempty"`
	CycleBound    float64           `json:"cycle_bound,omitempty"`
	EnergyBoundNJ float64           `json:"energy_bound_nj,omitempty"`
}

// AggregateResponse is the POST /v1/aggregate reply. PerKernelBest maps
// each kernel to its individual minimum-energy configuration (Figure 10's
// per-kernel optima); Program carries the trip-weighted whole-program
// sweep.
type AggregateResponse struct {
	ResultMeta
	Points        int                     `json:"points"`
	Program       []core.Metrics          `json:"program"`
	Best          Best                    `json:"best"`
	PerKernelBest map[string]core.Metrics `json:"per_kernel_best"`
}

// KernelsResponse is the GET /v1/kernels reply.
type KernelsResponse struct {
	Kernels []string `json:"kernels"`
}

// ErrorBody is the JSON error envelope: {"error": {...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail describes a failed request. Code is a stable machine-
// readable slug; Field is set for invalid_options errors.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, KernelsResponse{Kernels: kernels.Names()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	vars.requests.Add(1)
	defer func() { vars.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	if s.rejectDraining(w) {
		return
	}
	var req ExploreRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, invalidRequest(err))
		return
	}
	if err := checkKind(req.Kind, KindExplore); err != nil {
		s.writeError(w, err)
		return
	}
	p, err := resolveExplore(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.runExplore(r.Context(), p, true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// exploreParams is a resolved explore request: the validated nest and
// normalized options plus the cache key they hash to — everything a
// sweep needs, computed up front so async submissions can reject bad
// requests synchronously.
type exploreParams struct {
	req  ExploreRequest
	nest *loopir.Nest
	opts core.Options
	key  string
}

// resolveExplore validates an explore request into its parameters.
func resolveExplore(req ExploreRequest) (exploreParams, error) {
	nest, err := resolveNest(req.Kernel, req.Source)
	if err != nil {
		return exploreParams{}, err
	}
	opts, err := resolveOptions(req.Options)
	if err != nil {
		return exploreParams{}, err
	}
	return exploreParams{
		req:  req,
		nest: nest,
		opts: opts,
		key:  cacheKey("explore", nest.String(), mustJSON(opts)),
	}, nil
}

// runExplore executes one explore sweep end-to-end — cache, worker
// pool, selection optima, envelope. The sync handler and the async job
// body both call it, which is what keeps their results identical.
func (s *Server) runExplore(ctx context.Context, p exploreParams, tracked bool) (*ExploreResponse, error) {
	res, cached, err := s.sweep(ctx, p.key, tracked, func(ctx context.Context) (any, sweepStats, error) {
		ms, err := core.ExploreParallelContext(ctx, p.nest, p.opts, s.cfg.SweepWorkers)
		return ms, planStats(p.opts.Plan(), 1), err
	})
	if err != nil {
		return nil, err
	}
	ms := res.([]core.Metrics)
	return &ExploreResponse{
		ResultMeta: resultMeta(cached, p.opts, p.opts.Plan(), 1),
		Kernel:     p.nest.Name,
		Points:     len(ms),
		Metrics:    ms,
		Best:       bestOf(ms, p.req.CycleBound, p.req.EnergyBoundNJ),
	}, nil
}

// aggregateResult is the cacheable part of an aggregate reply.
type aggregateResult struct {
	program       []core.Metrics
	perKernelBest map[string]core.Metrics
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	vars.requests.Add(1)
	defer func() { vars.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	if s.rejectDraining(w) {
		return
	}
	var req AggregateRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, invalidRequest(err))
		return
	}
	if len(req.Kernels) == 0 {
		s.writeError(w, httpError(http.StatusBadRequest, CodeInvalidRequest,
			"kernels must list at least one weighted kernel", ""))
		return
	}
	ws := make([]core.WeightedKernel, 0, len(req.Kernels))
	keyParts := []string{"aggregate"}
	for i, k := range req.Kernels {
		nest, err := resolveNest(k.Kernel, k.Source)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if k.Trip <= 0 {
			s.writeError(w, httpError(http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("kernels[%d]: trip must be positive, got %d", i, k.Trip), ""))
			return
		}
		ws = append(ws, core.WeightedKernel{Nest: nest, Trip: k.Trip})
		keyParts = append(keyParts, nest.String(), fmt.Sprint(k.Trip))
	}
	opts, err := resolveOptions(req.Options)
	if err != nil {
		s.writeError(w, err)
		return
	}
	keyParts = append(keyParts, mustJSON(opts))

	key := cacheKey(keyParts...)
	res, cached, err := s.sweep(r.Context(), key, true, func(ctx context.Context) (any, sweepStats, error) {
		program, perKernel, err := core.AggregateContext(ctx, ws, opts)
		if err != nil {
			return nil, sweepStats{}, err
		}
		agg := &aggregateResult{program: program, perKernelBest: make(map[string]core.Metrics, len(perKernel))}
		for name, ms := range perKernel {
			if best, ok := core.MinEnergy(ms); ok {
				agg.perKernelBest[name] = best
			}
		}
		// One explore sweep per kernel, each with the same pass plan.
		return agg, planStats(opts.Plan(), len(ws)), nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	agg := res.(*aggregateResult)
	writeJSON(w, http.StatusOK, AggregateResponse{
		ResultMeta:    resultMeta(cached, opts, opts.Plan(), len(ws)),
		Points:        len(agg.program),
		Program:       agg.program,
		Best:          bestOf(agg.program, req.CycleBound, req.EnergyBoundNJ),
		PerKernelBest: agg.perKernelBest,
	})
}

// --- request plumbing -------------------------------------------------

// decodeBody strictly decodes a JSON body into dst: unknown fields and
// trailing garbage are errors, so typos fail loudly instead of silently
// running a default sweep.
func decodeBody(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("request body has trailing data after the JSON object")
	}
	return nil
}

// invalidRequest wraps a body-decode failure in its envelope.
func invalidRequest(err error) *requestError {
	return httpError(http.StatusBadRequest, CodeInvalidRequest, err.Error(), "")
}

// checkKind validates the "kind" discriminator of a request against the
// endpoint's expected kind; absent is accepted.
func checkKind(got, want string) error {
	if got != "" && got != want {
		return httpError(http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("kind %q does not match this endpoint (want %q)", got, want), "kind")
	}
	return nil
}

// resolveNest turns a (kernel, source) pair into a validated nest.
func resolveNest(kernel, source string) (*loopir.Nest, error) {
	switch {
	case kernel != "" && source != "":
		return nil, httpError(http.StatusBadRequest, CodeInvalidRequest, "set exactly one of kernel and source, not both", "")
	case kernel != "":
		nest, err := kernels.ByName(kernel)
		if err != nil {
			if errors.Is(err, kernels.ErrUnknownKernel) {
				return nil, err // errorDetail maps this to 404 unknown_kernel
			}
			return nil, httpError(http.StatusBadRequest, CodeInvalidRequest, err.Error(), "")
		}
		return nest, nil
	case source != "":
		nest, err := loopir.Parse(source)
		if err != nil {
			return nil, httpError(http.StatusBadRequest, CodeInvalidKernel, err.Error(), "")
		}
		if err := nest.Validate(); err != nil {
			return nil, httpError(http.StatusBadRequest, CodeInvalidKernel, err.Error(), "")
		}
		return nest, nil
	default:
		return nil, httpError(http.StatusBadRequest, CodeInvalidRequest, "set one of kernel (registered name) or source (inline loop nest)", "")
	}
}

// resolveOptions overlays the raw options onto DefaultOptions, then
// normalizes and validates. The normalized form is what the sweep runs
// with AND what the cache key hashes, so wire-equivalent requests share
// cache entries. Validation failures surface as *core.ErrInvalidOptions
// for errorDetail to map.
func resolveOptions(raw json.RawMessage) (core.Options, error) {
	opts := core.DefaultOptions()
	if len(raw) > 0 {
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&opts); err != nil {
			return core.Options{}, httpError(http.StatusBadRequest, CodeInvalidOptions,
				fmt.Sprintf("decoding options: %v", err), "")
		}
	}
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return core.Options{}, err
	}
	return opts, nil
}

// sweepStats is what a completed sweep reports for the expvar counters:
// how many config points it scored, how many distinct workload traces it
// generated and traversed to do so (equal to points for per-point
// sweeps; far fewer on the batched engine), and how those points
// partitioned into inclusion stack groups versus per-configuration pass
// units.
type sweepStats struct {
	points          int
	workloads       int
	inclusionGroups int
	passUnits       int
}

// planStats converts a sweep plan (core.Options.Plan) into the expvar
// report, optionally scaled by a kernel count for aggregate sweeps that
// repeat the same plan per kernel.
func planStats(plan core.SweepPlan, kernels int) sweepStats {
	return sweepStats{
		points:          plan.Points * kernels,
		workloads:       plan.Workloads * kernels,
		inclusionGroups: plan.InclusionGroups * kernels,
		passUnits:       plan.PassUnits() * kernels,
	}
}

// sweep serves a cache hit, or acquires a worker-pool slot and runs fn
// under the given context. fn reports the points/workloads it evaluated
// for the expvar counters. Results are cached only on success. tracked
// requests join the Shutdown drain group; job bodies pass false because
// the job runner already tracks them (and adding to the drain group
// after Shutdown started waiting on it would be a WaitGroup misuse).
func (s *Server) sweep(ctx context.Context, key string, tracked bool, fn func(context.Context) (any, sweepStats, error)) (res any, cached bool, err error) {
	if v, ok := s.cache.Get(key); ok {
		vars.cacheHits.Add(1)
		return v, true, nil
	}
	vars.cacheMisses.Add(1)

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
	}
	defer func() { <-s.sem }()

	if tracked {
		s.inflight.Add(1)
		defer s.inflight.Done()
	}
	vars.inFlight.Add(1)
	defer vars.inFlight.Add(-1)

	begin := time.Now()
	res, st, err := fn(ctx)
	if err != nil {
		return nil, false, err
	}
	vars.points.Add(int64(st.points))
	vars.workloads.Add(int64(st.workloads))
	if saved := st.points - st.workloads; saved > 0 {
		vars.passesSaved.Add(int64(saved))
	}
	vars.inclusionGroups.Add(int64(st.inclusionGroups))
	if st.passUnits > 0 {
		vars.configsPerPass.Set(float64(st.points) / float64(st.passUnits))
	}
	if secs := time.Since(begin).Seconds(); secs > 0 {
		vars.lastPointsPerSec.Set(float64(st.points) / secs)
	}
	s.cache.Add(key, res)
	return res, false, nil
}

// errDraining is the 503 rejection Shutdown puts in front of new work.
func errDraining() *requestError {
	return httpError(http.StatusServiceUnavailable, CodeDraining, "server is shutting down, not accepting new work", "")
}

// rejectDraining writes the 503 drain response and reports whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.writeError(w, errDraining())
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client may be gone; nothing useful to do
}

// mustJSON marshals a value that cannot fail (plain structs, no cycles).
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: marshaling %T: %v", v, err))
	}
	return string(b)
}

// bestOf computes the selection optima for a sweep.
func bestOf(ms []core.Metrics, cycleBound, energyBoundNJ float64) Best {
	var b Best
	set := func(dst **core.Metrics, m core.Metrics, ok bool) {
		if ok {
			cp := m
			*dst = &cp
		}
	}
	m, ok := core.MinEnergy(ms)
	set(&b.MinEnergy, m, ok)
	m, ok = core.MinCycles(ms)
	set(&b.MinCycles, m, ok)
	m, ok = core.MinEDP(ms)
	set(&b.MinEDP, m, ok)
	if cycleBound > 0 {
		m, ok = core.MinEnergyUnderCycleBound(ms, cycleBound)
		set(&b.MinEnergyUnderCycleBound, m, ok)
	}
	if energyBoundNJ > 0 {
		m, ok = core.MinCyclesUnderEnergyBound(ms, energyBoundNJ)
		set(&b.MinCyclesUnderEnergyBound, m, ok)
	}
	return b
}
