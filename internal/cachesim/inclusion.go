package cachesim

import (
	"fmt"

	"memexplore/internal/trace"
)

// This file implements the inclusion sweep engine: a Sweep partitions a
// batch of cache configurations into groups sharing (LineBytes, NumSets)
// whose policies the LRU stack model can represent exactly, simulates
// each group with ONE per-set stack pass (PerSetStacks, lrustack.go) that
// yields the exact Stats of every associativity in the group
// simultaneously, and falls back to a plain Batch for everything else
// (FIFO/Random replacement, no-write-allocate, victim buffers, and
// geometries with a single eligible config, where the per-cache fast
// paths win). The combined results are bit-identical to simulating every
// configuration individually with NewFast.

// InclusionEligible reports whether the inclusion engine can simulate the
// configuration exactly: LRU replacement with write-allocate and no
// victim buffer (DefaultConfig's policies). Both write-back and
// write-through caches qualify — the write policy changes traffic
// accounting, never which lines are resident.
func InclusionEligible(cfg Config) bool {
	return cfg.Replacement == LRU && cfg.WriteAllocate && cfg.VictimLines == 0
}

// sweepSlot maps one input configuration to where its statistics live:
// member `member` of inclusion group `group`, or — when group is -1 —
// cache `member` of the fallback batch.
type sweepSlot struct {
	group  int
	member int
}

// groupMember is one configuration of an inclusion group; only the
// associativity and the write policy distinguish members.
type groupMember struct {
	assoc     int
	writeBack bool
}

// inclusionGroup simulates every member configuration of one
// (LineBytes, NumSets) geometry in a single streaming pass.
type inclusionGroup struct {
	lineBytes int
	sets      int
	offShift  uint
	maxA      int // largest member associativity; also the stack depth
	members   []groupMember

	stacks *PerSetStacks
	// refHist[D][k] counts references of kind k (Read/Write/Fetch/other)
	// whose deepest spanned line-touch had stack distance D; bucket maxA
	// collects references with an untracked touch (cold or deeper than
	// every member). A reference hits the A-way cache iff D < A — a
	// spanning reference hits only if every spanned line hits.
	refHist [][4]uint64
	// lineHist[d] counts line touches at distance d (bucket maxA as
	// above): the A-way cache fetches exactly the touches with d ≥ A.
	lineHist []uint64
	// writeTouches counts write line-touches — the write-through traffic,
	// which is independent of associativity (hit, refill and spanning
	// writes all go through).
	writeTouches uint64
}

func newInclusionGroup(cfg Config) *inclusionGroup {
	return &inclusionGroup{
		lineBytes: cfg.LineBytes,
		sets:      cfg.NumSets(),
		offShift:  uint(cfg.OffsetBits()),
	}
}

// init sizes the stacks and histograms once all members are known.
func (g *inclusionGroup) init() error {
	for _, m := range g.members {
		if m.assoc > g.maxA {
			g.maxA = m.assoc
		}
	}
	st, err := NewPerSetStacks(g.sets, g.maxA)
	if err != nil {
		return err
	}
	g.stacks = st
	g.refHist = make([][4]uint64, g.maxA+1)
	g.lineHist = make([]uint64, g.maxA+1)
	return nil
}

// AccessBlock streams a block of references through the group's stacks.
func (g *inclusionGroup) AccessBlock(block []trace.Ref) {
	stacks, maxA := g.stacks, g.maxA
	for _, r := range block {
		first := r.Addr >> g.offShift
		last := r.LastByte() >> g.offShift
		isWrite := r.Kind == trace.Write
		maxD := 0
		for la := first; la <= last; la++ {
			d := stacks.Touch(la, isWrite)
			if d < 0 {
				d = maxA
			}
			g.lineHist[d]++
			if isWrite {
				g.writeTouches++
			}
			if d > maxD {
				maxD = d
			}
		}
		k := int(r.Kind)
		if k < 0 || k > 2 {
			k = 3 // unknown kinds count toward Accesses/Hits/Misses only
		}
		g.refHist[maxD][k]++
	}
}

// statsFor derives the exact Stats of one member from the shared
// histograms, matching NewFast semantics field for field (per-class miss
// counters report the aggregate-only Capacity placeholder, victim and
// compulsory counters stay zero).
func (g *inclusionGroup) statsFor(mi int) Stats {
	m := g.members[mi]
	var st Stats
	for d := 0; d <= g.maxA; d++ {
		kc := g.refHist[d]
		refs := kc[0] + kc[1] + kc[2] + kc[3]
		st.Accesses += refs
		st.Reads += kc[0]
		st.Writes += kc[1]
		st.Fetches += kc[2]
		if d < m.assoc {
			st.Hits += refs
			st.ReadHits += kc[0]
			st.WriteHits += kc[1]
		} else {
			st.Misses += refs
			st.ReadMisses += kc[0]
			st.WriteMisses += kc[1]
		}
	}
	st.CapacityMisses = st.Misses
	for d := m.assoc; d <= g.maxA; d++ {
		st.LinesFetched += g.lineHist[d]
	}
	if m.writeBack {
		st.WriteBacks = g.stacks.WritebacksAt(m.assoc)
	} else {
		st.WriteThroughs = g.writeTouches
	}
	return st
}

// Reset clears the group's stacks and histograms.
func (g *inclusionGroup) Reset() {
	g.stacks.Reset()
	clear(g.refHist)
	clear(g.lineHist)
	g.writeTouches = 0
}

// Sweep simulates many cache configurations in a single pass over a
// trace, like Batch, but collapses the associativity dimension of every
// inclusion-eligible (LineBytes, NumSets) group into one LRU stack pass.
// Statistics are bit-identical to per-configuration simulation; the
// fallback Batch covers ineligible configurations transparently.
type Sweep struct {
	groups []*inclusionGroup
	batch  *Batch // fallback; nil when every config joined a group
	slots  []sweepSlot
}

// NewSweep builds a sweep over the configurations, grouping
// inclusion-eligible configs (see InclusionEligible) that share
// (LineBytes, NumSets) into single-pass stack groups and simulating the
// rest — including geometries with only one eligible config, which the
// per-cache fast paths serve better — through a fallback Batch.
func NewSweep(cfgs []Config) (*Sweep, error) {
	return newSweep(cfgs, true)
}

// NewBatchSweep builds a Sweep that simulates every configuration
// individually through a Batch, with no inclusion groups — the forced
// "batched" engine for debugging and benchmarking comparisons.
func NewBatchSweep(cfgs []Config) (*Sweep, error) {
	return newSweep(cfgs, false)
}

func newSweep(cfgs []Config, inclusion bool) (*Sweep, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cachesim: sweep needs at least one configuration")
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("cachesim: sweep config %d: %w", i, err)
		}
	}
	type geom struct{ lineBytes, sets int }
	s := &Sweep{slots: make([]sweepSlot, len(cfgs))}
	eligible := make(map[geom]int)
	if inclusion {
		for _, cfg := range cfgs {
			if InclusionEligible(cfg) {
				eligible[geom{cfg.LineBytes, cfg.NumSets()}]++
			}
		}
	}
	groupIdx := make(map[geom]int)
	var batchCfgs []Config
	for i, cfg := range cfgs {
		key := geom{cfg.LineBytes, cfg.NumSets()}
		if !inclusion || !InclusionEligible(cfg) || eligible[key] < 2 {
			s.slots[i] = sweepSlot{group: -1, member: len(batchCfgs)}
			batchCfgs = append(batchCfgs, cfg)
			continue
		}
		gi, ok := groupIdx[key]
		if !ok {
			gi = len(s.groups)
			groupIdx[key] = gi
			s.groups = append(s.groups, newInclusionGroup(cfg))
		}
		g := s.groups[gi]
		s.slots[i] = sweepSlot{group: gi, member: len(g.members)}
		g.members = append(g.members, groupMember{assoc: cfg.Assoc, writeBack: cfg.WriteBack})
	}
	for _, g := range s.groups {
		if err := g.init(); err != nil {
			return nil, err
		}
	}
	if len(batchCfgs) > 0 {
		b, err := NewBatch(batchCfgs)
		if err != nil {
			return nil, err
		}
		s.batch = b
	}
	return s, nil
}

// InclusionGroups returns how many single-pass stack groups the sweep
// formed.
func (s *Sweep) InclusionGroups() int { return len(s.groups) }

// FallbackConfigs returns how many configurations run on the fallback
// Batch.
func (s *Sweep) FallbackConfigs() int {
	if s.batch == nil {
		return 0
	}
	return len(s.batch.caches)
}

// PassUnits returns the number of independent simulation state machines
// consuming the trace: one per inclusion group plus one per fallback
// cache. Configs()/PassUnits() is the engine's collapse factor.
func (s *Sweep) PassUnits() int { return len(s.groups) + s.FallbackConfigs() }

// Configs returns the number of configurations the sweep covers.
func (s *Sweep) Configs() int { return len(s.slots) }

// AccessBlock feeds a block of references to every group and fallback
// cache, each consuming the whole block before the next runs (the
// cache-resident traversal of Batch.AccessBlock). It is the
// chunk-granular entry point for streaming callers; statistics are
// identical in any chunking.
func (s *Sweep) AccessBlock(block []trace.Ref) {
	for _, g := range s.groups {
		g.AccessBlock(block)
	}
	if s.batch != nil {
		s.batch.AccessBlock(block)
	}
}

// Stats returns the per-configuration statistics in input order.
func (s *Sweep) Stats() []Stats {
	var batchStats []Stats
	if s.batch != nil {
		batchStats = s.batch.Stats()
	}
	out := make([]Stats, len(s.slots))
	for i, sl := range s.slots {
		if sl.group < 0 {
			out[i] = batchStats[sl.member]
		} else {
			out[i] = s.groups[sl.group].statsFor(sl.member)
		}
	}
	return out
}

// Reset clears every group and fallback cache.
func (s *Sweep) Reset() {
	for _, g := range s.groups {
		g.Reset()
	}
	if s.batch != nil {
		s.batch.Reset()
	}
}

// Release returns the fallback caches' backing arrays to the package
// pool for reuse by later sweeps. Call after the final Stats(); the
// sweep must not be used afterwards.
func (s *Sweep) Release() {
	if s.batch != nil {
		s.batch.Release()
		s.batch = nil
	}
	s.groups, s.slots = nil, nil
}
