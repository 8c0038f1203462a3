package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"

	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// segSpec asks for count segments of one kernel.
type segSpec struct {
	kernel string
	count  int
}

// The segment mixes are fixed multisets placed at fixed addresses: a seed
// changes only the order of the segments, never which kernels run at
// which tiling or where their arrays lie, so the record count and the
// work per run stay the same across seeds. (A sampled sweep keeps the
// records of the granules its hash picks, so seeded addresses would
// change how much it simulates from seed to seed.) Footprints fall on
// both sides of the largest modelled cache (1 KiB): the paper kernels
// compress, matmul, pde, sor and dequant span 1-3 KiB, the extra kernels
// motionest, lu, dct2drow and histogram8 fit below it.
var (
	// exactMix is about 1.09M records.
	exactMix = []segSpec{
		{"matmul", 2}, {"motionest", 3}, {"compress", 40}, {"pde", 20}, {"sor", 20},
		{"dequant", 30}, {"lu", 8}, {"dct2drow", 8}, {"histogram8", 20},
	}
	// sampledMix is the compute part of trace-sampled: about 0.53M
	// records in 118 segments, each followed by a polling phase. It has
	// no matmul or motionest: their few, very hot granules would make the
	// records a sample keeps swing with the seed.
	sampledMix = []segSpec{
		{"compress", 30}, {"pde", 20}, {"sor", 20}, {"dequant", 30},
		{"lu", 4}, {"dct2drow", 4}, {"histogram8", 10},
	}
	// bodyMix is one /v1/explore-trace request body of service-mix:
	// about 59k records.
	bodyMix = []segSpec{
		{"compress", 4}, {"pde", 2}, {"sor", 2}, {"dequant", 2}, {"lu", 1}, {"histogram8", 4},
	}
)

// pollRecords is the length of the device-polling idle phase that follows
// each trace-sampled compute segment: about a 4.5:1 idle:compute duty
// cycle.
const pollRecords = 20480

// pollBuffer is the device status buffer every idle phase polls: a fixed
// 256-byte block, as a memory-mapped peripheral sits at a fixed address,
// far above the segments' slots.
const pollBuffer = 0x4000_0000

// segment is one kernel execution placed in the trace.
type segment struct {
	kernel string
	tiling int
	slot   uint64 // 1 MiB address slot, distinct per segment
	base   uint64 // array base address inside the slot
}

// planSegments expands a mix (each count divided by scale, at least one)
// into segments at distinct 1 MiB slots and puts them in a seeded order.
// A segment's slot and its base address inside the slot depend only on
// its place in the expanded mix.
func planSegments(rng *rand.Rand, mix []segSpec, scale int) []segment {
	tilings := []int{1, 2, 4}
	offsets := rand.New(rand.NewSource(0))
	var segs []segment
	for _, s := range mix {
		n := s.count / scale
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			// Tilings rotate within a kernel rather than being drawn, so
			// the (kernel, tiling) multiset is the same for every seed.
			slot := uint64(len(segs))
			segs = append(segs, segment{kernel: s.kernel, tiling: tilings[i%len(tilings)],
				slot: slot, base: slot<<20 + uint64(offsets.Intn(1024))*64})
		}
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	return segs
}

// generate builds a segment's reference trace with the kernel's arrays
// packed from the segment's base address.
func (s segment) generate() (*trace.Trace, error) {
	n, err := kernels.ByName(s.kernel)
	if err != nil {
		return nil, err
	}
	tiled, err := loopir.TileAll(n, s.tiling)
	if err != nil {
		return nil, fmt.Errorf("tiling %s by %d: %w", s.kernel, s.tiling, err)
	}
	return tiled.Generate(loopir.SequentialLayout(tiled, s.base))
}

// stepFunc runs fn as one named step of a larger operation. The traced
// run records a span around it; the measured run passes runStep, which
// only calls it.
type stepFunc func(name string, fn func() error) error

func runStep(_ string, fn func() error) error { return fn() }

// writeSegments streams the segments to w as din text, each followed by
// poll polling records when poll > 0, and returns the record count. Each
// segment's trace generation runs as a "loopir.generate" step.
func writeSegments(w io.Writer, segs []segment, poll int, step stepFunc) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var total int64
	for _, s := range segs {
		var tr *trace.Trace
		if err := step("loopir.generate", func() (err error) {
			tr, err = s.generate()
			return err
		}); err != nil {
			return total, err
		}
		n, err := extrace.WriteDin(bw, tr.Reader())
		total += n
		if err != nil {
			return total, err
		}
		if poll > 0 {
			// A busy-wait rereading the status buffer word by word.
			n, err := extrace.WriteDin(bw, trace.Loop(pollBuffer, 256, 8, poll/32).Reader())
			total += n
			if err != nil {
				return total, err
			}
		}
	}
	return total, bw.Flush()
}

// writeSegmentsFile is writeSegments into a new file at path.
func writeSegmentsFile(path string, segs []segment, poll int, step stepFunc) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := writeSegments(f, segs, poll, step)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// transcodeFile converts the trace read from src to an mxt v2 file at dst.
func transcodeFile(dst string, src io.Reader, wo extrace.V2WriterOptions) (extrace.IngestStats, error) {
	out, err := os.Create(dst)
	if err != nil {
		return extrace.IngestStats{}, err
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	_, st, err := extrace.TranscodeV2Options(bw, src, extrace.Options{}, wo)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return st, err
}
