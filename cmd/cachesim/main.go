// Command cachesim is a Dinero-style trace-driven cache simulator. It
// reads a trace from a file (or stdin) — din text or mxt binary,
// optionally gzip-compressed — or generates the trace of a named
// benchmark kernel, and reports hit/miss statistics with 3C miss
// classification.
//
// Usage:
//
//	cachesim -size 64 -line 8 -assoc 2 -trace refs.din
//	cachesim -size 64 -line 8 -kernel compress -optimized
//	cachesim -kernel sor -tiling 4 -dump-trace sor.din.gz
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memexplore"
	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run parses the command line in args and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cachesim", flag.ExitOnError)
	var (
		size      = fs.Int("size", 64, "cache size in bytes (power of two)")
		line      = fs.Int("line", 8, "line size in bytes (power of two)")
		assoc     = fs.Int("assoc", 1, "set associativity (power of two)")
		repl      = fs.String("repl", "lru", "replacement policy: lru, fifo, random")
		wthrough  = fs.Bool("write-through", false, "write-through instead of write-back")
		noalloc   = fs.Bool("no-write-allocate", false, "do not allocate on write misses")
		traceFile = fs.String("trace", "", "trace file: din or mxt, optionally gzipped ('-' for stdin)")
		kernel    = fs.String("kernel", "", "generate the trace of this benchmark kernel instead")
		nestFile  = fs.String("file", "", "generate the trace of a kernel parsed from this nest file")
		tiling    = fs.Int("tiling", 1, "tile the kernel's loops with this size")
		optimized = fs.Bool("optimized", false, "apply the §4.1 off-chip assignment to the kernel")
		dump      = fs.String("dump-trace", "", "write the generated trace to this din file (gzipped when it ends in .gz) and exit")
		sweep     = fs.String("sweep-sizes", "", "simulate several cache sizes in one pass (comma-separated bytes) and print a table")
	)
	fs.Parse(args)

	tr, err := loadTrace(*traceFile, *kernel, *nestFile, *tiling, *optimized, *line, *size)
	if err != nil {
		return err
	}
	if *dump != "" {
		if err := dumpTrace(*dump, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d references to %s\n", tr.Len(), *dump)
		return nil
	}

	cfg := cachesim.DefaultConfig(*size, *line, *assoc)
	switch *repl {
	case "lru":
		cfg.Replacement = cachesim.LRU
	case "fifo":
		cfg.Replacement = cachesim.FIFO
	case "random":
		cfg.Replacement = cachesim.Random
	default:
		return fmt.Errorf("unknown replacement policy %q", *repl)
	}
	cfg.WriteBack = !*wthrough
	cfg.WriteAllocate = !*noalloc

	if *sweep != "" {
		return runSweep(w, cfg, tr, *sweep)
	}

	st, err := cachesim.RunTrace(cfg, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "configuration   %s\n", cfg)
	fmt.Fprintf(w, "references      %d (reads %d, writes %d, fetches %d)\n", st.Accesses, st.Reads, st.Writes, st.Fetches)
	fmt.Fprintf(w, "hits            %d (%.4f)\n", st.Hits, st.HitRate())
	fmt.Fprintf(w, "misses          %d (%.4f)\n", st.Misses, st.MissRate())
	fmt.Fprintf(w, "  compulsory    %d\n", st.CompulsoryMisses)
	fmt.Fprintf(w, "  capacity      %d\n", st.CapacityMisses)
	fmt.Fprintf(w, "  conflict      %d\n", st.ConflictMisses)
	fmt.Fprintf(w, "lines fetched   %d\n", st.LinesFetched)
	fmt.Fprintf(w, "write-backs     %d\n", st.WriteBacks)
	fmt.Fprintf(w, "write-throughs  %d\n", st.WriteThroughs)
	return nil
}

// dumpTrace writes tr to path in the din format, gzip-compressed when
// the path ends in .gz.
func dumpTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var out io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		out = zw
	}
	if _, err := extrace.WriteDin(out, tr.Reader()); err != nil {
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// readTrace loads a whole din or mxt trace, gzipped or not.
func readTrace(r io.Reader) (*trace.Trace, error) {
	rd := extrace.NewReader(r, extrace.Options{})
	defer rd.Close()
	tr := trace.New(0)
	src := rd.Source()
	for {
		ref, err := src.Next()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		tr.Append(ref)
	}
}

func loadTrace(traceFile, kernel, nestFile string, tiling int, optimized bool, lineBytes, sizeBytes int) (*trace.Trace, error) {
	given := 0
	for _, s := range []string{traceFile, kernel, nestFile} {
		if s != "" {
			given++
		}
	}
	if given > 1 {
		return nil, fmt.Errorf("give only one of -trace, -kernel, -file")
	}
	var n *memexplore.Nest
	switch {
	case traceFile != "":
		var f *os.File
		if traceFile == "-" {
			f = os.Stdin
		} else {
			var err error
			f, err = os.Open(traceFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
		}
		return readTrace(f)
	case kernel != "":
		var err error
		n, err = memexplore.Kernel(kernel)
		if err != nil {
			return nil, err
		}
	case nestFile != "":
		f, err := os.Open(nestFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		n, err = memexplore.ParseKernelReader(f)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("give -trace <file>, -kernel <name> (see 'memexplore -list'), or -file <nest>")
	}
	if tiling > 1 {
		var err error
		n, err = memexplore.Tile(n, tiling)
		if err != nil {
			return nil, err
		}
	}
	lay := memexplore.SequentialLayout(n, 0)
	if optimized {
		plan, err := memexplore.OptimizeLayout(n, lineBytes, sizeBytes/lineBytes)
		if err != nil {
			return nil, err
		}
		lay = plan.Layout
	}
	return n.Generate(lay)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cachesim:", err)
	os.Exit(1)
}

// runSweep simulates all requested sizes in one pass over the trace
// (cachesim.Batch) and prints a table.
func runSweep(w io.Writer, base cachesim.Config, tr *trace.Trace, sizesCSV string) error {
	var cfgs []cachesim.Config
	for _, f := range strings.Split(sizesCSV, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		size, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("bad size %q: %w", f, err)
		}
		cfg := base
		cfg.SizeBytes = size
		if cfg.Assoc > cfg.NumLines() {
			cfg.Assoc = cfg.NumLines()
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		return fmt.Errorf("empty size list %q", sizesCSV)
	}
	stats, err := cachesim.RunBatch(cfgs, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %10s %10s %10s\n", "configuration", "hits", "misses", "missrate")
	for i, cfg := range cfgs {
		fmt.Fprintf(w, "%-18s %10d %10d %10.4f\n", cfg.String(), stats[i].Hits, stats[i].Misses, stats[i].MissRate())
	}
	return nil
}
