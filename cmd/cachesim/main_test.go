package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memexplore/internal/cachesim"
)

func TestLoadTraceKernel(t *testing.T) {
	tr, err := loadTrace("", "matadd", "", 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 108 {
		t.Errorf("matadd trace = %d refs, want 108", tr.Len())
	}
	// Tiled variant still generates.
	tiled, err := loadTrace("", "matadd", "", 2, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Len() != tr.Len() {
		t.Errorf("tiling changed the reference count: %d vs %d", tiled.Len(), tr.Len())
	}
	// Optimized layout path.
	if _, err := loadTrace("", "compress", "", 1, true, 8, 64); err != nil {
		t.Errorf("optimized load: %v", err)
	}
}

func TestLoadTraceDin(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.din"
	if err := os.WriteFile(path, []byte("0 10\n1 20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrace(path, "", "", 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.At(0).Addr != 0x10 {
		t.Errorf("din trace = %+v", tr.Refs())
	}
}

func TestLoadTraceNestFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/k.nest"
	src := "// tiny\nint8 a[8]\nfor i = 0, 7\na[i]\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrace("", "", path, 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 8 {
		t.Errorf("nest trace = %d refs", tr.Len())
	}
}

func TestLoadTraceErrors(t *testing.T) {
	if _, err := loadTrace("", "", "", 1, false, 8, 64); err == nil {
		t.Error("no source should fail")
	}
	if _, err := loadTrace("x.din", "compress", "", 1, false, 8, 64); err == nil {
		t.Error("two sources should fail")
	}
	if _, err := loadTrace("", "nope", "", 1, false, 8, 64); err == nil {
		t.Error("unknown kernel should fail")
	}
	if _, err := loadTrace("/nonexistent.din", "", "", 1, false, 8, 64); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunSweepValidation(t *testing.T) {
	tr, err := loadTrace("", "matadd", "", 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	base := cachesim.DefaultConfig(64, 8, 1)
	if err := runSweep(io.Discard, base, tr, "16,32,64"); err != nil {
		t.Errorf("sweep failed: %v", err)
	}
	if err := runSweep(io.Discard, base, tr, "x"); err == nil {
		t.Error("bad size should fail")
	}
	if err := runSweep(io.Discard, base, tr, " , "); err == nil {
		t.Error("empty list should fail")
	}
	if err := runSweep(io.Discard, base, tr, "48"); err == nil {
		t.Error("non-power-of-two size should fail")
	}
}

// TestDumpTraceRoundTrip: a kernel trace dumped to gzipped din and read
// back with -trace simulates exactly like the generated kernel trace.
func TestDumpTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.din.gz")
	var out bytes.Buffer
	if err := run([]string{"-kernel", "compress", "-dump-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	report := func(args ...string) []string {
		t.Helper()
		var buf bytes.Buffer
		if err := run(append([]string{"-size", "128", "-line", "16", "-assoc", "2"}, args...), &buf); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "hits") || strings.HasPrefix(l, "misses") {
				lines = append(lines, l)
			}
		}
		if len(lines) != 2 {
			t.Fatalf("report lacks the hit/miss lines:\n%s", buf.String())
		}
		return lines
	}
	want := report("-kernel", "compress")
	got := report("-trace", path)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dumped trace reports\n%s\nkernel run reports\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
