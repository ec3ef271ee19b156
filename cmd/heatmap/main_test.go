package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests below run the real CLI: re-executed with
// heatmapMainEnv set, the test binary is heatmap.
func TestMain(m *testing.M) {
	if os.Getenv(heatmapMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const heatmapMainEnv = "HEATMAP_TEST_RUN_MAIN"

// TestRejectsNarrowWidth: a map needs a first and a last column, so
// -width below 2 is refused up front (exit 2, naming the flag) instead of
// sampling every column at a NaN time.
func TestRejectsNarrowWidth(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "s.csv")
	if err := os.WriteFile(csv, []byte("trial,series,t_us,value\nt,runq.core0,1000,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "0", "-3"} {
		t.Run("width"+w, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-csv", csv, "-width", w)
			cmd.Env = append(os.Environ(), heatmapMainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; stderr: %s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "-width "+w) || stdout.Len() != 0 {
				t.Fatalf("stderr %q does not name -width %s, or a map was drawn: %q", stderr.String(), w, stdout.String())
			}
		})
	}
}

// FuzzParseSeriesCSV: whatever the bytes, parseSeriesCSV returns an error
// or trials, and render draws those at the narrowest and the default
// width without panicking.
func FuzzParseSeriesCSV(f *testing.F) {
	export, err := runScenarioCSV("fork-storm", 0.02)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(export)
	f.Add([]byte("trial,series,t_us,value\n"))
	f.Add([]byte("trial,series,t_us,value\nt,runq.core0,NaN,1\nt,runq.core1,1000,NaN\n"))
	f.Add([]byte("trial,series,t_us,value\nt,runq.core0,+Inf,2\nt,runq.core0,-Inf,-Inf\n"))
	f.Add([]byte("trial,series,t_us,value\nt,runq.core0,-5,3\nt,runq.core2,-1e300,1e300\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		trials, err := parseSeriesCSV(data)
		if err != nil {
			return
		}
		for _, tr := range trials {
			for _, width := range []int{2, 120} {
				render(io.Discard, tr, "", width)
			}
		}
	})
}
