package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/timeline"
)

// testSpec is a tiny two-core scenario exercising every export: series,
// trace, and timeline.
const testSpec = `{
  "name": "cli-test",
  "machine": {"cores": [2]},
  "schedulers": [{"kind": "cfs"}],
  "window": "300ms",
  "workload": [
    {"name": "spin", "loop": {"burst": "1ms"}, "count": 2},
    {"name": "web", "openloop": {"workers": 2, "rate": 300, "service": "100us"}}
  ],
  "series": {"probes": ["runq"]},
  "trace": {},
  "timeline": {}
}`

// TestRunScenarioCreatesParentDirs: every -out/-series/-trace/-trace-csv/
// -timeline destination gets mkdir -p semantics — deeply nested paths
// that do not exist yet must not fail the run after the grid executed.
func TestRunScenarioCreatesParentDirs(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "cli-test.json")
	if err := os.WriteFile(spec, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	o := scenarioOutputs{
		out:         filepath.Join(dir, "a/b/report.json"),
		series:      filepath.Join(dir, "c/d/series.csv"),
		traceDir:    filepath.Join(dir, "e/f/traces"),
		traceCSV:    filepath.Join(dir, "g/h/trace.csv"),
		timelineDir: filepath.Join(dir, "i/j/timelines"),
	}
	if err := runScenario(spec, 1, o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.out, o.series, o.traceCSV} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("export %s missing: %v", p, err)
		}
	}
	for _, d := range []string{o.traceDir, o.timelineDir} {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatalf("export dir %s missing: %v", d, err)
		}
		if len(ents) == 0 {
			t.Errorf("export dir %s is empty", d)
		}
	}

	// The timeline export is the Perfetto JSON the recorder rendered:
	// decodable, schema-stamped, flattened trial name with .trace.json.
	ents, _ := os.ReadDir(o.timelineDir)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".trace.json") || strings.Contains(e.Name(), "/") {
			t.Fatalf("unexpected timeline file name %q", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(o.timelineDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := timeline.DecodeTrace(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if tr.OtherData.Schema != timeline.SchemaName {
			t.Fatalf("%s: schema = %q", e.Name(), tr.OtherData.Schema)
		}
	}
}

// TestRunScenarioTimehistOnly: -timehist without -timeline enables the
// recorder with default options (the same enabling rule as -trace).
func TestRunScenarioTimehistOnly(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "plain.json")
	// No timeline block at all — the flag must enable it.
	plain := strings.Replace(testSpec, `"timeline": {}`, `"timeline": null`, 1)
	if err := os.WriteFile(spec, []byte(plain), 0o644); err != nil {
		t.Fatal(err)
	}
	o := scenarioOutputs{
		out:         filepath.Join(dir, "report.json"),
		timelineDir: filepath.Join(dir, "tl"),
	}
	if err := runScenario(spec, 1, o); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(o.timelineDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("-timeline did not enable the recorder: %v (%d files)", err, len(ents))
	}
}

// TestMain lets the tests below run the real CLI: re-executed with
// schedbattleMainEnv set, the test binary is schedbattle.
func TestMain(m *testing.M) {
	if os.Getenv(schedbattleMainEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

const schedbattleMainEnv = "SCHEDBATTLE_TEST_RUN_MAIN"

// TestReplicatedModesRejectStreamFlags: -check and -battle run replicated
// grids, which carry no streams, so every stream-export flag beside them
// is refused up front (exit 2, naming the flag) instead of being a silent
// no-op — and nothing was run or written.
func TestReplicatedModesRejectStreamFlags(t *testing.T) {
	dir := t.TempDir()
	flags := map[string][]string{
		"-trace":     {"-trace", filepath.Join(dir, "traces")},
		"-trace-csv": {"-trace-csv", filepath.Join(dir, "trace.csv")},
		"-timeline":  {"-timeline", filepath.Join(dir, "timelines")},
		"-timehist":  {"-timehist"},
		"-series":    {"-series", filepath.Join(dir, "series.csv")},
	}
	modes := map[string][]string{
		"check":  {"-check", "-baseline", filepath.Join(dir, "no-such-baseline.json")},
		"battle": {"-battle", "web-tail", "-scale", "0.02", "-replications", "2"},
	}
	for mode, margs := range modes {
		for name, fargs := range flags {
			t.Run(mode+name, func(t *testing.T) {
				cmd := exec.Command(os.Args[0], append(append([]string{}, margs...), fargs...)...)
				cmd.Env = append(os.Environ(), schedbattleMainEnv+"=1")
				var stderr strings.Builder
				cmd.Stderr = &stderr
				err := cmd.Run()
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != 2 {
					t.Fatalf("exit: %v, want status 2; stderr: %s", err, stderr.String())
				}
				msg := stderr.String()
				if !strings.Contains(msg, name+" ") || !strings.Contains(msg, "only with -scenario") {
					t.Fatalf("message does not name %s and \"only with -scenario\": %s", name, msg)
				}
			})
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("refused runs left %d files behind", len(left))
	}
}

// TestProfilesInEveryMode: -cpuprofile and -memprofile write complete
// gzipped pprof files whatever the mode, also when the run exits non-zero.
func TestProfilesInEveryMode(t *testing.T) {
	modes := map[string]struct {
		args []string
		exit int
	}{
		"scenario":      {[]string{"-scenario", "web-tail", "-scale", "0.02"}, 0},
		"check":         {[]string{"-check", "-baseline", "../../baselines/ci.json", "-jobs", "2"}, 0},
		"check-failing": {[]string{"-check", "-baseline", "no-such-baseline.json"}, 2},
	}
	for mode, m := range modes {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
			cmd := exec.Command(os.Args[0], append(m.args, "-cpuprofile", cpu, "-memprofile", mem)...)
			cmd.Env = append(os.Environ(), schedbattleMainEnv+"=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != m.exit {
				t.Fatalf("exit: %v, want status %d; stderr: %s", err, m.exit, stderr.String())
			}
			for _, p := range []string{cpu, mem} {
				if b, err := os.ReadFile(p); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
					t.Errorf("%s is not a gzip file (%d bytes, %v)", filepath.Base(p), len(b), err)
				}
			}
		})
	}
}
