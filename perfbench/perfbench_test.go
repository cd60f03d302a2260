package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinaries builds reactived and reactivespec from the enclosing
// checkout into a temporary directory.
func buildBinaries(t *testing.T) (root, bin string) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin = t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+"/", "./cmd/reactived", "./cmd/reactivespec")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building binaries: %v\n%s", err, out)
	}
	return root, bin
}

// runBench runs perfbench in-process for one second and returns its exit
// code and its two output lines.
func runBench(t *testing.T, root, bin string, args ...string) (int, report, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	full := append([]string{"-root", root, "-bin", bin, "-work", t.TempDir(), "--seconds", "1"}, args...)
	code := run(full, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("perfbench %v: exit %d, want a report and a result line, got %q\nstderr: %s", args, code, stdout.String(), stderr.String())
	}
	var rep report
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatalf("report line: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return code, rep, res
}

// TestCorruptedExpectationFailsRun flips one expected answer byte per
// workload and checks that the correctness gate catches it: a nonzero exit,
// correct=false and error_frac > 0. The clean stream-hot run is the control.
func TestCorruptedExpectationFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon and reactivespec")
	}
	root, bin := buildBinaries(t)

	code, rep, res := runBench(t, root, bin, "--workload", "stream-hot", "--seed", "3", "--trace", "0")
	if code != 0 || !res.Correct || res.Failed != 0 || rep.ErrorFrac != 0 {
		t.Fatalf("clean run: exit %d, correct %v, failed %d, errors %v", code, res.Correct, res.Failed, rep.Errors)
	}
	for _, name := range []string{"ops_per_s", "op_p50_ms", "cpu_ns_per_op", "setup_s", "rss_mb"} {
		if v, ok := res.Metrics[name]; !ok || v.Value <= 0 {
			t.Errorf("clean run: metric %s = %+v, want a positive value", name, v)
		}
	}

	for _, w := range []string{"stream-hot", "post-fleet", "restart", "repro"} {
		t.Run(w, func(t *testing.T) {
			code, rep, res := runBench(t, root, bin, "--workload", w, "--seed", "3", "--trace", "0", "--corrupt-expectation")
			if code == 0 {
				t.Errorf("exit 0 with a corrupted expectation")
			}
			if res.Correct || res.Failed < 1 {
				t.Errorf("correct %v, failed %d; want the corrupted answer counted as failed", res.Correct, res.Failed)
			}
			if rep.ErrorFrac <= 0 {
				t.Errorf("error_frac %v, want > 0", rep.ErrorFrac)
			}
		})
	}
}

// TestTracedRunReportsEveryLayerMetric checks the traced run against
// BENCHMARK.json: every per-layer metric present, every replayed answer
// correct, and a span file that reactivespec spans accepted.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs reactivespec and in-process servers")
	}
	root, bin := buildBinaries(t)
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	code, rep, res := runBench(t, root, bin, "--workload", "stream-hot", "--seed", "5", "--trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v, errors %v", code, res.Correct, rep.Errors)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, want := range spec.PerLayer {
		got, ok := res.Metrics[want.Name]
		if !ok || got.Unit != want.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", want.Name, got, want.Unit)
		}
	}
	if cov := res.Metrics["spans.batch_coverage_frac"].Value; cov < 0.95 {
		t.Errorf("child spans cover %.3f of the batch roots, want >= 0.95", cov)
	}
	accepted := false
	for _, n := range rep.Notes {
		accepted = accepted || strings.Contains(n, "reactivespec spans:")
	}
	if !accepted {
		t.Errorf("no reactivespec spans verdict in the notes: %q", rep.Notes)
	}
}

func TestQuantileIsExactSample(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
