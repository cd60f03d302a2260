package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	// reproScale is the fixed workload scale of the repro figures.
	reproScale = "0.01"
	// reproSetupScale is the smallest scale, whose run time is the fixed
	// cost of a regeneration: process start, workload calibration and
	// program synthesis.
	reproSetupScale = "0.001"
	// reproSeeds is how many reactivespec seeds have recorded digests.
	// Regeneration i of a run uses seed (benchmark seed + i) mod reproSeeds,
	// so a run spreads over the seeds instead of timing one of them.
	reproSeeds = 8
	// reproDigestFile holds the recorded CSV digests, beside this source.
	reproDigestFile = "repro_digests.json"
)

var reproFigures = []string{"fig5", "fig7"}

// reproDigests maps "fig5" / "fig7" to the SHA-256 of the CSV per seed.
type reproDigests struct {
	Scale   string                       `json:"scale"`
	Figures map[string]map[string]string `json:"figures"`
}

// figRun is one finished reactivespec run.
type figRun struct {
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64 // bytes
	sum    string
}

// runFigure runs `reactivespec -format csv -scale scale -seed seed fig`.
func runFigure(ctx context.Context, o options, scale string, seed uint64, fig string) (figRun, error) {
	args := []string{"-format", "csv", "-scale", scale, "-seed", strconv.FormatUint(seed, 10), fig}
	cmd := exec.CommandContext(ctx, filepath.Join(o.bin, "reactivespec"), args...)
	cmd.Env = childEnv()
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return figRun{}, fmt.Errorf("reactivespec %v: %w: %s", args, err, errb.String())
	}
	var r figRun
	r.wall = wall
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.maxRSS = ru.Maxrss << 10
	}
	h := sha256.Sum256(out.Bytes())
	r.sum = hex.EncodeToString(h[:])
	return r, nil
}

func loadDigests(o options) (*reproDigests, error) {
	b, err := os.ReadFile(filepath.Join(o.root, "perfbench", reproDigestFile))
	if err != nil {
		return nil, err
	}
	var d reproDigests
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", reproDigestFile, err)
	}
	if d.Scale != reproScale {
		return nil, fmt.Errorf("%s records scale %s, the benchmark runs %s", reproDigestFile, d.Scale, reproScale)
	}
	return &d, nil
}

// runRepro is the repro workload: regenerate Figure 5 and Figure 7 as CSV
// at a fixed scale, back to back, until the time is up; each regeneration
// (both figures) is one operation, checked against the recorded digests.
func runRepro(ctx context.Context, o options, t *tally) (*measured, error) {
	digests, err := loadDigests(o)
	if err != nil {
		return nil, err
	}
	want := func(fig string, seed uint64) (string, error) {
		sum := digests.Figures[fig][strconv.FormatUint(seed, 10)]
		if sum == "" {
			return "", fmt.Errorf("%s has no %s digest for seed %d", reproDigestFile, fig, seed)
		}
		if o.corrupt {
			sum = "0" + sum[1:]
		}
		return sum, nil
	}
	runProvenance.reproArgs = []string{"-format", "csv", "-scale", reproScale, "-seed", "(seed+i)%" + strconv.Itoa(reproSeeds), "fig5|fig7"}

	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		var took time.Duration
		for _, fig := range reproFigures {
			r, err := runFigure(ctx, o, reproSetupScale, o.seed%reproSeeds, fig)
			if err != nil {
				return nil, err
			}
			took += r.wall
		}
		setups = append(setups, took.Seconds())
	}

	// Each regeneration is one operation; as with the daemon's windows, the
	// result line takes its medians over the calm ones (window.go).
	var walls, cpus, rsss, steals []float64
	var maxRSS int64
	deadline := deadlineFrom(o.seconds)
	for i := uint64(0); i == 0 || time.Now().Before(deadline); i++ {
		seed := (o.seed + i) % reproSeeds
		var wall, cpu time.Duration
		var rss int64
		steal0 := stealTime()
		for _, fig := range reproFigures {
			sum, err := want(fig, seed)
			if err != nil {
				return nil, err
			}
			r, err := runFigure(ctx, o, reproScale, seed, fig)
			if err != nil {
				t.fail(err)
				return nil, err
			}
			if r.sum != sum {
				t.fail(fmt.Errorf("%s seed %d: CSV digest %s, recorded %s", fig, seed, r.sum, sum))
			} else {
				t.ok()
			}
			wall += r.wall
			cpu += r.cpu
			rss = max(rss, r.maxRSS)
		}
		maxRSS = max(maxRSS, rss)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, float64(cpu))
		rsss = append(rsss, float64(rss)/(1<<20))
		steals = append(steals, float64(stealTime()-steal0)/float64(wall*time.Duration(maxProcs())))
	}
	var calmWalls, calmCPUs, calmRSSs []float64
	for _, i := range calm(len(walls), func(i int) float64 { return steals[i] }) {
		calmWalls = append(calmWalls, walls[i])
		calmCPUs = append(calmCPUs, cpus[i])
		calmRSSs = append(calmRSSs, rsss[i])
	}
	m := newMeasured()
	p50 := quantile(calmWalls, 0.50)
	setup := median(setups)
	m.put("ops_per_s", 1/p50, "1/s")
	m.put("op_p50_ms", p50*1e3, "ms")
	m.put("cpu_ns_per_op", median(calmCPUs), "ns")
	m.put("setup_s", setup, "s")
	m.put("rss_mb", median(calmRSSs), "MB")
	m.note("wall_s", quantile(walls, 0.50), "s", len(walls))
	m.note("wall_p99_s", quantile(walls, 0.99), "s", len(walls))
	m.note("calm_regenerations", float64(len(calmWalls)), "count", 0)
	m.note("setup_s", setup, "s", len(setups))
	m.note("rss_mb", float64(maxRSS)/(1<<20), "MB", 0)
	return m, nil
}

// recordDigests regenerates repro_digests.json: every figure at every
// recorded seed.
func recordDigests(ctx context.Context, o options, log io.Writer) error {
	d := reproDigests{Scale: reproScale, Figures: map[string]map[string]string{}}
	for _, fig := range reproFigures {
		d.Figures[fig] = map[string]string{}
		for s := uint64(0); s < reproSeeds; s++ {
			r, err := runFigure(ctx, o, reproScale, s, fig)
			if err != nil {
				return err
			}
			d.Figures[fig][strconv.FormatUint(s, 10)] = r.sum
			fmt.Fprintf(log, "%s seed %d: %s (%.2fs)\n", fig, s, r.sum, r.wall.Seconds())
		}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.root, "perfbench", reproDigestFile), append(b, '\n'), 0o644)
}
