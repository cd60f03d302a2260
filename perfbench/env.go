package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// provenance identifies the host, toolchain and code a result came from.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit,omitempty"`
	SourceHash string `json:"source_sha256"`
	// GOMAXPROCS is each process's setting: this load generator and every
	// child it runs (the children inherit it through the environment).
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	// DaemonFlags are the reactived flags of the measured daemon (nil for
	// repro), ReproArgs the reactivespec arguments (nil otherwise).
	DaemonFlags []string `json:"daemon_flags,omitempty"`
	ReproArgs   []string `json:"reactivespec_args,omitempty"`
}

// runProvenance collects the flags the workload ran its children with.
var runProvenance struct {
	daemonFlags []string
	reproArgs   []string
}

func collectProvenance(o options) provenance {
	p := provenance{
		CPUModel:  cpuModel(),
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GOMAXPROCS: map[string]int{
			"perfbench":    runtime.GOMAXPROCS(0),
			"reactived":    maxProcs(),
			"reactivespec": maxProcs(),
		},
		DaemonFlags: runProvenance.daemonFlags,
		ReproArgs:   runProvenance.reproArgs,
		SourceHash:  sourceHash(o.root),
	}
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests go.mod and every .go file of the checkout outside the
// benchmark and build directories, so a result names the code it measured
// even where the checkout is not a git repository.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// childEnv is the environment of every child process: the parent's, with
// GOMAXPROCS pinned to the benchmark's CPU budget.
func childEnv() []string {
	env := make([]string, 0, len(os.Environ())+1)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(maxProcs()))
}
