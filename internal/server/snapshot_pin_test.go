package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
	"unsafe"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// TestSnapshotBytesPinned drives a seeded multi-program, multi-kind workload
// through a daemon under every policy, plus a reactive variant that evicts by
// sampling and samples its monitor window, and pins the sha256 of the
// resulting current.snap. The entry layout is free to change; the bytes a
// snapshot holds are not.
func TestSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		policy string
		params core.Params
		want   string
	}{
		{"reactive", core.PolicyReactive, testParams(),
			"849c1087224306324d0786eda65beffcecbafb6be349567acd31fd06e50eae12"},
		{"selftrain", core.PolicySelfTrain, testParams(),
			"57546b932b67eb0cae78eb72f1585ddc5cec21b5026f0384ccc5bdaf98d3ffda"},
		{"probweight", core.PolicyProbWeight, testParams(),
			"55986c51921ebf99ea90f16492a198b8083a835e13b8b5117c7e0b460a7b66af"},
		{"reactive-sampling", core.PolicyReactive, testParams().WithSamplingEviction().WithMonitorSampling(8),
			"b306cf93962f488e9370cc29028201ac4ab402de47b50d18a9faf007145610b1"},
	}
	feeds := []struct {
		program string
		kind    trace.Kind
		seed    uint64
	}{
		{"gzip", trace.KindBranch, 31},
		{"mcf", trace.KindBranch, 32},
		{"gcc", trace.KindValue, 33},
		{"gzip", trace.KindMemdep, 34},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, c := newTestServer(t, Config{Params: tc.params, Policy: tc.policy, Shards: 8, SnapshotDir: dir})
			for _, f := range feeds {
				evs := synthEvents(24_000, f.seed)
				for off := 0; off < len(evs); off += 3000 {
					if _, err := c.IngestKind(context.Background(), f.program, f.kind, evs[off:off+3000]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.params.EvictBySampling {
				sampled := false
				for _, es := range s.Table().SnapshotEntries() {
					sampled = sampled || es.State.CyclePos != 0 && es.State.SmpExecs != 0
				}
				if !sampled {
					t.Fatal("no entry has live sampling state; the workload does not cover the sampling fields")
				}
			}
			res, err := s.SnapshotNow()
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(res.Path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("current.snap sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestTableEntrySize pins the slab entry to two cache lines.
func TestTableEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(tableEntry{}); n > 128 {
		t.Fatalf("tableEntry is %d B, want at most 128", n)
	}
}
