package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"reactivespec/internal/replica"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// TestMetricsConformance pins the registration/exposition contract over the
// daemon's full metric surface (server + WAL + shipper + follower): every
// registered metric emits at least one family, no two metrics emit the same
// family, and every family appears in /metrics with exactly one # HELP and
// one # TYPE header of a known type before its samples.
func TestMetricsConformance(t *testing.T) {
	wlog, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams())})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	s, c := newTestServer(t, Config{Shards: 4, WAL: wlog})

	// Register the replication metrics the daemon would: the shipper's
	// (including the per-follower lag gauges) and the follower's. The
	// follower dials a dead address; its collector must expose regardless.
	sh := replica.NewShipper(replica.ShipperConfig{Log: wlog})
	sh.RegisterMetrics(s.Registry())
	defer sh.Close()
	f := replica.StartFollower(replica.FollowerConfig{
		Addr:       "127.0.0.1:1",
		ParamsHash: ParamsHash(testParams()),
		NextSeq:    wlog.NextSeq,
		Apply:      func(string, []byte, uint64) (int, error) { return 0, nil },
	})
	f.RegisterMetrics(s.Registry())
	defer f.Seal()

	// A little traffic so counters and summaries carry real samples.
	if _, err := c.IngestKind(context.Background(), "gzip", trace.KindBranch, synthEvents(2000, 1)); err != nil {
		t.Fatal(err)
	}

	// Registration side: every metric emits ≥1 family, families are unique
	// across metrics (the dedup registration alone cannot enforce for
	// collectors, which emit computed names).
	owner := map[string]string{} // family → registered metric that emits it
	fams := s.Registry().FamiliesByMetric()
	for _, name := range s.Registry().Names() {
		emitted, ok := fams[name]
		if !ok || len(emitted) == 0 {
			t.Errorf("registered metric %q emits no families", name)
			continue
		}
		for _, fam := range emitted {
			if prev, dup := owner[fam]; dup {
				t.Errorf("family %q emitted by both %q and %q", fam, prev, name)
			}
			owner[fam] = name
		}
	}

	// Exposition side: scrape /metrics and parse headers and samples.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("/metrics: status %d", rr.Code)
	}
	helpCount := map[string]int{}
	typeOf := map[string]string{}
	sampleFams := map[string]bool{}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Errorf("HELP without text: %q", line)
				continue
			}
			helpCount[fields[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := fields[2], fields[3]
			if _, dup := typeOf[name]; dup {
				t.Errorf("duplicate # TYPE for %q", name)
			}
			switch typ {
			case "counter", "gauge", "summary":
			default:
				t.Errorf("family %q has unknown type %q", name, typ)
			}
			typeOf[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Errorf("unknown comment line: %q", line)
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			// A summary's _sum/_count samples belong to the base family.
			for _, suffix := range []string{"_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && typeOf[base] == "summary" {
					name = base
					break
				}
			}
			sampleFams[name] = true
			if _, known := owner[name]; !known {
				t.Errorf("sample family %q matches no registered metric", name)
			}
		}
	}
	for fam := range owner {
		if n := helpCount[fam]; n != 1 {
			t.Errorf("family %q has %d # HELP lines, want exactly 1", fam, n)
		}
		if _, ok := typeOf[fam]; !ok {
			t.Errorf("family %q has no # TYPE line", fam)
		}
	}
	// Spot-check the labeled per-follower lag gauges made it into the
	// contract even with no follower attached (empty family, headers only).
	for _, fam := range []string{
		"reactived_replication_follower_lag_records",
		"reactived_replication_follower_lag_seconds",
	} {
		if typeOf[fam] != "gauge" {
			t.Errorf("family %q: type %q, want gauge", fam, typeOf[fam])
		}
	}
}
