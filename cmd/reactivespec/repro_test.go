package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReproDigests pins the bytes of the benchmark's repro figures: the CSV
// of fig5 and fig7 at the recorded scale must hash to the SHA-256 recorded
// in perfbench/repro_digests.json for each checked seed. The digest file is
// read where the benchmark reads it, never copied.
func TestReproDigests(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "repro_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Scale   string                       `json:"scale"`
		Figures map[string]map[string]string `json:"figures"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"fig5", "fig7"} {
		for _, seed := range []string{"0", "3"} {
			want := rec.Figures[fig][seed]
			if want == "" {
				t.Fatalf("repro_digests.json has no %s digest for seed %s", fig, seed)
			}
			var out strings.Builder
			if err := run([]string{"-format", "csv", "-scale", rec.Scale, "-seed", seed, fig}, &out); err != nil {
				t.Fatalf("%s seed %s: %v", fig, seed, err)
			}
			sum := sha256.Sum256([]byte(out.String()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s seed %s: CSV sha256 %s, recorded %s", fig, seed, got, want)
			}
		}
	}
}
