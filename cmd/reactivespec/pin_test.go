package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// verbPins holds one row per experiment verb. A row without a scale runs
// the verb at full scale and must print exactly its all_output.txt section;
// a row with a scale must print CSV at that scale whose SHA-256 is sha256.
// regime, where set, checks that the pinned CSV still shows the paper's
// effect, so a digest cannot pin a degenerate figure.
//
// The MSSP verbs (fig7, fig8, sweep-task, sweep-slaves) run at 0.09, the
// smallest scale in steps of 0.01 at which fig7 passes its regime check;
// below it speculation barely acts on the timing machine. Every other
// digest row runs at 0.02.
var verbPins = []struct {
	verb   string
	scale  string
	sha256 string
	regime func(t *testing.T, csv string)
}{
	{verb: "table1"},
	{verb: "table2"},
	{verb: "fig2", scale: "0.02", sha256: "94cef861c25f2b32f5f42cfb9c5583b6bdaa362a7521969e9c9f3a5c4b47a9d3"},
	{verb: "fig3"},
	{verb: "fig4"},
	{verb: "fig5", scale: "0.02", sha256: "ed9f8cd58059d584ae0bfe22544680238ee37e38078b33ae06a9bdb38957dbdf"},
	{verb: "table3", scale: "0.02", sha256: "c53b035da0ccf154cc94d443e86b88e5d3cbc3ed26f400dddaad37fa5594e3bc"},
	{verb: "table4", scale: "0.02", sha256: "40170ef64ccfa0d30c8772907b0547f82f157b049abc7aed192adb243cd43c76"},
	{verb: "fig6", scale: "0.02", sha256: "96d74fd9dd8fa3ad62ff11c0500c4d93d7114aa1d5be98ce2af80df2d51b2589"},
	{verb: "fig7", scale: "0.09", sha256: "54e6838a67862655e82e782185f710eb900fd33934099e31b8fbc0341d4599f0", regime: fig7Regime},
	{verb: "fig8", scale: "0.09", sha256: "6794c5399e65df202d60cee9315b0400e28826b592fa2459509dbb5e769293e5"},
	{verb: "fig9"},
	{verb: "table5"},
	{verb: "averaging", scale: "0.02", sha256: "cfb5cbe276dbbf2c2bb3cfc8a75efe0925b4fc95c6c4fe3af59eb86b677a40bd"},
	{verb: "flush", scale: "0.02", sha256: "764db9861789854c87545dc36c07792a29f5c8c22dcc43968614786dc473bb16"},
	{verb: "generality", scale: "0.02", sha256: "7e6671d92d16e2b9f597c03601ea0c7b06273c071c4d6c7f30976354403ede5b"},
	{verb: "policies", scale: "0.02", sha256: "fe7af115888b1058805d81dfe8baec99dbb7c5e60ea3427360af775de0445ee5"},
	{verb: "chaos", scale: "0.02", sha256: "9a6528febd7c331cadb2ab58c28cb6c11d7bdef5a25945ed023081c1d41cf1f5"},
	{verb: "sweep-monitor", scale: "0.02", sha256: "28575e3a7711f62de339cfe60b32842aa659d4a4115b8b03f3ba71e0c254a756"},
	{verb: "sweep-evict", scale: "0.02", sha256: "0bad47a6c704ace2726fb232798227d70cce5072a0924a987fceec69e60df61a"},
	{verb: "sweep-wait", scale: "0.02", sha256: "638436865b0afbf210a90f583d23cbf4a3268428bbb043a6c9a7f6fb817ad986"},
	{verb: "sweep-oscillation", scale: "0.02", sha256: "136d637684d361dc2e38d2bb7e251e6a07ecef21487b44104ef96894c28efe3a"},
	{verb: "sweep-step", scale: "0.02", sha256: "2ff16630913164e8ca44f1c1ee0dfd296ae17101d52c654f3c6934f20877bd03"},
	{verb: "sweep-threshold", scale: "0.02", sha256: "f6e50d33d8c34c8180b92b4907383074faf844b4e418e2a15aad1c6d74c7433b"},
	{verb: "sweep-task", scale: "0.09", sha256: "0b37a8722ad78e9d30adb71d9d8a3f29b0e9f0ac0ff6def7742e08187b0a445b"},
	{verb: "sweep-slaves", scale: "0.09", sha256: "f0426fb26b16af4e31eab875abfc78331c4668c7e8f4055f8f356941ac0b7797"},
	{verb: "replay"},
	{verb: "tls"},
	{verb: "describe"},
	{verb: "timeline", scale: "0.02", sha256: "dd130b4c94efdde1895f8c3f7fac3d56bb471419a11aaf8cbe30fb130c981b6c"},
}

// TestEveryVerbPinned pins the output of every reactivespec verb, so the
// committed all_output.txt cannot drift from what the code prints without a
// test failing.
func TestEveryVerbPinned(t *testing.T) {
	rows := map[string]bool{}
	for _, p := range verbPins {
		rows[p.verb] = true
	}
	for _, v := range verbs {
		if !rows[v.name] {
			t.Errorf("verb %q has no row in verbPins", v.name)
		}
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "all_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range verbPins {
		t.Run(p.verb, func(t *testing.T) {
			var out strings.Builder
			if p.scale == "" {
				if err := run([]string{p.verb}, &out); err != nil {
					t.Fatal(err)
				}
				if want := section(t, string(committed), p.verb); out.String() != want {
					t.Fatalf("full-scale output differs from the all_output.txt section:\n--- got\n%s--- want\n%s",
						out.String(), want)
				}
				return
			}
			if err := run([]string{"-format", "csv", "-scale", p.scale, p.verb}, &out); err != nil {
				t.Fatal(err)
			}
			if p.regime != nil {
				p.regime(t, out.String())
			}
			sum := sha256.Sum256([]byte(out.String()))
			if got := hex.EncodeToString(sum[:]); got != p.sha256 {
				t.Errorf("CSV at scale %s: sha256 %s, pinned %s", p.scale, got, p.sha256)
			}
		})
	}
}

// section returns what `reactivespec all` printed for one verb: the bytes
// after its "=== name ===" header, up to the blank line before the next.
func section(t *testing.T, all, name string) string {
	t.Helper()
	header := "\n=== " + name + " ===\n"
	i := strings.Index(all, header)
	if i < 0 {
		t.Fatalf("all_output.txt has no %s section", name)
	}
	body := all[i+len(header):]
	if end := strings.Index(body, "\n\n=== "); end >= 0 {
		body = body[:end+1]
	}
	return body
}

// fig7Regime checks Figure 7's claim on its CSV: closing the loop beats the
// open loop in the geomean, and the open loop squashes more tasks on most
// benchmarks.
func fig7Regime(t *testing.T, text string) {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	num := func(rec []string, name string) float64 {
		v, err := strconv.ParseFloat(rec[col[name]], 64)
		if err != nil {
			t.Fatalf("fig7 %s %s: %v", rec[0], name, err)
		}
		return v
	}
	benches, openWorse := 0, 0
	closed, open := math.NaN(), math.NaN()
	for _, rec := range recs[1:] {
		if rec[0] == "geomean" {
			closed, open = num(rec, "c(closed,1k)"), num(rec, "o(open,1k)")
			continue
		}
		benches++
		if num(rec, "misspec o") > num(rec, "misspec c") {
			openWorse++
		}
	}
	if !(closed > open) {
		t.Errorf("fig7 geomean: closed loop %v not above open loop %v", closed, open)
	}
	if 2*openWorse <= benches {
		t.Errorf("fig7: open loop squashes more than closed on %d of %d benchmarks, want more than half",
			openWorse, benches)
	}
}
