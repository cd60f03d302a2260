package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

func TestRunTable2(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"table2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"selection threshold", "99.5%", "monitor period", "oscillation limit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig4AndTable5(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"fig4"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "biased") || !strings.Contains(b.String(), "monitor") {
		t.Fatal("fig4 output incomplete")
	}
	b.Reset()
	if err := run([]string{"table5"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gshare") || !strings.Contains(b.String(), "200-cycle") {
		t.Fatal("table5 output incomplete")
	}
}

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scale", "0.02", "table1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "diffmail.pl") {
		t.Fatal("table1 missing paper input names")
	}
}

func TestRunTable3Subset(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scale", "0.05", "-bench", "eon", "table3"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "eon") {
		t.Fatal("table3 output missing benchmark")
	}
}

func TestRunCSVFormat(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scale", "0.05", "-bench", "eon", "-format", "csv", "table3"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bench,touch") {
		t.Fatalf("csv output wrong:\n%s", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"nonesuch"}, &b); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{}, &b); err == nil {
		t.Fatal("missing experiment accepted")
	}
	if err := run([]string{"-bench", "nope", "table3"}, &b); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if err := run([]string{"-format", "xml", "table3"}, &b); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunChaos(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scale", "0.05", "-bench", "gzip", "-intensities", "0,0.5", "chaos"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"reactive", "prev-profile-99", "incorrect-delta", "gzip"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := run([]string{"-scale", "0.05", "-bench", "gzip", "-intensities", "0,0.5", "-format", "svg", "chaos"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<svg") {
		t.Fatal("chaos SVG output malformed")
	}
}

func TestRunTimeline(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scale", "0.02", "-bench", "gzip", "timeline"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"gzip", "transitions", "trajectory"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := run([]string{"-scale", "0.02", "-bench", "gzip", "-format", "csv", "timeline"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "branch,state,from_instr,to_instr") {
		t.Fatalf("timeline csv output wrong:\n%s", b.String())
	}
	b.Reset()
	if err := run([]string{"-scale", "0.02", "-bench", "gzip", "-format", "svg", "timeline"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<svg") || !strings.Contains(b.String(), "</svg>") {
		t.Fatal("timeline SVG output malformed")
	}
}

// TestRunWALTimeline drives the WAL replay mode end to end: write a small
// log the way reactived would, then render its timeline in all three
// formats.
func TestRunWALTimeline(t *testing.T) {
	params := core.DefaultParams().Scaled(10)
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, ParamsHash: server.ParamsHash(params), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]trace.Event, 0, 400)
	for i := 0; i < 400; i++ {
		events = append(events, trace.Event{Branch: trace.BranchID(1 + i%2), Taken: i%2 == 0, Gap: 9})
	}
	if _, err := l.AppendPayload("gzip", trace.EncodeFrameAppend(nil, events)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := run([]string{"-wal-dir", dir, "timeline"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wal:gzip", "transitions", "trajectory"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("wal timeline output missing %q:\n%s", want, b.String())
		}
	}
	b.Reset()
	if err := run([]string{"-wal-dir", dir, "-wal-program", "gzip", "-format", "csv", "timeline"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "branch,state,from_instr,to_instr") {
		t.Fatalf("wal timeline csv output wrong:\n%s", b.String())
	}
	b.Reset()
	if err := run([]string{"-wal-dir", dir, "-format", "svg", "timeline"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<svg") {
		t.Fatal("wal timeline SVG output malformed")
	}

	if err := run([]string{"-wal-dir", dir, "table1"}, &b); exitCode(err) != 2 {
		t.Fatalf("-wal-dir with table1: err %v, want usage error", err)
	}
	if err := run([]string{"-wal-from", "3", "timeline"}, &b); exitCode(err) != 2 {
		t.Fatalf("-wal-from without -wal-dir: err %v, want usage error", err)
	}
	if err := run([]string{"-wal-dir", dir, "-wal-from", "5", "-wal-to", "5", "timeline"}, &b); exitCode(err) != 2 {
		t.Fatalf("empty window: err %v, want usage error", err)
	}
}

func TestRunTimeoutCancels(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-scale", "0.05", "-bench", "gzip", "-timeout", "1ns", "chaos"}, &b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if exitCode(err) != 1 {
		t.Fatalf("timeout exit code %d, want 1 (experiment failure)", exitCode(err))
	}
	msg := errorMessage(err)
	if !strings.Contains(msg, "-timeout") || !strings.Contains(msg, "deadline") {
		t.Fatalf("timeout message %q does not name -timeout expiry", msg)
	}
	if plain := errorMessage(errors.New("boom")); plain != "boom" {
		t.Fatalf("plain errors must render verbatim, got %q", plain)
	}
}

func TestExitCodeClassification(t *testing.T) {
	var b strings.Builder
	usageCases := [][]string{
		{"nonesuch"},
		{},
		{"-bench", "nope", "table3"},
		{"-format", "xml", "table3"},
		{"-intensities", "2", "chaos"},
		{"-intensities", "x", "chaos"},
		{"-format", "svg", "table3"},
	}
	for _, args := range usageCases {
		err := run(args, &b)
		if err == nil {
			t.Fatalf("args %v accepted", args)
		}
		if exitCode(err) != 2 {
			t.Fatalf("args %v: exit code %d, want 2 (usage): %v", args, exitCode(err), err)
		}
	}
	if exitCode(errors.New("experiment blew up")) != 1 {
		t.Fatal("plain errors must exit 1")
	}
}

// TestRunSVGFormats renders every verb with an SVG form at a small scale on
// one benchmark and checks that every other verb is a usage error.
func TestRunSVGFormats(t *testing.T) {
	for _, v := range verbs {
		args := []string{"-scale", "0.02", "-bench", "eon", "-format", "svg", v.name}
		if v.name == "fig3" { // fig3 plots gap; at 0.02 no branch runs long enough
			args = []string{"-scale", "0.2", "-format", "svg", v.name}
		}
		var b strings.Builder
		err := run(args, &b)
		if v.svg == nil {
			if exitCode(err) != 2 {
				t.Errorf("%s: err %v, want a usage error", v.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", v.name, err)
			continue
		}
		if out := strings.TrimSpace(b.String()); !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
			t.Errorf("%s: SVG output malformed:\n%s", v.name, out)
		}
	}
}

// TestRunFig3ReducedScale checks that fig3 prints the changing branches a
// reduced scale leaves (two at 0.2) instead of failing for want of five.
func TestRunFig3ReducedScale(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scale", "0.2", "fig3"}, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if rows := len(lines) - 2; rows != 2 { // less the header and its rule
		t.Fatalf("fig3 at scale 0.2: %d rows, want 2:\n%s", rows, b.String())
	}
}
