package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"reactivespec/internal/plot"
)

// This file is the offline half of span tracing: load a JSONL span file (or
// several nodes' files concatenated), group spans into traces, and attribute
// each traced batch's wall time to its named stages. reactivespec spans
// renders the result as a table, CSV, or an SVG bar chart.

// ingestStages are the server-side children of a batch root, in pipeline
// order; crossNodeStages follow once the record leaves the ingest path. The
// fixed order keeps the report (and its CSV/SVG forms) deterministic.
var ingestStages = []string{"decode", "wal_append", "fsync", "apply", "respond"}
var crossNodeStages = []string{"ship", "follower_apply"}
var clientStages = []string{"client_encode", "client_network"}

// StageStat aggregates one stage across every trace in a span file.
type StageStat struct {
	Stage string
	Count int
	// P50/P99/Mean are per-span durations in milliseconds.
	P50, P99, Mean float64
	// PctOfBatch is the stage's share of traced batch wall time: the
	// stage's summed duration over the summed duration of every batch
	// root, in percent. Stages that outlive the batch (ship,
	// follower_apply) can exceed the batch window on their own clock and
	// are reported against the same denominator for comparability.
	PctOfBatch float64
}

// SpanReport is the analysis of one span file.
type SpanReport struct {
	Spans  int
	Traces int
	// Batches counts traces that contain a server "batch" root span.
	Batches int
	Stages  []StageStat
	// CoveragePct is the mean fraction of a batch root's wall time covered
	// by its direct children, in percent — how much of a traced batch the
	// named stages explain.
	CoveragePct float64
	// CompleteChains counts traces observed end to end: an ingest batch,
	// its WAL append, the replication ship, and a follower apply.
	CompleteChains int
	Nodes          []string
	// DroppedLines counts input lines that did not parse as spans.
	DroppedLines int
}

// LoadSpans reads spans from a JSONL stream, one span object per line.
// Unparsable lines are counted, not fatal — a SIGKILL'd daemon can leave a
// torn final line.
func LoadSpans(r io.Reader) ([]Span, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var spans []Span
	dropped := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil || s.Span == 0 {
			dropped++
			continue
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, dropped, fmt.Errorf("obs: reading span file: %w", err)
	}
	return spans, dropped, nil
}

// BuildSpanReport groups spans into traces and computes the per-stage
// latency distribution and batch-time attribution.
func BuildSpanReport(spans []Span, dropped int) SpanReport {
	rep := SpanReport{Spans: len(spans), DroppedLines: dropped}
	byTrace := make(map[uint64][]Span)
	nodes := make(map[string]bool)
	durs := make(map[string][]float64) // stage -> durations (ms)
	for _, s := range spans {
		nodes[s.Node] = true
		durs[s.Stage] = append(durs[s.Stage], float64(s.Dur)/1e6)
		if s.Trace != 0 {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	rep.Traces = len(byTrace)
	for n := range nodes {
		rep.Nodes = append(rep.Nodes, n)
	}
	sort.Strings(rep.Nodes)

	// Batch-time attribution: for every trace with a batch root, the
	// root's direct children cover some fraction of its wall time.
	var batchTotal float64 // summed batch root durations, ms
	var covered float64    // summed child durations inside those roots, ms
	stageInBatch := make(map[string]float64)
	for _, ts := range byTrace {
		var root Span
		for _, s := range ts {
			if s.Stage == "batch" {
				root = s
				break
			}
		}
		if root.Span == 0 || root.Dur <= 0 {
			continue
		}
		rep.Batches++
		batchTotal += float64(root.Dur) / 1e6
		for _, s := range ts {
			if s.Parent == root.Span {
				covered += float64(s.Dur) / 1e6
			}
			stageInBatch[s.Stage] += float64(s.Dur) / 1e6
		}
		if hasStages(ts, "wal_append") && hasStages(ts, "ship") && hasStages(ts, "follower_apply") {
			rep.CompleteChains++
		}
	}
	if batchTotal > 0 {
		rep.CoveragePct = covered / batchTotal * 100
	}

	// Stage rows in pipeline order first, then anything else alphabetically.
	ordered := append(append(append([]string{}, clientStages...), "batch"), ingestStages...)
	ordered = append(ordered, crossNodeStages...)
	seen := make(map[string]bool)
	for _, st := range ordered {
		seen[st] = true
	}
	var extra []string
	for st := range durs {
		if !seen[st] {
			extra = append(extra, st)
		}
	}
	sort.Strings(extra)
	for _, st := range append(ordered, extra...) {
		ds := durs[st]
		if len(ds) == 0 {
			continue
		}
		sort.Float64s(ds)
		var sum float64
		for _, d := range ds {
			sum += d
		}
		pct := 0.0
		if batchTotal > 0 && st != "batch" {
			pct = stageInBatch[st] / batchTotal * 100
		}
		rep.Stages = append(rep.Stages, StageStat{
			Stage:      st,
			Count:      len(ds),
			P50:        percentile(ds, 0.50),
			P99:        percentile(ds, 0.99),
			Mean:       sum / float64(len(ds)),
			PctOfBatch: pct,
		})
	}
	return rep
}

func hasStages(ts []Span, stage string) bool {
	for _, s := range ts {
		if s.Stage == stage {
			return true
		}
	}
	return false
}

// percentile returns the p-quantile of sorted (ascending) values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// WriteSpanReport renders the report as an aligned table or as CSV.
func WriteSpanReport(w io.Writer, rep SpanReport, csv bool) error {
	if csv {
		if _, err := fmt.Fprintln(w, "stage,count,p50_ms,p99_ms,mean_ms,pct_of_batch"); err != nil {
			return err
		}
		for _, s := range rep.Stages {
			if _, err := fmt.Fprintf(w, "%s,%d,%.6f,%.6f,%.6f,%.2f\n",
				s.Stage, s.Count, s.P50, s.P99, s.Mean, s.PctOfBatch); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# spans=%d traces=%d batches=%d coverage_pct=%.1f complete_chains=%d dropped_lines=%d nodes=%v\n",
			rep.Spans, rep.Traces, rep.Batches, rep.CoveragePct, rep.CompleteChains, rep.DroppedLines, rep.Nodes)
		return err
	}
	fmt.Fprintf(w, "spans: %d   traces: %d   traced batches: %d   nodes: %v\n",
		rep.Spans, rep.Traces, rep.Batches, rep.Nodes)
	fmt.Fprintf(w, "batch wall time attributed to named stages: %.1f%%\n", rep.CoveragePct)
	fmt.Fprintf(w, "complete ingest→wal→ship→follower chains: %d\n", rep.CompleteChains)
	if rep.DroppedLines > 0 {
		fmt.Fprintf(w, "unparsable lines skipped: %d\n", rep.DroppedLines)
	}
	fmt.Fprintf(w, "\n%-16s %8s %12s %12s %12s %14s\n", "stage", "count", "p50 ms", "p99 ms", "mean ms", "% of batch")
	for _, s := range rep.Stages {
		pct := "-"
		if s.PctOfBatch > 0 {
			pct = fmt.Sprintf("%.2f", s.PctOfBatch)
		}
		if _, err := fmt.Fprintf(w, "%-16s %8d %12.4f %12.4f %12.4f %14s\n",
			s.Stage, s.Count, s.P50, s.P99, s.Mean, pct); err != nil {
			return err
		}
	}
	return nil
}

// SVGSpanReport renders the per-stage batch-time attribution as a bar chart.
func SVGSpanReport(w io.Writer, rep SpanReport) error {
	var xs, ys []float64
	var names []string
	for _, s := range rep.Stages {
		if s.Stage == "batch" || s.PctOfBatch <= 0 {
			continue
		}
		xs = append(xs, float64(len(xs)))
		ys = append(ys, s.PctOfBatch)
		names = append(names, s.Stage)
	}
	p := &plot.Plot{
		Title:  fmt.Sprintf("Batch latency attribution (%d traced batches, %.1f%% covered)", rep.Batches, rep.CoveragePct),
		XLabel: fmt.Sprintf("stage index: %v", names),
		YLabel: "% of batch wall time",
		Series: []plot.Series{{Name: "stages", X: xs, Y: ys, Style: plot.Bars}},
	}
	return p.WriteSVG(w, 860, 420)
}
