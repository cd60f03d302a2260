package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"reactivespec/internal/core"
	"reactivespec/internal/harness"
	"reactivespec/internal/obs"
	"reactivespec/internal/plot"
	"reactivespec/internal/stats"
	"reactivespec/internal/workload"
)

// TimelineResult is one traced run: the usual harness statistics plus the
// per-branch state trajectories reconstructed from the lifecycle sink. It is
// the software reproduction of the paper's per-branch classification views
// (Figures 3, 6 and 9, seen from the controller instead of the workload).
type TimelineResult struct {
	Bench string
	Input workload.InputID
	Stats core.Stats
	// Transitions is the total number of lifecycle transitions observed;
	// Dropped counts the ones the ring buffer overwrote (0 at calibrated
	// scales with the default sink capacity).
	Transitions uint64
	Dropped     uint64
	Branches    []obs.BranchTimeline
}

// Timeline drives one benchmark through a reactive controller with an
// obs.Sink attached and reconstructs every branch's state trajectory. The
// sink observes without feeding back, so the run's statistics are bitwise
// identical to an untraced run (TestTimelineMatchesUntracedRun pins this).
func Timeline(cfg Config, bench string, input workload.InputID) (*TimelineResult, error) {
	cfg = cfg.withDefaults()
	spec, err := cfg.build(bench, input)
	if err != nil {
		return nil, err
	}
	ctl := core.New(cfg.Params())
	sink := obs.NewSink(0)
	sink.Attach(ctl)
	sts, err := harness.RunAll(cfg.ctx(), workload.NewGenerator(spec), ctl)
	if err != nil {
		return nil, err
	}
	st := sts[0]
	return &TimelineResult{
		Bench:       bench,
		Input:       input,
		Stats:       st,
		Transitions: sink.Total(),
		Dropped:     sink.Dropped(),
		Branches:    obs.BuildTimeline(sink.Records(), st.Instrs),
	}, nil
}

// timelineOrder ranks branches most-active-first (transition count
// descending, branch ID ascending as the tiebreak) — the order the table and
// the SVG present them in.
func timelineOrder(branches []obs.BranchTimeline) []obs.BranchTimeline {
	out := make([]obs.BranchTimeline, len(branches))
	copy(out, branches)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Transitions != out[j].Transitions {
			return out[i].Transitions > out[j].Transitions
		}
		return out[i].Branch < out[j].Branch
	})
	return out
}

// trajectory renders a branch's state sequence compactly:
// "monitor→biased→monitor…(+4)".
func trajectory(segments []obs.Segment, max int) string {
	var b strings.Builder
	n := len(segments)
	shown := n
	if shown > max {
		shown = max
	}
	for i := 0; i < shown; i++ {
		if i > 0 {
			b.WriteString("→")
		}
		b.WriteString(segments[i].State.String())
	}
	if n > shown {
		fmt.Fprintf(&b, "…(+%d)", n-shown)
	}
	return b.String()
}

// WriteTimeline renders the traced run. Table mode prints a run-summary
// header followed by one row per branch, most-active branches first. CSV mode
// emits the raw per-segment spans (branch, state, from, to), one row per
// constant-state segment, suitable for external plotting.
func WriteTimeline(w io.Writer, res *TimelineResult, csv bool) error {
	ordered := timelineOrder(res.Branches)
	if csv {
		t := stats.NewTable("branch", "state", "from_instr", "to_instr")
		for _, tl := range ordered {
			for _, seg := range tl.Segments {
				t.AddRowf("%d", uint64(tl.Branch), "%s", seg.State.String(),
					"%d", seg.FromInstr, "%d", seg.ToInstr)
			}
		}
		return t.WriteCSV(w)
	}
	hdr := stats.NewTable("workload", "input", "events", "instructions", "transitions", "dropped", "branches traced")
	hdr.AddRowf("%s", res.Bench, "%s", res.Input.String(),
		"%s", stats.Count(res.Stats.Events), "%s", stats.Count(res.Stats.Instrs),
		"%s", stats.Count(res.Transitions), "%s", stats.Count(res.Dropped),
		"%d", len(res.Branches))
	if err := hdr.WriteText(w); err != nil {
		return err
	}
	t := stats.NewTable("branch", "transitions", "evictions", "final", "trajectory")
	for _, tl := range ordered {
		t.AddRowf("%d", uint64(tl.Branch), "%d", tl.Transitions, "%d", tl.Evictions,
			"%s", tl.Final.String(), "%s", trajectory(tl.Segments, 8))
	}
	return t.WriteText(w)
}

// SVGTimelineBranches caps how many branches the SVG shows: the most active
// ones tell the classification story; hundreds of single-transition rows
// would only compress them to invisibility.
const SVGTimelineBranches = 24

// SVGTimeline renders the state timeline as an SVG Gantt-style chart: one row
// per branch (most active at the top), one horizontal span per constant-state
// segment, colored by state via one plot series per state.
func SVGTimeline(w io.Writer, res *TimelineResult) error {
	ordered := timelineOrder(res.Branches)
	if len(ordered) > SVGTimelineBranches {
		ordered = ordered[:SVGTimelineBranches]
	}
	states := []core.State{core.Monitor, core.Biased, core.Unbiased, core.Retired}
	series := make([]plot.Series, len(states))
	for i, st := range states {
		series[i] = plot.Series{Name: st.String(), Style: plot.Segments}
	}
	for rank, tl := range ordered {
		y := float64(len(ordered) - rank) // most active branch on top
		for _, seg := range tl.Segments {
			s := &series[int(seg.State)]
			s.X = append(s.X, float64(seg.FromInstr), float64(seg.ToInstr))
			s.Y = append(s.Y, y, y)
		}
	}
	p := &plot.Plot{
		Title:  fmt.Sprintf("Controller state timeline: %s (%s)", res.Bench, res.Input),
		XLabel: "dynamic instructions",
		YLabel: "branch (by transition count)",
		Series: series,
		YMin:   0,
		YMax:   float64(len(ordered) + 1),
		YFixed: true,
	}
	return p.WriteSVG(w, 960, 480)
}
