#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the full-scale run output.

Usage: python3 scripts/gen_experiments.py all_output.txt EXPERIMENTS.md

Keeps the hand-written header of EXPERIMENTS.md (everything up to and
including the '## Results' line) and appends one commented section per
experiment, quoting the run output verbatim.
"""
import sys

COMMENTARY = {
    "table1": (
        "Table 1 — simulation data sets",
        "The paper's profile/evaluation input pairs, with this reproduction's "
        "scaled run lengths. The synthetic inputs model the two divergence "
        "mechanisms §2.2 identifies: reversed input-dependent predicates and "
        "code exercised by only one input.",
    ),
    "table2": (
        "Table 2 — model parameters",
        "The controller parameters in use (experiment regime) next to the "
        "paper's published values. Rate semantics — the 99.5% selection "
        "threshold and the +50/−1 counter steps — are unchanged; the "
        "count-based windows scale with the workloads (see Methodology).",
    ),
    "fig2": (
        "Figure 2 — the opportunity, and the fragility of one-shot control",
        "Per benchmark: the self-training knee at the 99% threshold, the "
        "cross-input profile (triangle), and initial-behavior training at "
        "five lengths (crosses; lengths regime-scaled from the paper's "
        "1k–1M). The paper's findings reproduce: cross-input selection loses "
        "30–45% of the knee's correct speculation on every benchmark, and on "
        "nine of them misspeculates 5.6–37× more (eon, gzip and twolf stay "
        "level); longer initial training lowers "
        "misspeculation but costs benefit; and mcf's heavy late-reversing "
        "branch (planted per §2.2) holds misspeculation near 6% at every "
        "training length — the paper reports 3% even at one million "
        "executions. `-format svg fig2` renders the full Pareto curves.",
    ),
    "fig3": (
        "Figure 3 — initially-invariant branches that change",
        "Five gap branches that are highly biased for at least their first "
        "20 blocks of 1,000 instances and then change: a complete reversal, "
        "an induction-variable flip, an oscillator, a two-phase branch, and "
        "a softening branch — the same five behavior shapes the paper plots. "
        "From the initial window alone they are indistinguishable from "
        "stably-biased branches, which is the whole problem.",
    ),
    "fig4": (
        "Figure 4 — the classifier",
        "The reactive state machine (reproduced as documentation; the "
        "implementation is internal/core).",
    ),
    "fig5": (
        "Figure 5 — reactive control vs. self-training, with sensitivity variants",
        "Per benchmark, each controller configuration's correct/incorrect "
        "rates. As in the paper, every variant except no-evict and "
        "no-revisit sits in a tight cluster near the baseline: the model is "
        "insensitive to how it is implemented, but both reactive arcs must "
        "exist. The baseline tracks (and on several benchmarks exceeds) the "
        "self-training point, because it exploits the two-phase branches "
        "self-training must reject.",
    ),
    "table3": (
        "Table 3 — model transition data",
        "The headline calibration table, measured against the published "
        "row values. Population fractions (biased%, evicted%) and "
        "speculation coverage land within a couple of points per benchmark; "
        "the suite averages are 36.7% / 3.8% / 43.9% against the paper's "
        "34.0% / 2.0% / 44.8%. Misspeculation distances are scale-compressed "
        "(see Methodology) but stay within a factor of ~3 of the paper's and "
        "keep mcf and gap shortest; eon and twolf are longest here, where "
        "the paper has twolf and crafty. One "
        "knowingly-accepted artifact: vortex's evicted% runs about double "
        "the paper's because its Figure 9 correlated population is kept "
        "heavy enough to characterize per-window, and those members get "
        "selected and evicted at their group flips.",
    ),
    "table4": (
        "Table 4 — model sensitivity",
        "Suite averages per configuration. The paper's two real outliers "
        "reproduce exactly: no-revisit is the only configuration that loses "
        "meaningful correct speculation (~15% relative, paper ~20%), and "
        "no-evict is the only one whose misspeculation rate explodes — two "
        "orders of magnitude, 3.3% here vs. the paper's 2.0%. The "
        "remaining variants differ by at most ~1 point of coverage, the "
        "paper's insensitivity claim.",
    ),
    "fig6": (
        "Figure 6 — what branches do after leaving the biased state",
        "The post-eviction misprediction-rate distribution over the 64 "
        "instances after each eviction. Most transitions soften (79% below "
        "a 30% misprediction rate; paper: over 50%) and a minority reverse "
        "perfectly (14% above 90%; paper: ~20%) — only the latter need "
        "fast reaction, which is why the model tolerates slow eviction.",
    ),
    "fig7": (
        "Figure 7 — closed vs. open loop on the MSSP machine",
        "Normalized to the superscalar baseline (B = 1.0). The eviction arc "
        "is a first-order performance effect: closed-loop geomean ~1.24 vs. "
        "open-loop ~0.96 — the open loop gives up ~23% (paper: 18%) — and it "
        "drops several benchmarks below the baseline, exactly the paper's "
        "\"difference between speedups and slow-downs\". The task-misspec "
        "columns show why: orders of magnitude more squashes without "
        "eviction. The longer 10k monitor period (C/O) compresses the gap "
        "to ~4% (paper: 11% residual) because, as §4.2 warns for short "
        "runs, a long monitor forfeits most of the speculation for both "
        "policies.",
    ),
    "fig8": (
        "Figure 8 — optimization-latency insensitivity",
        "Closed-loop MSSP performance at (re)optimization latencies of 0, "
        "10^5 and 10^6 cycles (scaled to the run length as 0 / 8k / 80k). "
        "As the paper reports, the differences are small — latency "
        "tolerance is what makes a software implementation of the "
        "controller practical.",
    ),
    "fig9": (
        "Figure 9 — correlated behavior changes (vortex)",
        "Branches with significant periods both biased and unbiased, one "
        "track per branch ('#' = characterized biased in that window). The "
        "correlated groups change together, which is why the distiller "
        "batches re-optimizations per region — the paper finds about half "
        "of re-optimizations apply more than one change (cf. the "
        "ChangesApplied/Reopts statistics in the MSSP runs).",
    ),
    "table5": (
        "Table 5 — simulated machine",
        "The CMP parameters as implemented (internal/cpu, internal/cache, "
        "internal/bpred).",
    ),
    "averaging": (
        "Extension: profile averaging (the §2.2 'data not shown')",
        "Selecting from the merged profile of K differing inputs. As the "
        "paper asserts without showing, misspeculation falls with K as "
        "input-dependent branches stop looking biased: on the nine "
        "benchmarks whose single profile misspeculates above 0.1%, K = 8 "
        "cuts it 3.6–38×, though rarely monotonically: seven of the nine "
        "rise again at some step. Coverage first grows with K, as code "
        "exercised by only one input enters the merged profile, and then "
        "the opportunity those input-dependent branches represented is "
        "forfeited: from K = 4 to K = 8 the correct rate falls on 8 of 12 "
        "benchmarks, and on all but eon and gcc the selected-branch count "
        "flattens or shrinks.",
    ),
    "flush": (
        "Extension: Dynamo-style preemptive flushing (the §5 prediction)",
        "A policy that decides from initial behavior but periodically "
        "flushes everything (the fragment-cache flush). The paper predicts "
        "it lands \"somewhere between closed-loop and open-loop\": measured, "
        "its misspeculation rate sits between the two on every benchmark, "
        "at a coverage cost from repeated retraining.",
    ),
    "generality": (
        "Extension: other program behaviors (the §2 generality claim)",
        "The same control model applied to load-value invariance (modal-"
        "value monitor, constant speculation) and memory dependences "
        "(conflict/no-conflict pairs). Both domains show the branch-study "
        "shape: reactive control comparable to self-training with a "
        "misspeculation rate two orders of magnitude below the open loop.",
    ),
    "replay": (
        "Extension: a rePLay-style frame engine (the paper's reference [4])",
        "Frames of asserted branches over the same programs. Under "
        "reactive control frames abort rarely and framing pays; open-loop "
        "assertion of changing branches aborts frames so often the engine "
        "runs slower than not framing at all — the same first-order "
        "conclusion as Figure 7 in the paper's other named consumer.",
    ),
    "tls": (
        "Extension: thread-level speculation (the paper's reference [18])",
        "Loops parallelized while their cross-iteration dependence pairs "
        "are speculated conflict-free. The reactive controller serializes "
        "loops whose dependences materialize mid-run (aliasing onset); the "
        "open loop keeps squashing epochs and surrenders most of the "
        "parallel speedup.",
    ),
    "sweep-monitor": (
        "Ablation: monitor-period sweep",
        "Around the §3.3 observation: long monitor windows forfeit "
        "coverage (45.4% at 250 executions, 44.0% at the 1,000 default, "
        "38.8% at 4,000) while the misspeculation rate stays within "
        "0.012–0.016% across the sweep, so on these workloads short windows "
        "admit no measurable extra false positives.",
    ),
    "sweep-evict": (
        "Ablation: eviction-threshold sweep",
        "Extends the paper's single lower-threshold point: smaller "
        "thresholds are more conservative (less coverage, less "
        "misspeculation). Across the 100× range coverage moves by one point "
        "(43.7–44.7%) while the misspeculation rate moves 3.4× "
        "(0.011–0.039%).",
    ),
    "sweep-wait": (
        "Ablation: revisit-wait sweep",
        "The paper's \"more frequent revisit\" trade-off as a curve: shorter "
        "waits find late-biased branches sooner (more correct) but admit "
        "more temporarily-biased false positives (more incorrect).",
    ),
    "sweep-oscillation": (
        "Ablation: oscillation-limit sweep",
        "The paper caps oscillation at five optimizations and reports the "
        "cap costs little while eliminating most re-optimization traffic; "
        "the sweep shows coverage saturating by a limit of ~2–5 (40.7% at "
        "1, 44.0% at 5, 44.2% uncapped). Past 5 the cap saves little here: "
        "uncapped, selections (≈ re-optimization requests) grow only from "
        "3,335 to 3,343.",
    ),
    "sweep-step": (
        "Ablation: counter-step sweep",
        "The +50 misspeculation step sets the eviction bias (step ratio "
        "≈ 2% misprediction); halving or doubling it moves coverage by "
        "under a point and the misspeculation rate from 0.0156% to 0.0215% "
        "(halved) or 0.0128% (doubled) — consistent with §3.3's "
        "insensitivity.",
    ),
    "sweep-threshold": (
        "Ablation: selection-threshold sweep",
        "Stricter selection thresholds trade coverage for purity along the "
        "same Pareto front the self-training curve traces.",
    ),
    "sweep-task": (
        "Ablation: task-granularity sweep (the §4.3 folding effect)",
        "Longer MSSP tasks fold more individual violations into each task "
        "squash: the violations-per-misspec ratio grows steadily with task "
        "length while performance stays flat — the machine's misspeculation "
        "rate undershoots the abstract model, as the paper observes.",
    ),
    "sweep-slaves": (
        "Ablation: trailing-core-count sweep",
        "With one trailing core, verification bandwidth throttles the "
        "master on compute-bound programs; by two to four cores the "
        "Table 5 machine is verification-rich, and further cores mostly "
        "add shared-L2 and coherence traffic.",
    ),
    "policies": (
        "Extension: the three registered control policies",
        "Every policy in internal/core's registry over the calibrated "
        "workloads. `selftrain` is the §2 one-shot classifier run online "
        "(one monitoring window, then a permanent verdict): it keeps 90% of "
        "the reactive coverage (39.5% vs 43.9%) at 166× its misspeculation "
        "rate (3.28% vs 0.0197%). `probweight` (EWMA confidence, same "
        "thresholds) is the conservative corner: 38% of the reactive "
        "misspeculation rate (0.0074%) for 65% of its coverage (28.5%).",
    ),
    "chaos": (
        "Extension: Figure 5 under injected faults",
        "One intensity knob scales all five fault classes at once (outcome "
        "flips at 15% × intensity, drop and duplication at 10% × intensity, storms, "
        "branch-ID scrambling, truncation); profiles come from clean "
        "streams. At 0.05 the reactive controller still misspeculates less "
        "than either profile-driven mechanism (0.17% vs 0.48% and 0.70%) "
        "but its coverage more than halves (43.9% → 19.8%). From 0.10 up it "
        "hardly speculates at all (0.99%, then 0%): a 1,000-execution "
        "monitor window passes the 99.5% selection test with at most 5 "
        "mispredictions, and a 1.5% flip rate puts 15 in an average window. "
        "Initial-behavior training (99% over its window) stops selecting "
        "the same way. The "
        "profile-driven mechanisms keep their coverage and pay for it in "
        "misspeculation, which grows with intensity to 5.3% (self-train) "
        "and 3.6% (previous profile) at 0.8.",
    ),
    "timeline": (
        "Extension: one benchmark through the controller's eyes",
        "Every classification transition of gcc's eval run, one row per "
        "branch, most active first. Most branches make one or three "
        "transitions and settle; a handful of changers (branch 3177: 36 "
        "transitions, 29 of them after the eighth) carry the revisits and "
        "evictions. `-format csv` gives the constant-state spans and "
        "`-format svg` the Gantt chart.",
    ),
    "describe": (
        "Workload audit",
        "The class composition of a workload population (gcc shown): the "
        "calibrated tiers and planted behavior classes that make the "
        "substitution argument auditable.",
    ),
}

ORDER_HEADER = "## Results"


def main(inp, outp):
    text = open(inp, encoding="utf-8").read()
    sections = []
    cur_name, cur_lines = None, []
    for line in text.splitlines():
        if line.startswith("=== ") and line.rstrip().endswith(" ==="):
            if cur_name:
                sections.append((cur_name, "\n".join(cur_lines).strip("\n")))
            cur_name = line.strip().strip("= ").strip()
            cur_lines = []
        elif cur_name:
            cur_lines.append(line)
    if cur_name:
        sections.append((cur_name, "\n".join(cur_lines).strip("\n")))

    head = open(outp, encoding="utf-8").read()
    idx = head.index(ORDER_HEADER)
    head = head[: idx + len(ORDER_HEADER)]
    head += (
        "\n\nThe sections below quote the full-scale run (seed 0). Each is"
        "\nregenerated by the named CLI experiment.\n"
    )

    out = [head]
    for name, body in sections:
        title, comment = COMMENTARY.get(name, (name, ""))
        out.append(f"\n### {title}\n\n")
        out.append(f"`reactivespec {name}`\n\n")
        if comment:
            out.append(comment + "\n\n")
        out.append("```\n" + body + "\n```\n")
    open(outp, "w", encoding="utf-8").write("".join(out))
    print(f"wrote {outp}: {len(sections)} sections")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
