//! The paper's qualitative claims, checked live at smoke scale. These
//! are the invariants EXPERIMENTS.md reports at full scale; here they
//! gate regressions.

use bimode_repro::analysis::{measure, Analysis};
use bimode_repro::core::{BiMode, BiModeConfig, Gshare, Predictor};
use bimode_repro::harness::search::best_gshare;
use bimode_repro::trace::{PackedTrace, Trace};
use bimode_repro::workloads::{Scale, Suite, Workload};

fn suite_traces(suite: Suite) -> Vec<Trace> {
    Workload::suite_workloads(suite)
        .iter()
        .map(|w| w.trace(Scale::Smoke))
        .collect()
}

/// One workload's smoke trace in the packed form the analyses read.
fn packed(name: &str) -> PackedTrace {
    PackedTrace::build(&Workload::by_name(name).unwrap().trace(Scale::Smoke)).unwrap()
}

fn average_rate(traces: &[Trace], mut p: impl Predictor) -> f64 {
    let sum: f64 = traces
        .iter()
        .map(|t| {
            p.reset();
            measure(t, &mut p).misprediction_rate()
        })
        .sum();
    sum / traces.len() as f64
}

/// Section 3.3 / Figure 2: every bi-mode point sits below (or at) the
/// gshare.best point at the next-smaller ladder position — the paper's
/// staggered-curve comparison (a bi-mode at 1.5x the cost of gshare(s)
/// must not lose to it).
#[test]
fn bimode_beats_next_smaller_best_gshare_on_spec_average() {
    let traces = suite_traces(Suite::SpecInt95);
    let packed: Vec<PackedTrace> = traces
        .iter()
        .map(|t| PackedTrace::build(t).unwrap())
        .collect();
    let refs: Vec<&PackedTrace> = packed.iter().collect();
    let ds = [9u32, 10, 11, 12];
    let sizes: Vec<u32> = ds.iter().map(|d| d + 1).collect();
    for (d, best) in ds.into_iter().zip(best_gshare(&refs, &sizes, None)) {
        let bimode = average_rate(&traces, BiMode::new(BiModeConfig::paper_default(d)));
        assert!(
            bimode <= best.average_rate * 1.03,
            "d={d}: bi-mode {:.2}% vs gshare.best(s={}) {:.2}%",
            100.0 * bimode,
            d + 1,
            100.0 * best.average_rate
        );
    }
}

/// Figure 3: go is by far the hardest SPEC benchmark.
#[test]
fn go_is_the_hardest_spec_benchmark() {
    let mut rates = Vec::new();
    for w in Workload::suite_workloads(Suite::SpecInt95) {
        let t = w.trace(Scale::Smoke);
        let r = measure(&t, &mut Gshare::new(12, 10)).misprediction_rate();
        rates.push((w.name(), r));
    }
    let go = rates
        .iter()
        .find(|(n, _)| *n == "go")
        .expect("go present")
        .1;
    for (name, rate) in &rates {
        if *name != "go" {
            assert!(
                go > *rate,
                "go ({go:.3}) should be harder than {name} ({rate:.3})"
            );
        }
    }
}

/// Section 4.4 / Figure 8: go's mispredictions are dominated by the
/// weakly-biased class, so more history (not de-aliasing) is the fix.
#[test]
fn go_mispredictions_are_weakly_biased_and_history_helps() {
    let t = packed("go");
    let a = Analysis::run(&t, || Gshare::new(10, 10));
    assert!(
        a.breakdown.wb_percent() > a.breakdown.st_percent() + a.breakdown.snt_percent(),
        "WB must dominate go: {:?}",
        a.breakdown
    );
    // "the error of the WB class is reduced as more global history
    // bits are applied": compare WB misprediction at m=2 vs m=12 with a
    // big table so capacity is not the limit.
    let short = Analysis::run(&t, || Gshare::new(14, 2));
    let long = Analysis::run(&t, || Gshare::new(14, 12));
    assert!(
        long.breakdown.wb_percent() < short.breakdown.wb_percent(),
        "more history must shrink go's WB error: short {:.2}% long {:.2}%",
        short.breakdown.wb_percent(),
        long.breakdown.wb_percent()
    );
}

/// Section 3.3: compress and xlisp have the fewest static branches —
/// the reason single-PHT gshare does well on them.
#[test]
fn compress_and_xlisp_have_the_fewest_statics() {
    let mut counts = Vec::new();
    for w in Workload::suite_workloads(Suite::SpecInt95) {
        let t = w.trace(Scale::Smoke);
        counts.push((w.name(), t.stats().static_conditional));
    }
    counts.sort_by_key(|(_, c)| *c);
    let smallest_two: Vec<&str> = counts[..2].iter().map(|(n, _)| *n).collect();
    assert!(
        smallest_two.contains(&"compress") && smallest_two.contains(&"xlisp"),
        "expected compress and xlisp, got {smallest_two:?} from {counts:?}"
    );
    // And gcc/real_gcc-style workloads sit at the top end.
    let gcc = counts
        .iter()
        .find(|(n, _)| *n == "gcc")
        .expect("gcc present")
        .1;
    assert!(
        gcc > 10 * counts[0].1,
        "gcc must have a far wider static spread"
    );
}

/// Section 4.2 / Figure 6: bi-mode enlarges the dominant area over the
/// history-indexed gshare while keeping the WB area comparable, on gcc.
#[test]
fn bimode_enlarges_dominant_area_on_gcc() {
    let t = packed("gcc");
    let gshare = Analysis::run(&t, || Gshare::new(8, 8));
    let bimode = Analysis::run(&t, || BiMode::new(BiModeConfig::paper_default(7)));
    let (dom_g, _, wb_g) = gshare.area_fractions();
    let (dom_b, _, wb_b) = bimode.area_fractions();
    assert!(
        dom_b > dom_g,
        "dominant area: bi-mode {dom_b:.3} vs gshare {dom_g:.3}"
    );
    assert!(
        wb_b < wb_g + 0.05,
        "WB area must stay comparable: {wb_b:.3} vs {wb_g:.3}"
    );
}

/// Table 4: bi-mode has fewer bias-class changes than the
/// history-indexed gshare on gcc.
#[test]
fn bimode_has_fewer_class_changes_on_gcc() {
    let t = packed("gcc");
    let gshare = Analysis::run(&t, || Gshare::new(8, 8));
    let bimode = Analysis::run(&t, || BiMode::new(BiModeConfig::paper_default(7)));
    assert!(
        bimode.class_changes.total() < gshare.class_changes.total(),
        "bi-mode {} vs gshare {}",
        bimode.class_changes.total(),
        gshare.class_changes.total()
    );
}

/// Section 3.3 cost accounting: the bi-mode points cost exactly 1.5x
/// the next-smaller gshare across the whole ladder.
#[test]
fn bimode_cost_is_1_5x_next_smaller_gshare_everywhere() {
    for d in 9..=16u32 {
        let bimode = BiMode::new(BiModeConfig::paper_default(d));
        let gshare = Gshare::single_pht(d + 1);
        let ratio = bimode.cost().state_bits as f64 / gshare.cost().state_bits as f64;
        assert!((ratio - 1.5).abs() < 1e-12, "d={d}: ratio {ratio}");
    }
}

/// Figure 2's qualitative IBS story holds too: bi-mode is at least
/// competitive with the larger best-gshare on the IBS average.
#[test]
fn bimode_is_competitive_on_ibs_average() {
    let traces = suite_traces(Suite::IbsUltrix);
    let packed: Vec<PackedTrace> = traces
        .iter()
        .map(|t| PackedTrace::build(t).unwrap())
        .collect();
    let refs: Vec<&PackedTrace> = packed.iter().collect();
    let bimode = average_rate(&traces, BiMode::new(BiModeConfig::paper_default(11)));
    let best = best_gshare(&refs, &[12], None).remove(0);
    assert!(
        bimode <= best.average_rate * 1.05,
        "bi-mode(d=11): {:.2}% vs best gshare(s=12): {:.2}%",
        100.0 * bimode,
        100.0 * best.average_rate
    );
}

/// Section 2.2 quantified: at matched direction-bank sizing, bi-mode
/// carries a smaller destructive share of its alias traffic than the
/// history-indexed gshare it competes with, on gcc.
#[test]
fn bimode_reduces_destructive_alias_share_on_gcc() {
    use bimode_repro::analysis::AliasReport;
    let t = packed("gcc");
    let gshare = AliasReport::measure(&t, || Gshare::new(8, 8));
    let bimode = AliasReport::measure(&t, || BiMode::new(BiModeConfig::paper_default(7)));
    assert!(
        bimode.destructive_fraction() < gshare.destructive_fraction(),
        "bi-mode {:.3} vs gshare {:.3}",
        bimode.destructive_fraction(),
        gshare.destructive_fraction()
    );
}

/// The paper's future-work direction pays off where it should: the
/// tri-mode weak bank helps most on go, the WB-dominated benchmark.
#[test]
fn trimode_beats_bimode_on_go() {
    use bimode_repro::core::{TriMode, TriModeConfig};
    let t = Workload::by_name("go").unwrap().trace(Scale::Smoke);
    let bi = measure(&t, &mut BiMode::new(BiModeConfig::paper_default(10)));
    let tri = measure(&t, &mut TriMode::new(TriModeConfig::new(10, 10, 10)));
    assert!(
        tri.misprediction_rate() < bi.misprediction_rate(),
        "tri-mode {:.3} vs bi-mode {:.3}",
        tri.misprediction_rate(),
        bi.misprediction_rate()
    );
}

/// Bi-mode re-warms faster than gshare after full state flushes (its
/// split bank initialisation plus fast choice warm-up).
#[test]
fn bimode_degrades_more_gracefully_under_flushes() {
    use bimode_repro::analysis::measure_with_flushes;
    let traces = suite_traces(Suite::SpecInt95);
    let mut g_loss = 0.0;
    let mut b_loss = 0.0;
    for t in &traces {
        let mut g = Gshare::new(12, 12);
        let mut b = BiMode::new(BiModeConfig::paper_default(11));
        let g_plain = measure(t, &mut g).misprediction_rate();
        g.reset();
        let g_flush = measure_with_flushes(t, &mut g, 5_000).misprediction_rate();
        let b_plain = measure(t, &mut b).misprediction_rate();
        b.reset();
        let b_flush = measure_with_flushes(t, &mut b, 5_000).misprediction_rate();
        g_loss += g_flush - g_plain;
        b_loss += b_flush - b_plain;
    }
    assert!(
        b_loss < g_loss,
        "bi-mode flush penalty {b_loss:.4} must undercut gshare's {g_loss:.4}"
    );
}
