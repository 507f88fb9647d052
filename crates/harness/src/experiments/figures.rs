//! Figures 2–8 of the paper.

use bpred_analysis::Analysis;
use bpred_core::{BiMode, BiModeConfig, Gshare, PredictorSpec};
use bpred_trace::PackedTrace;
use bpred_workloads::Suite;

use crate::experiments::{kib, pct};
use crate::format::{Report, Table};
use crate::store::{self, JobSpec};
use crate::sweep::{self, Scheme, SweepPoint};
use crate::traces::TraceSet;

/// A two-pass gshare(`s`, `m`) analysis, served from the result store
/// when the (spec, trace) job is warm.
fn gshare_analysis(trace: &PackedTrace, table_bits: u32, history_bits: u32) -> Analysis {
    let spec = PredictorSpec::Gshare {
        table_bits,
        history_bits,
    };
    store::cached_analysis(JobSpec::twopass(&spec).job(trace.digest()), || {
        Analysis::run(trace, || Gshare::new(table_bits, history_bits))
    })
}

/// A two-pass paper-default bi-mode analysis, store-served when warm.
fn bimode_analysis(trace: &PackedTrace, direction_bits: u32) -> Analysis {
    let config = BiModeConfig::paper_default(direction_bits);
    let spec = PredictorSpec::BiMode(config);
    store::cached_analysis(JobSpec::twopass(&spec).job(trace.digest()), || {
        Analysis::run(trace, || BiMode::new(config))
    })
}

fn curve_table(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(["scheme", "config", "size KB", "misprediction %"]);
    for p in points {
        t.push_row([
            p.scheme.label().to_owned(),
            p.config.clone(),
            kib(p.kib),
            pct(p.average_rate()),
        ]);
    }
    t
}

/// Figure 2: suite-averaged misprediction vs predictor size for
/// gshare.1PHT, gshare.best and bi-mode, on SPEC CINT95 and IBS.
#[must_use]
pub fn fig2(set: &TraceSet, jobs: Option<usize>) -> Report {
    let mut report = Report::new(
        "fig2",
        "Figure 2: averaged misprediction rates vs predictor size",
    );
    report.note(format!("Scale: {}.", set.scale()));
    for (suite, label) in [
        (Suite::SpecInt95, "CINT95-AVERAGE"),
        (Suite::IbsUltrix, "IBS-AVERAGE"),
    ] {
        let traces: Vec<&PackedTrace> = set.suite(suite).map(|(_, t)| t).collect();
        let points = sweep::sweep_all(&traces, jobs);
        report.section(label, curve_table(&points));

        // The paper's headline: bi-mode under the gshare curves.
        let verdict = verdict_bimode_wins(&points);
        report.note(format!("{label}: {verdict}"));
    }
    report
}

/// Compares bi-mode points against gshare.best at the next-larger cost.
fn verdict_bimode_wins(points: &[SweepPoint]) -> String {
    let best: Vec<&SweepPoint> = points
        .iter()
        .filter(|p| p.scheme == Scheme::GshareBest)
        .collect();
    let bimode: Vec<&SweepPoint> = points
        .iter()
        .filter(|p| p.scheme == Scheme::BiMode)
        .collect();
    let mut wins = 0;
    let mut comparisons = 0;
    for bm in &bimode {
        // Compare against the cheapest gshare.best point costing at
        // least as much as the bi-mode point.
        if let Some(g) = best
            .iter()
            .filter(|g| g.kib >= bm.kib - 1e-9)
            .min_by(|a, b| a.kib.partial_cmp(&b.kib).expect("finite"))
        // panic-audited: state_kib() is a finite structural size, never NaN
        {
            comparisons += 1;
            if bm.average_rate() <= g.average_rate() {
                wins += 1;
            }
        }
    }
    format!("bi-mode beats the >= -cost gshare.best at {wins}/{comparisons} points")
}

/// Figures 3 and 4: per-benchmark curves for one suite.
#[must_use]
pub fn fig34(set: &TraceSet, suite: Suite, jobs: Option<usize>) -> Report {
    let (id, title) = match suite {
        Suite::SpecInt95 => ("fig3", "Figure 3: misprediction rates, SPEC CINT95"),
        Suite::IbsUltrix => ("fig4", "Figure 4: misprediction rates, IBS-Ultrix"),
        Suite::SimKernels => ("figX", "per-benchmark misprediction rates, sim kernels"),
    };
    let mut report = Report::new(id, title);
    report.note(
        "gshare.best uses the configuration that wins the suite average, \
         applied to each benchmark (as in the paper), not a per-benchmark best.",
    );
    let (names, traces): (Vec<&str>, Vec<&PackedTrace>) =
        set.suite(suite).map(|(w, t)| (w.name(), t)).unzip();
    let points = sweep::sweep_all(&traces, jobs);
    for (i, name) in names.iter().enumerate() {
        let mut t = Table::new(["scheme", "config", "size KB", "misprediction %"]);
        for p in &points {
            t.push_row([
                p.scheme.label().to_owned(),
                p.config.clone(),
                kib(p.kib),
                pct(p.rates[i]),
            ]);
        }
        report.section((*name).to_owned(), t);
    }
    report
}

fn per_counter_sections(report: &mut Report, caption: &str, analysis: &Analysis) {
    let (dom, non, wb) = analysis.area_fractions();
    let mut areas = Table::new(["region", "area %"]);
    areas.push_row(["dominant".to_owned(), pct(dom)]);
    areas.push_row(["non-dominant".to_owned(), pct(non)]);
    areas.push_row(["WB".to_owned(), pct(wb)]);
    report.section(format!("{caption}: area fractions"), areas);

    let mut t = Table::new(["rank", "counter", "dominant %", "non-dominant %", "WB %"]);
    for (rank, (counter, bias)) in analysis.sorted_for_figure().into_iter().enumerate() {
        let (d, n, w) = bias.normalized();
        t.push_row([
            (rank + 1).to_string(),
            counter.to_string(),
            pct(d),
            pct(n),
            pct(w),
        ]);
    }
    report.section(
        format!("{caption}: per-counter breakdown (sorted by WB)"),
        t,
    );
}

/// Figure 5: bias breakdown of the history-indexed (8 addr ⊕ 8 hist)
/// and address-indexed (8 addr ⊕ 2 hist) gshare schemes on gcc, 256
/// counters.
///
/// # Panics
///
/// Panics if the trace set lacks the `gcc` workload.
#[must_use]
pub fn fig5(set: &TraceSet) -> Report {
    let trace = set.trace("gcc").expect("figure 5 needs the gcc trace"); // panic-audited: paper trace sets always include gcc; documented panic
    let mut report = Report::new(
        "fig5",
        "Figure 5: bias breakdown for gshare on gcc (256 counters)",
    );
    let history = gshare_analysis(trace, 8, 8);
    let address = gshare_analysis(trace, 8, 2);
    per_counter_sections(&mut report, "history-indexed gshare(8,8)", &history);
    per_counter_sections(&mut report, "address-indexed gshare(8,2)", &address);

    let (_, _, wb_hist) = history.area_fractions();
    let (_, non_hist, _) = history.area_fractions();
    let (_, non_addr, wb_addr) = address.area_fractions();
    report.note(format!(
        "{}: history-indexed WB area ({}) {} address-indexed WB area ({}).",
        if wb_hist <= wb_addr {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        },
        pct(wb_hist),
        if wb_hist <= wb_addr { "<=" } else { ">" },
        pct(wb_addr),
    ));
    report.note(format!(
        "{}: history-indexed non-dominant area ({}) {} address-indexed ({}).",
        if non_hist >= non_addr {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        },
        pct(non_hist),
        if non_hist >= non_addr { ">=" } else { "<" },
        pct(non_addr),
    ));
    report
}

/// Figure 6: bias breakdown for the bi-mode scheme (128-counter choice,
/// two 128-counter direction banks) on gcc.
///
/// # Panics
///
/// Panics if the trace set lacks the `gcc` workload.
#[must_use]
pub fn fig6(set: &TraceSet) -> Report {
    let trace = set.trace("gcc").expect("figure 6 needs the gcc trace"); // panic-audited: paper trace sets always include gcc; documented panic
    let mut report = Report::new(
        "fig6",
        "Figure 6: bias breakdown for bi-mode on gcc (2x128 + 128)",
    );
    let bimode = bimode_analysis(trace, 7);
    per_counter_sections(&mut report, "bi-mode(d=7,c=7,h=7)", &bimode);

    // Compare against the same-order gshare from Figure 5.
    let history = gshare_analysis(trace, 8, 8);
    let (dom_b, _, wb_b) = bimode.area_fractions();
    let (dom_g, _, wb_g) = history.area_fractions();
    report.note(format!(
        "{}: bi-mode dominant area ({}) {} history-indexed gshare ({}), \
         WB kept comparable ({} vs {}).",
        if dom_b >= dom_g {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        },
        pct(dom_b),
        if dom_b >= dom_g { ">=" } else { "<" },
        pct(dom_g),
        pct(wb_b),
        pct(wb_g),
    ));
    report
}

/// The (size, address-indexed m, history-indexed m, bi-mode d) grid of
/// Figures 7 and 8.
const FIG78_CONFIGS: [(u32, u32, u32, u32); 3] = [(8, 2, 8, 7), (10, 2, 10, 9), (15, 4, 15, 14)];

/// Figures 7 and 8: misprediction contributed by the three bias
/// classes, for three second-level sizes (256, 1K, 32K counters).
///
/// # Panics
///
/// Panics if the trace set lacks the requested workload.
#[must_use]
pub fn fig78(set: &TraceSet, workload: &str) -> Report {
    let (id, figure) = match workload {
        "gcc" => ("fig7", "Figure 7"),
        "go" => ("fig8", "Figure 8"),
        other => (
            "fig78",
            Box::leak(format!("Figure 7/8 analogue ({other})").into_boxed_str()) as &str,
        ),
    };
    let trace = set
        .trace(workload)
        .unwrap_or_else(|| panic!("figure needs the `{workload}` trace"));
    let mut report = Report::new(
        id,
        format!("{figure}: misprediction by bias class ({workload})"),
    );
    let mut t = Table::new(["counters", "scheme", "SNT %", "ST %", "WB %", "total %"]);
    for (s, m_addr, m_hist, d) in FIG78_CONFIGS {
        let size_label = match s {
            8 => "256",
            10 => "1K",
            _ => "32K",
        };
        let addr = gshare_analysis(trace, s, m_addr);
        let hist = gshare_analysis(trace, s, m_hist);
        let bimode = bimode_analysis(trace, d);
        for (name, a) in [
            (format!("gshare({m_addr})"), &addr),
            (format!("gshare({m_hist})"), &hist),
            (format!("bi-mode({d})"), &bimode),
        ] {
            t.push_row([
                size_label.to_owned(),
                name,
                format!("{:.2}", a.breakdown.snt_percent()),
                format!("{:.2}", a.breakdown.st_percent()),
                format!("{:.2}", a.breakdown.wb_percent()),
                format!("{:.2}", a.breakdown.total_percent()),
            ]);
        }
    }
    report.note(
        "Row semantics: percent of ALL dynamic conditional branches \
         mispredicted within substreams of each class; the three columns \
         sum to the total misprediction rate (the paper's stacked bars).",
    );
    report.section("misprediction breakdown", t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_workloads::{Scale, Workload};

    fn gcc_go_set() -> TraceSet {
        TraceSet::of(
            vec![
                Workload::by_name("gcc").unwrap(),
                Workload::by_name("go").unwrap(),
            ],
            Scale::Smoke,
            Some(2),
        )
    }

    #[test]
    fn fig5_has_256_counter_rows_per_scheme() {
        let r = fig5(&gcc_go_set());
        // sections: areas + per-counter for two schemes.
        assert_eq!(r.sections.len(), 4);
        assert_eq!(r.sections[1].1.len(), 256);
        assert_eq!(r.sections[3].1.len(), 256);
    }

    #[test]
    fn fig5_reproduces_the_wb_area_contrast() {
        let r = fig5(&gcc_go_set());
        let reproduced = r
            .notes
            .iter()
            .filter(|n| n.starts_with("REPRODUCED"))
            .count();
        assert!(
            reproduced >= 1,
            "at least the WB-area claim should reproduce: {r}"
        );
    }

    #[test]
    fn fig6_dominant_area_beats_gshare() {
        let r = fig6(&gcc_go_set());
        assert!(
            r.notes.iter().any(|n| n.starts_with("REPRODUCED")),
            "bi-mode must enlarge the dominant area on gcc: {r}"
        );
        assert_eq!(r.sections[1].1.len(), 256);
    }

    #[test]
    fn fig78_rows_cover_three_sizes_and_schemes() {
        let r = fig78(&gcc_go_set(), "go");
        assert_eq!(r.id, "fig8");
        let t = &r.sections[0].1;
        assert_eq!(t.len(), 9);
        let csv = t.to_csv();
        assert!(csv.contains("bi-mode(14)"));
        assert!(csv.contains("gshare(4)"));
    }

    #[test]
    fn fig8_wb_dominates_for_go() {
        // Section 4.4: for go the WB class dominates the misprediction
        // breakdown in every scheme at the small sizes.
        let set = gcc_go_set();
        let trace = set.trace("go").unwrap();
        let a = Analysis::run(trace, || Gshare::new(8, 8));
        assert!(
            a.breakdown.wb_percent() > a.breakdown.st_percent()
                && a.breakdown.wb_percent() > a.breakdown.snt_percent(),
            "WB must dominate go's mispredictions: {:?}",
            a.breakdown
        );
    }
}
