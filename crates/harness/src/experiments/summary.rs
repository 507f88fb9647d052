//! The reproduction scoreboard: every headline claim of the paper,
//! recomputed live at the current scale and judged REPRODUCED or NOT.
//! This is the machine-checked version of EXPERIMENTS.md's summary
//! table.

use bpred_analysis::{AliasReport, Analysis};
use bpred_core::{BiModeConfig, PredictorSpec};
use bpred_trace::PackedTrace;
use bpred_workloads::Suite;

use crate::engine::{self, Rate};
use crate::experiments::pct;
use crate::format::{Report, Table};
use crate::search::{best_gshare, BestGshare};
use crate::store::{self, JobSpec};
use crate::traces::TraceSet;

/// A two-pass analysis job, served from the result store when warm.
fn analysis_of(trace: &PackedTrace, spec: &PredictorSpec) -> Analysis {
    store::cached_analysis(JobSpec::twopass(spec).job(trace.digest()), || {
        Analysis::run(trace, || spec.build())
    })
}

/// An alias-taxonomy job, served from the result store when warm.
fn alias_of(trace: &PackedTrace, spec: &PredictorSpec) -> AliasReport {
    store::cached_alias(JobSpec::alias(spec).job(trace.digest()), || {
        AliasReport::measure(trace, || spec.build())
    })
}

/// The suite-average rate of the `gshare.best` winner with a `2^s`
/// table, looked up by its size.
fn best_at(best: &[BestGshare], table_bits: u32) -> f64 {
    best.iter()
        .find(|b| b.table_bits == table_bits)
        .map(|b| b.average_rate)
        .expect("the summary searches every size its claims read") // panic-audited: `sizes` lists d + 1 for every checked d, and 17
}

struct Scoreboard {
    table: Table,
    reproduced: usize,
    total: usize,
}

impl Scoreboard {
    fn new() -> Self {
        Self {
            table: Table::new(["claim (paper section)", "measured", "verdict"]),
            reproduced: 0,
            total: 0,
        }
    }

    fn check(&mut self, claim: &str, measured: String, holds: bool) {
        self.total += 1;
        self.reproduced += usize::from(holds);
        self.table.push_row([
            claim.to_owned(),
            measured,
            if holds {
                "REPRODUCED"
            } else {
                "NOT reproduced"
            }
            .to_owned(),
        ]);
    }
}

/// Recomputes and judges the paper's headline claims.
///
/// # Panics
///
/// Panics if the trace set lacks the `gcc` or `go` workloads.
#[must_use]
pub fn summary(set: &TraceSet, jobs: Option<usize>) -> Report {
    let mut report = Report::new(
        "summary",
        "Reproduction scoreboard: the paper's claims, recomputed",
    );
    report.note(format!("Scale: {}.", set.scale()));
    let mut board = Scoreboard::new();

    let traces_of = |suite| -> Vec<&PackedTrace> { set.suite(suite).map(|(_, t)| t).collect() };
    let spec = traces_of(Suite::SpecInt95);
    let ibs = traces_of(Suite::IbsUltrix);
    let gcc = set.trace("gcc").expect("summary needs gcc"); // panic-audited: paper trace sets always include gcc; documented panic
    let go = set.trace("go").expect("summary needs go"); // panic-audited: paper trace sets always include go; documented panic
    let bimode = |d| Rate::Plain(PredictorSpec::BiMode(BiModeConfig::paper_default(d)));

    // gshare.best at the size above each bi-mode point checked below,
    // and at 32 KB: one search per suite.
    let ds = [9u32, 11, 13];
    let sizes: Vec<u32> = ds.iter().map(|d| d + 1).chain([17]).collect();
    let suites = [("SPEC", &spec), ("IBS", &ibs)]
        .map(|(name, traces)| (name, traces, best_gshare(traces, &sizes, jobs)));

    // -- Figure 2: bi-mode vs the next-smaller best gshare, per suite --
    for (suite_name, traces, best) in &suites {
        let mut wins = 0;
        let mut detail = Vec::new();
        let points: Vec<Rate> = ds.iter().map(|&d| bimode(d)).collect();
        let rates = engine::cached_rates(traces, jobs, &points);
        for (&d, rates) in ds.iter().zip(&rates) {
            let bm = engine::average(rates);
            let gs = best_at(best, d + 1);
            wins += usize::from(bm <= gs * 1.01);
            detail.push(format!("d={d}: {} vs {}", pct(bm), pct(gs)));
        }
        board.check(
            &format!("Fig 2 ({suite_name}): bi-mode <= next-smaller gshare.best"),
            detail.join("; "),
            wins == ds.len(),
        );
    }

    // -- Figure 2: the half-the-size-at-4KB+ claim --
    for (suite_name, traces, best) in &suites {
        let bm12 = engine::average(&engine::cached_rates(traces, jobs, &[bimode(14)])[0]);
        let gs32 = best_at(best, 17);
        board.check(
            &format!("Fig 2 ({suite_name}): bi-mode@12KB beats gshare.best@32KB"),
            format!("{} vs {}", pct(bm12), pct(gs32)),
            bm12 <= gs32,
        );
    }

    // -- Figure 3: go is the hardest SPEC benchmark --
    let gshare_12_10 = Rate::Plain(PredictorSpec::Gshare {
        table_bits: 12,
        history_bits: 10,
    });
    let spec_rates = engine::cached_rates(&spec, jobs, &[gshare_12_10]);
    let mut rates: Vec<(&str, f64)> = set
        .suite(Suite::SpecInt95)
        .map(|(w, _)| w.name())
        .zip(spec_rates[0].iter().copied())
        .collect();
    rates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite")); // panic-audited: misprediction rates are finite ratios, never NaN
    board.check(
        "Fig 3/8: go is the hardest SPEC benchmark",
        format!("hardest = {} at {}", rates[0].0, pct(rates[0].1)),
        rates[0].0 == "go",
    );

    // -- Figure 8: WB dominates go's mispredictions --
    let go_analysis = analysis_of(
        go,
        &PredictorSpec::Gshare {
            table_bits: 10,
            history_bits: 10,
        },
    );
    board.check(
        "Fig 8 (§4.4): WB class dominates go's mispredictions",
        format!(
            "WB {} vs ST+SNT {}",
            pct(go_analysis.breakdown.wb_percent() / 100.0),
            pct((go_analysis.breakdown.st_percent() + go_analysis.breakdown.snt_percent()) / 100.0)
        ),
        go_analysis.breakdown.wb_percent()
            > go_analysis.breakdown.st_percent() + go_analysis.breakdown.snt_percent(),
    );

    // -- Table 2 / §3.3: compress and xlisp have the fewest statics --
    let mut statics: Vec<(&str, usize)> = set
        .suite(Suite::SpecInt95)
        .map(|(w, t)| (w.name(), t.stats().static_conditional))
        .collect();
    statics.sort_by_key(|(_, c)| *c);
    let smallest: Vec<&str> = statics[..2].iter().map(|(n, _)| *n).collect();
    board.check(
        "§3.3: compress & xlisp have the fewest static branches",
        format!("{statics:?}"),
        smallest.contains(&"compress") && smallest.contains(&"xlisp"),
    );

    // -- Table 4: fewer bias-class changes for bi-mode on gcc --
    let gshare_gcc = analysis_of(
        gcc,
        &PredictorSpec::Gshare {
            table_bits: 8,
            history_bits: 8,
        },
    );
    let bimode_gcc = analysis_of(gcc, &PredictorSpec::BiMode(BiModeConfig::paper_default(7)));
    board.check(
        "Table 4: bi-mode has fewer bias-class changes (gcc)",
        format!(
            "{} vs {}",
            bimode_gcc.class_changes.total(),
            gshare_gcc.class_changes.total()
        ),
        bimode_gcc.class_changes.total() < gshare_gcc.class_changes.total(),
    );

    // -- Figures 5/6: WB and dominant-area contrasts on gcc --
    let address_gcc = analysis_of(
        gcc,
        &PredictorSpec::Gshare {
            table_bits: 8,
            history_bits: 2,
        },
    );
    let (dom_h, _, wb_h) = gshare_gcc.area_fractions();
    let (_, _, wb_a) = address_gcc.area_fractions();
    board.check(
        "Fig 5: history-indexed WB area <= address-indexed",
        format!("{} vs {}", pct(wb_h), pct(wb_a)),
        wb_h <= wb_a,
    );
    let (dom_b, _, _) = bimode_gcc.area_fractions();
    board.check(
        "Fig 6: bi-mode dominant area >= history-indexed gshare",
        format!("{} vs {}", pct(dom_b), pct(dom_h)),
        dom_b >= dom_h,
    );

    // -- §2.2: smaller destructive alias share --
    let alias_g = alias_of(
        gcc,
        &PredictorSpec::Gshare {
            table_bits: 8,
            history_bits: 8,
        },
    );
    let alias_b = alias_of(gcc, &PredictorSpec::BiMode(BiModeConfig::paper_default(7)));
    board.check(
        "§2.2: bi-mode carries a smaller destructive alias share (gcc)",
        format!(
            "{} vs {}",
            pct(alias_b.destructive_fraction()),
            pct(alias_g.destructive_fraction())
        ),
        alias_b.destructive_fraction() < alias_g.destructive_fraction(),
    );

    // -- §5 future work: tri-mode helps on go --
    let tri = Rate::Plain(PredictorSpec::TriMode {
        direction_bits: 10,
        choice_bits: 10,
        history_bits: 10,
    });
    let go_rates = engine::cached_rates(&[go], jobs, &[bimode(10), tri]);
    let (bi_go, tri_go) = (engine::average(&go_rates[0]), engine::average(&go_rates[1]));
    board.check(
        "§5 (extension): tri-mode beats bi-mode on go",
        format!("{} vs {}", pct(tri_go), pct(bi_go)),
        tri_go < bi_go,
    );

    report.note(format!(
        "{} of {} claims reproduced at this scale.",
        board.reproduced, board.total
    ));
    report.section("scoreboard", board.table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_workloads::{Scale, Workload};

    #[test]
    fn scoreboard_runs_and_mostly_reproduces_at_smoke_scale() {
        let mut workloads = Workload::suite_workloads(Suite::SpecInt95);
        workloads.extend(Workload::suite_workloads(Suite::IbsUltrix));
        let set = TraceSet::of(workloads, Scale::Smoke, None);
        let report = summary(&set, None);
        let table = &report.sections[0].1;
        assert!(table.len() >= 11, "all claims present, got {}", table.len());
        let csv = table.to_csv();
        let reproduced = csv.matches(",REPRODUCED").count();
        assert!(
            reproduced * 10 >= table.len() * 7,
            "at least 70% of claims should reproduce even at smoke scale: {csv}"
        );
    }

    #[test]
    fn fig2_claims_read_gshare_best_at_their_sizes() {
        let mut workloads = Workload::suite_workloads(Suite::SpecInt95);
        workloads.extend(Workload::suite_workloads(Suite::IbsUltrix));
        let set = TraceSet::of(workloads, Scale::Smoke, None);
        let report = summary(&set, None);
        let table = &report.sections[0].1;
        let csv = table.to_csv();
        // The measured column of the row whose claim starts `claim`.
        let measured = |claim: &str| -> String {
            let row = csv
                .lines()
                .find(|line| line.starts_with(claim))
                .unwrap_or_else(|| panic!("no `{claim}` row in {csv}"));
            row[claim.len()..]
                .split(',')
                .nth(1)
                .unwrap_or_else(|| panic!("no measured column in `{row}`"))
                .to_owned()
        };
        for (name, suite) in [("SPEC", Suite::SpecInt95), ("IBS", Suite::IbsUltrix)] {
            let traces: Vec<&PackedTrace> = set.suite(suite).map(|(_, t)| t).collect();
            let best = |s: u32| pct(best_gshare(&traces, &[s], None)[0].average_rate);
            // "bi-mode@12KB beats gshare.best@32KB" reads the 2^17 winner.
            let half = measured(&format!("Fig 2 ({name}): bi-mode@12KB"));
            assert!(
                half.ends_with(&format!(" vs {}", best(17))),
                "{name}: {half}"
            );
            // Each next-smaller claim at d reads the 2^(d+1) winner.
            let next = measured(&format!("Fig 2 ({name}): bi-mode <= next-smaller"));
            for (detail, d) in next.split("; ").zip([9u32, 11, 13]) {
                assert!(
                    detail.starts_with(&format!("d={d}: "))
                        && detail.ends_with(&format!(" vs {}", best(d + 1))),
                    "{name}: `{detail}` must compare against gshare.best at 2^{}",
                    d + 1
                );
            }
        }
    }
}
