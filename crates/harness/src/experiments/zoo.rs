//! `zoo.cost`: the predictor zoo on the paper's cost axis.
//!
//! The bi-mode paper argues that at a fixed hardware budget,
//! de-aliasing (splitting the PHT by bias) beats spending the same
//! bits on a bigger aliased table. Later predictors attack the same
//! aliasing problem differently: TAGE filters aliases with partial
//! tags, the perceptron sidesteps the PHT entirely with per-branch
//! weight vectors, and a confidence-gated cascade composes cheap and
//! expensive stages so only hard branches pay for the big structure.
//! This experiment puts all of them on the paper's own size ladder
//! (Figures 2-4: 0.25 KB to 32 KB of predictor state) at matched
//! budgets and asks the headline question: *does bias-based
//! de-aliasing still buy anything once tagging exists?*
//!
//! Sizing at gshare budget `s` (state cost `2 * 2^s` bits):
//!
//! * `gshare:s,h=s` — the aliased baseline, exactly on the ladder;
//! * `bimode` at `d=s-1` — the paper's own staggered point (1.5x);
//! * `tage:t=4,e=s-3` — `(2 + 3*4) * 2^(s-3)` bits = 0.875x;
//! * `perceptron:n=s-6,h=16` — `8*16 * 2^(s-6)` bits = exactly 1x;
//! * `cascade` of a quarter-size bimodal into a two-table tage —
//!   about 1.5x plus the 64-entry gate table.
//!
//! Exact KB is printed per row; every point is planned as a store job
//! through [`engine::cached_rates`], so the sliced lanes (gshare) and
//! the boxed batch (bi-mode and the zoo) share one key space and
//! repeat runs are served entirely from the store.

use bpred_core::cost::paper_size_ladder;
use bpred_core::{BiModeConfig, Perceptron, PredictorSpec};

use crate::engine::{self, Rate};
use crate::experiments::{kib, pct};
use crate::format::{Report, Table};
use crate::traces::TraceSet;

/// Families per ladder point in [`zoo_cost`]'s grid.
const ZOO_FAMILIES: usize = 5;

/// The five contenders at gshare budget `s` (see the module docs for
/// the sizing arithmetic). History lengths scale with the budget and
/// saturate at the 63-bit register width.
fn zoo_specs(s: u32) -> Vec<PredictorSpec> {
    debug_assert!(s >= 10, "the ladder starts at 0.25 KB");
    debug_assert_eq!(ZOO_FAMILIES, 5);
    vec![
        PredictorSpec::Gshare {
            table_bits: s,
            history_bits: s,
        },
        PredictorSpec::BiMode(BiModeConfig::paper_default(s - 1)),
        PredictorSpec::Tage {
            tables: 4,
            max_history: 63.min(1 << (s - 5)),
            tag_bits: 8,
            entry_bits: s - 3,
        },
        PredictorSpec::Perceptron {
            rows_bits: s - 6,
            history_bits: 16,
            theta: Perceptron::default_theta(16),
        },
        PredictorSpec::Cascade(vec![
            PredictorSpec::Bimodal { table_bits: s - 2 },
            PredictorSpec::Tage {
                tables: 2,
                max_history: 63.min(1 << (s - 6)),
                tag_bits: 6,
                entry_bits: s - 3,
            },
        ]),
    ]
}

/// The zoo shoot-out: one section per ladder point, five matched-budget
/// contenders each, with the tagging-vs-de-aliasing headline judged on
/// the largest budget's suite averages.
#[must_use]
pub fn zoo_cost(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new(
        "zoo.cost",
        "Predictor zoo: tagged, neural, and gated schemes on the bi-mode cost axis",
    );
    report.note(
        "Costs are bytes of predictor state (paper accounting); tags, \
         useful bits, and histories are metadata, reported separately \
         by each scheme's cost() and excluded here exactly as the paper \
         excludes them for its own schemes.",
    );
    let ladder = paper_size_ladder();
    let grid: Vec<PredictorSpec> = ladder.iter().flat_map(|&(s, _)| zoo_specs(s)).collect();
    let points: Vec<Rate> = grid.iter().cloned().map(Rate::Plain).collect();
    let rates = engine::cached_rates(&traces, jobs, &points);

    let avg = |point: usize, family: usize| engine::average(&rates[point * ZOO_FAMILIES + family]);
    for (point, &(s, budget_kib)) in ladder.iter().enumerate() {
        let mut t = Table::new(["scheme", "size KB", "misprediction %"]);
        for family in 0..ZOO_FAMILIES {
            let p = grid[point * ZOO_FAMILIES + family].build();
            t.push_row([p.name(), kib(p.cost().state_kib()), pct(avg(point, family))]);
        }
        report.section(format!("budget {} KB (gshare s={s})", kib(budget_kib)), t);
    }

    // The headline, judged at the largest budget: how much the paper's
    // de-aliasing buys over the aliased baseline, vs how much tagging
    // buys over both.
    let top = ladder.len() - 1;
    let (gshare, bimode, tage) = (avg(top, 0), avg(top, 1), avg(top, 2));
    report.note(format!(
        "Headline at {} KB: gshare {}%, bi-mode {}%, tage {}%. \
         De-aliasing buys {} points over the aliased baseline; tagging \
         buys {} points on top of de-aliasing ({}).",
        kib(ladder[top].1),
        pct(gshare),
        pct(bimode),
        pct(tage),
        pct(gshare - bimode),
        pct(bimode - tage),
        if tage < bimode {
            "bias-splitting alone no longer wins once tags exist"
        } else {
            "bias-splitting still holds its own against tags"
        },
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_check::registry::structural_state_bits;
    use bpred_workloads::{Scale, Workload};

    #[test]
    fn the_grid_is_equal_cost_by_construction() {
        for (s, _) in paper_size_ladder() {
            let specs = zoo_specs(s);
            assert_eq!(specs.len(), ZOO_FAMILIES);
            let gshare_bits = structural_state_bits(&specs[0]);
            // The perceptron lands exactly on the gshare budget; every
            // other family stays within the paper's own 1.5x stagger.
            assert_eq!(structural_state_bits(&specs[3]), gshare_bits, "s={s}");
            for spec in &specs {
                let bits = structural_state_bits(spec);
                let ratio = bits as f64 / gshare_bits as f64;
                assert!(
                    (0.5..=1.6).contains(&ratio),
                    "{spec} is {ratio}x the budget at s={s}"
                );
            }
        }
    }

    #[test]
    fn report_covers_every_ladder_point_and_judges_the_headline() {
        let set = TraceSet::of(
            vec![Workload::by_name("gcc").unwrap()],
            Scale::Smoke,
            Some(2),
        );
        let r = zoo_cost(&set, Some(2));
        assert_eq!(r.sections.len(), paper_size_ladder().len());
        for (_, t) in &r.sections {
            assert_eq!(t.len(), ZOO_FAMILIES);
        }
        let headline = r
            .notes
            .iter()
            .find(|n| n.starts_with("Headline"))
            .expect("headline note present");
        assert!(headline.contains("tagging"), "{headline}");
    }
}
