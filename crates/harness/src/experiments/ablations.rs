//! Ablations of the bi-mode design decisions the paper calls out, plus
//! the de-aliasing-scheme comparison from the related-work lineage
//! (\[Lee97\]'s comparative study).
//!
//! Every rate grid here — the bi-mode variants, the de-aliasing and
//! tri-mode contenders, and the delayed and flushed measurements — is
//! one [`engine::cached_rates`] call: each (point, trace) pair is a
//! store job, warm points are served from the result store, and the
//! rest are measured in parallel over traces. Work accounting is
//! recorded process-wide and reported per stage by the orchestrator
//! (see [`crate::observe`]).

use bpred_core::{
    BankInit, BiMode, BiModeConfig, ChoiceUpdate, IndexShare, Predictor, PredictorSpec, TriMode,
    TriModeConfig,
};

use crate::engine::{self, Rate};
use crate::experiments::{kib, pct};
use crate::format::{Report, Table};
use crate::store::{self, JobSpec};
use crate::traces::TraceSet;

/// Ablation: the partial choice-update rule vs always updating the
/// choice predictor. The paper: partial update is "particularly
/// effective when the total hardware budget is small".
#[must_use]
pub fn ablation_choice_update(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new(
        "ablation-choice-update",
        "Ablation: partial vs always choice-predictor update",
    );
    let mut t = Table::new(["d", "size KB", "partial %", "always %", "partial wins"]);
    let ds = [8u32, 9, 10, 12, 14];
    let points: Vec<Rate> = ds
        .iter()
        .flat_map(|&d| {
            let mut partial = BiModeConfig::paper_default(d);
            partial.choice_update = ChoiceUpdate::Partial;
            let mut always = partial;
            always.choice_update = ChoiceUpdate::Always;
            [partial, always]
        })
        .map(|c| Rate::Plain(PredictorSpec::BiMode(c)))
        .collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    let mut small_budget_gain = 0.0;
    for (i, &d) in ds.iter().enumerate() {
        let partial = engine::average(&rates[2 * i]);
        let always = engine::average(&rates[2 * i + 1]);
        if d == 8 {
            small_budget_gain = always - partial;
        }
        t.push_row([
            d.to_string(),
            kib(BiMode::new(BiModeConfig::paper_default(d))
                .cost()
                .state_kib()),
            pct(partial),
            pct(always),
            (partial <= always).to_string(),
        ]);
    }
    report.section("suite-average misprediction", t);
    report.note(format!(
        "Smallest budget (d=8) gain from partial update: {} percentage points.",
        pct(small_budget_gain)
    ));
    report
}

/// Ablation: footnote-2 split bank initialisation vs both banks
/// weakly-taken.
#[must_use]
pub fn ablation_init(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new("ablation-init", "Ablation: direction-bank initialisation");
    let mut t = Table::new(["d", "split init %", "uniform init %"]);
    let ds = [8u32, 10, 12];
    let points: Vec<Rate> = ds
        .iter()
        .flat_map(|&d| {
            let split = BiModeConfig::paper_default(d);
            let mut uniform = split;
            uniform.bank_init = BankInit::UniformWeaklyTaken;
            [split, uniform]
        })
        .map(|c| Rate::Plain(PredictorSpec::BiMode(c)))
        .collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    for (i, &d) in ds.iter().enumerate() {
        t.push_row([
            d.to_string(),
            pct(engine::average(&rates[2 * i])),
            pct(engine::average(&rates[2 * i + 1])),
        ]);
    }
    report.section("suite-average misprediction", t);
    report
}

/// Ablation: choice-predictor sizing relative to one direction bank.
#[must_use]
pub fn ablation_choice_size(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new(
        "ablation-choice-size",
        "Ablation: choice predictor sizing (d=10)",
    );
    report.note(
        "The paper sizes the choice table equal to one direction bank; this \
         sweep varies it from a quarter to double that size.",
    );
    let d = 10u32;
    let cs = [d - 4, d - 2, d - 1, d, d + 1];
    let points: Vec<Rate> = cs
        .iter()
        .map(|&c| Rate::Plain(PredictorSpec::BiMode(BiModeConfig::new(d, c, d))))
        .collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    let mut t = Table::new(["choice bits", "total size KB", "misprediction %"]);
    for (i, &c) in cs.iter().enumerate() {
        let size = BiMode::new(BiModeConfig::new(d, c, d)).cost().state_kib();
        t.push_row([c.to_string(), kib(size), pct(engine::average(&rates[i]))]);
    }
    report.section("suite-average misprediction", t);
    report
}

/// Ablation: shared gshare-style direction index vs per-bank skewed
/// hashing (combining bi-mode with gskew-style dispersion).
#[must_use]
pub fn ablation_index(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new(
        "ablation-index",
        "Ablation: shared vs skewed direction-bank index",
    );
    let mut t = Table::new(["d", "shared %", "skewed %"]);
    let ds = [8u32, 10, 12];
    let points: Vec<Rate> = ds
        .iter()
        .flat_map(|&d| {
            let shared = BiModeConfig::paper_default(d);
            let mut skewed = shared;
            skewed.index_share = IndexShare::SkewedPerBank;
            [shared, skewed]
        })
        .map(|c| Rate::Plain(PredictorSpec::BiMode(c)))
        .collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    for (i, &d) in ds.iter().enumerate() {
        t.push_row([
            d.to_string(),
            pct(engine::average(&rates[2 * i])),
            pct(engine::average(&rates[2 * i + 1])),
        ]);
    }
    report.section("suite-average misprediction", t);
    report
}

/// Contenders per budget in [`compare_dealias`]'s grid.
const DEALIAS_CONTENDERS: usize = 10;

/// The ten de-aliasing contenders at one gshare-equivalent budget `s`,
/// as grammar specs (each carries its own store fingerprint and builds
/// the exact predictor the scalar constructors produced).
fn dealias_specs(s: u32) -> Vec<PredictorSpec> {
    let d = s - 1;
    debug_assert_eq!(DEALIAS_CONTENDERS, 10);
    vec![
        PredictorSpec::Bimodal { table_bits: s },
        PredictorSpec::Gshare {
            table_bits: s,
            history_bits: s,
        },
        PredictorSpec::Gshare {
            table_bits: s,
            history_bits: s - 4,
        },
        PredictorSpec::Gselect {
            address_bits: 4,
            history_bits: s - 4,
        },
        PredictorSpec::BiMode(BiModeConfig::paper_default(d)),
        PredictorSpec::Agree {
            table_bits: s,
            history_bits: s,
            bias_bits: s - 1,
        },
        PredictorSpec::Gskew {
            bank_bits: s - 1,
            history_bits: s - 1,
            total_update: false,
        },
        PredictorSpec::TwoBcGskew {
            bank_bits: s - 1,
            history_bits: s - 1,
        },
        PredictorSpec::Yags {
            choice_bits: s - 1,
            cache_bits: s - 2,
            history_bits: s - 2,
            tag_bits: 6,
        },
        PredictorSpec::Tournament { table_bits: s - 1 },
    ]
}

/// The de-aliasing shoot-out: bi-mode vs agree, gskew, YAGS, gselect,
/// tournament and plain gshare/bimodal at three hardware budgets.
#[must_use]
pub fn compare_dealias(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new(
        "compare-dealias",
        "Comparison: de-aliasing schemes at matched budgets",
    );
    report.note(
        "Costs are bytes of predictor state (paper accounting); metadata \
         (tags, histories, valid bits) reported separately per config name.",
    );
    // (budget label, gshare s). Other schemes are sized to land close
    // to the same state budget; exact KB is printed. All three budgets'
    // contenders share one dispatch: bimodal and gshare on the sliced
    // engine, the rest in one batched pass per trace.
    let budgets = [("~0.75-1 KB", 12u32), ("~3-4 KB", 14), ("~12-16 KB", 16)];
    let grid: Vec<PredictorSpec> = budgets
        .iter()
        .flat_map(|&(_, s)| dealias_specs(s))
        .collect();
    let points: Vec<Rate> = grid.iter().cloned().map(Rate::Plain).collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    for (bi, &(label, _)) in budgets.iter().enumerate() {
        let mut t = Table::new(["scheme", "size KB", "misprediction %"]);
        for ci in 0..DEALIAS_CONTENDERS {
            let p = grid[bi * DEALIAS_CONTENDERS + ci].build();
            t.push_row([
                p.name(),
                kib(p.cost().state_kib()),
                pct(engine::average(&rates[bi * DEALIAS_CONTENDERS + ci])),
            ]);
        }
        report.section(format!("budget {label}"), t);
    }
    report
}

/// Ablation: how much does the paper's immediate-update idealisation
/// matter? Updates are held in a FIFO of the given depth (modelling
/// branch-resolution latency) before reaching the tables.
#[must_use]
pub fn ablation_delay(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new(
        "ablation-delay",
        "Ablation: update-delay sensitivity (resolution latency)",
    );
    report.note(
        "The paper (like most trace-driven studies) trains tables \
         immediately after each prediction; real pipelines train at \
         resolution. Rates are suite averages.",
    );
    let delays = [0usize, 1, 2, 4, 8, 16, 32];
    let points: Vec<Rate> = delays
        .iter()
        .flat_map(|&delay| measured_pair().map(move |inner| Rate::Delayed(inner, delay)))
        .collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    let mut t = Table::new(["delay (branches)", "gshare(s=12) %", "bi-mode(d=11) %"]);
    for (i, &delay) in delays.iter().enumerate() {
        t.push_row([
            delay.to_string(),
            pct(engine::average(&rates[2 * i])),
            pct(engine::average(&rates[2 * i + 1])),
        ]);
    }
    report.section("suite-average misprediction vs update delay", t);
    report
}

/// The paper's future-work direction, implemented and measured: the
/// tri-mode predictor quarantines weakly-biased branches in a third
/// bank. Compared against bi-mode per benchmark and on the averages.
#[must_use]
pub fn future_trimode(set: &TraceSet, jobs: Option<usize>) -> Report {
    let mut report = Report::new(
        "future-trimode",
        "Future work: tri-mode (weak-bank) predictor vs bi-mode",
    );
    report.note(
        "Section 5 proposes separating weakly-biased substreams from the \
         strongly-biased ones; tri-mode adds a third, weak-mode bank fed \
         by a per-address conflict detector. Sizes differ (4/3 of \
         bi-mode's banks plus the conflict table), so both are shown \
         with their exact costs.",
    );
    let names: Vec<&str> = set.entries().iter().map(|(w, _)| w.name()).collect();
    let traces = set.all_packed();
    let ds = [9u32, 11, 13];
    let grid: Vec<PredictorSpec> = ds
        .iter()
        .flat_map(|&d| {
            [
                PredictorSpec::BiMode(BiModeConfig::paper_default(d)),
                PredictorSpec::TriMode {
                    direction_bits: d,
                    choice_bits: d,
                    history_bits: d,
                },
            ]
        })
        .collect();
    let points: Vec<Rate> = grid.iter().cloned().map(Rate::Plain).collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    for (di, &d) in ds.iter().enumerate() {
        let (bi_rates, tri_rates) = (&rates[2 * di], &rates[2 * di + 1]);
        let mut t = Table::new(["benchmark", "bi-mode %", "tri-mode %", "winner"]);
        for (i, name) in names.iter().enumerate() {
            let (br, tr) = (bi_rates[i], tri_rates[i]);
            t.push_row([
                (*name).to_owned(),
                pct(br),
                pct(tr),
                if tr < br { "tri-mode" } else { "bi-mode" }.to_owned(),
            ]);
        }
        let (bi_avg, tri_avg) = (engine::average(bi_rates), engine::average(tri_rates));
        t.push_row([
            "AVERAGE".to_owned(),
            pct(bi_avg),
            pct(tri_avg),
            if tri_avg < bi_avg {
                "tri-mode"
            } else {
                "bi-mode"
            }
            .to_owned(),
        ]);
        report.section(
            format!(
                "d={d}: bi-mode {} KB vs tri-mode {} KB",
                kib(BiMode::new(BiModeConfig::paper_default(d))
                    .cost()
                    .state_kib()),
                kib(TriMode::new(TriModeConfig::new(d, d, d)).cost().state_kib())
            ),
            t,
        );
    }
    report
}

/// The alias taxonomy of Section 2.2, measured: how much of each
/// scheme's aliasing is destructive (opposite strong biases), harmless
/// (same strong bias) or neutral (weakly biased), on gcc.
#[must_use]
pub fn aliasing_taxonomy(set: &TraceSet) -> Report {
    let trace = set.trace("gcc").expect("the taxonomy uses the gcc trace"); // panic-audited: paper trace sets always include gcc; documented panic
    let mut report = Report::new(
        "aliasing",
        "Alias taxonomy on gcc: destructive vs harmless vs neutral",
    );
    report.note(
        "Section 2.2's claim, quantified: bi-mode should 'separate the \
         destructive aliases while keeping the harmless aliases \
         together'. Pairs are traffic-weighted by the smaller stream.",
    );
    for (label, s) in [("256 counters", 8u32), ("1K counters", 10)] {
        let mut t = Table::new([
            "scheme",
            "shared counters",
            "destructive pairs",
            "harmless pairs",
            "neutral pairs",
            "destructive traffic %",
        ]);
        let d = s - 1;
        let alias_of = |spec: &PredictorSpec| {
            store::cached_alias(JobSpec::alias(spec).job(trace.digest()), || {
                bpred_analysis::AliasReport::measure(trace, || spec.build())
            })
        };
        let schemes: Vec<(String, bpred_analysis::AliasReport)> = vec![
            (
                format!("gshare(s={s},h={s})"),
                alias_of(&PredictorSpec::Gshare {
                    table_bits: s,
                    history_bits: s,
                }),
            ),
            (
                format!("gshare(s={s},h=2)"),
                alias_of(&PredictorSpec::Gshare {
                    table_bits: s,
                    history_bits: 2,
                }),
            ),
            (
                format!("bi-mode(d={d})"),
                alias_of(&PredictorSpec::BiMode(BiModeConfig::paper_default(d))),
            ),
        ];
        for (name, r) in schemes {
            t.push_row([
                name,
                r.counters_shared.to_string(),
                r.destructive_pairs.to_string(),
                r.harmless_pairs.to_string(),
                r.neutral_pairs.to_string(),
                pct(r.destructive_fraction()),
            ]);
        }
        report.section(label.to_owned(), t);
    }
    report
}

/// The gshare(s=12) and bi-mode(d=11) columns of the delay and flush
/// ablations.
fn measured_pair() -> [PredictorSpec; 2] {
    [
        PredictorSpec::Gshare {
            table_bits: 12,
            history_bits: 12,
        },
        PredictorSpec::BiMode(BiModeConfig::paper_default(11)),
    ]
}

/// Context-switch model: flush all predictor state every N branches
/// (IBS traces interleave kernel and user activity; this quantifies
/// how much cold state costs each scheme).
#[must_use]
pub fn ablation_flush(set: &TraceSet, jobs: Option<usize>) -> Report {
    let traces = set.all_packed();
    let mut report = Report::new(
        "ablation-flush",
        "Ablation: predictor flush interval (context-switch model)",
    );
    // `None` is "never": the plain rate, so it shares Figure 2's keys.
    let intervals = [Some(10_000u64), Some(50_000), Some(250_000), None];
    let points: Vec<Rate> = intervals
        .iter()
        .flat_map(|&interval| {
            measured_pair().map(move |spec| match interval {
                Some(interval) => Rate::Flushed(spec, interval),
                None => Rate::Plain(spec),
            })
        })
        .collect();
    let rates = engine::cached_rates(&traces, jobs, &points);
    let mut t = Table::new(["flush interval", "gshare(s=12) %", "bi-mode(d=11) %"]);
    for (i, interval) in intervals.iter().enumerate() {
        t.push_row([
            interval.map_or_else(|| "never".to_owned(), |n| n.to_string()),
            pct(engine::average(&rates[2 * i])),
            pct(engine::average(&rates[2 * i + 1])),
        ]);
    }
    report.section("suite-average misprediction vs flush interval", t);
    report
}

/// Warm-up curves: windowed misprediction over time for the three
/// Figure-2 schemes on gcc, showing convergence from power-on (the
/// transient behind the footnote-2 initialisation and the flush
/// ablation).
#[must_use]
pub fn warmup_curves(set: &TraceSet) -> Report {
    let trace = set.trace("gcc").expect("warm-up uses the gcc trace"); // panic-audited: paper trace sets always include gcc; documented panic
    let mut report = Report::new("warmup", "Warm-up: windowed misprediction over time (gcc)");
    let window = (trace.len() as u64 / 40).max(1_000);
    report.note(format!("Window: {window} conditional branches."));
    let curve_of = |spec: &PredictorSpec| {
        store::cached_f64s(JobSpec::warmup(spec, window).job(trace.digest()), || {
            bpred_analysis::windowed_rates(trace, spec.build().as_mut(), window)
        })
    };
    let g = curve_of(&PredictorSpec::Gshare {
        table_bits: 12,
        history_bits: 12,
    });
    let b = curve_of(&PredictorSpec::BiMode(BiModeConfig::paper_default(11)));
    let s = curve_of(&PredictorSpec::Bimodal { table_bits: 12 });
    let mut t = Table::new(["window", "bimodal %", "gshare(12,12) %", "bi-mode(d=11) %"]);
    for (i, ((gr, br), sr)) in g.iter().zip(&b).zip(&s).enumerate() {
        t.push_row([(i + 1).to_string(), pct(*sr), pct(*gr), pct(*br)]);
    }
    report.section("windowed misprediction", t);
    report.note(format!(
        "Warm-up windows (rate above steady state): bimodal {}, gshare {}, bi-mode {}.",
        bpred_analysis::warmup_windows(&s, 0.01),
        bpred_analysis::warmup_windows(&g, 0.01),
        bpred_analysis::warmup_windows(&b, 0.01),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_workloads::{Scale, Workload};

    fn small_set() -> TraceSet {
        TraceSet::of(
            vec![
                Workload::by_name("gcc").unwrap(),
                Workload::by_name("vortex").unwrap(),
            ],
            Scale::Smoke,
            Some(2),
        )
    }

    #[test]
    fn choice_update_ablation_has_all_sizes() {
        let r = ablation_choice_update(&small_set(), Some(2));
        assert_eq!(r.sections[0].1.len(), 5);
        assert!(r.notes.iter().any(|n| n.contains("partial update")));
    }

    #[test]
    fn init_and_index_ablations_run() {
        let set = small_set();
        assert_eq!(ablation_init(&set, Some(2)).sections[0].1.len(), 3);
        assert_eq!(ablation_index(&set, Some(2)).sections[0].1.len(), 3);
    }

    #[test]
    fn choice_size_ablation_covers_five_sizes() {
        let r = ablation_choice_size(&small_set(), Some(2));
        assert_eq!(r.sections[0].1.len(), 5);
    }

    #[test]
    fn delay_ablation_runs_and_zero_delay_matches_plain() {
        let r = ablation_delay(&small_set(), Some(2));
        let t = &r.sections[0].1;
        assert_eq!(t.len(), 7);
        let csv = t.to_csv();
        assert!(csv.lines().nth(1).expect("delay-0 row").starts_with("0,"));
    }

    #[test]
    fn warmup_curves_have_windows_and_summary() {
        let set = small_set();
        let r = warmup_curves(&set);
        assert!(r.sections[0].1.len() >= 8);
        assert!(r.notes.iter().any(|n| n.starts_with("Warm-up windows")));
    }

    #[test]
    fn aliasing_taxonomy_shows_bimode_reducing_destructive_share() {
        let set = small_set();
        let r = aliasing_taxonomy(&set);
        assert_eq!(r.sections.len(), 2);
        let csv = r.sections[0].1.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 3);
        let frac = |row: &str| -> f64 {
            row.rsplit(',')
                .next()
                .expect("last column")
                .parse()
                .expect("percent")
        };
        let gshare_hist = frac(rows[0]);
        let bimode = frac(rows[2]);
        assert!(
            bimode < gshare_hist,
            "bi-mode must carry a smaller destructive share: {bimode} vs {gshare_hist}"
        );
    }

    #[test]
    fn flush_ablation_monotone_toward_never() {
        let set = small_set();
        let r = ablation_flush(&set, Some(2));
        let t = &r.sections[0].1;
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        assert!(csv.lines().last().expect("never row").starts_with("never,"));
    }

    #[test]
    fn trimode_experiment_reports_all_benchmarks_and_average() {
        let set = small_set();
        let r = future_trimode(&set, Some(2));
        assert_eq!(r.sections.len(), 3);
        for (_, t) in &r.sections {
            assert_eq!(t.len(), set.entries().len() + 1);
        }
        assert!(r.sections[0].0.contains("KB"));
    }

    #[test]
    fn dealias_comparison_lists_nine_schemes_per_budget() {
        let r = compare_dealias(&small_set(), Some(2));
        assert_eq!(r.sections.len(), 3);
        for (_, t) in &r.sections {
            assert_eq!(t.len(), 10);
        }
        let csv = r.sections[0].1.to_csv();
        assert!(csv.contains("bi-mode"));
        assert!(csv.contains("agree"));
        assert!(csv.contains("gskew"));
        assert!(csv.contains("yags"));
    }
}
