//! The exhaustive `gshare.best` search of Section 3.1.
//!
//! "To find the best configuration, we exhaustively simulated all
//! pair-wise combinations of history length and address length. […] we
//! present results using the configuration that yields the best
//! accuracy for the average of all the benchmarks studied."
//!
//! In the reproduction's gshare model a configuration at table size
//! `2^s` is fully described by the history length `m <= s` (the
//! remaining `s - m` index bits are address bits), so the pairwise grid
//! collapses to a sweep over `m` — run as one batch over a single pass
//! of each packed trace, not one trace walk per candidate.

use bpred_core::PredictorSpec;
use bpred_trace::PackedTrace;

use crate::engine::{self, Rate};

/// The outcome of the exhaustive search at one table size.
#[derive(Debug, Clone)]
pub struct BestGshare {
    /// Table index width `s` (the table holds `2^s` counters).
    pub table_bits: u32,
    /// The history length minimising the suite-average misprediction.
    pub history_bits: u32,
    /// Suite-average misprediction rate of the winner, in `[0, 1]`.
    pub average_rate: f64,
    /// Per-workload misprediction rates of the winner, in trace order.
    pub per_workload: Vec<f64>,
    /// The full curve: suite-average rate for every candidate `m`.
    pub curve: Vec<(u32, f64)>,
}

/// Exhaustively searches `m in 0..=s` for the best suite-average
/// gshare at table size `2^s`. All candidates ride the sliced
/// engine in 64-wide lane groups, one pass per (trace, group); `jobs`
/// bounds the parallelism over the flattened work items.
///
/// # Panics
///
/// Panics if `traces` is empty.
#[must_use]
pub fn best_gshare(traces: &[&PackedTrace], table_bits: u32, jobs: Option<usize>) -> BestGshare {
    assert!(!traces.is_empty(), "the search needs at least one trace");
    let candidates: Vec<u32> = (0..=table_bits).collect();
    let points: Vec<Rate> = candidates
        .iter()
        .map(|&m| PredictorSpec::Gshare {
            table_bits,
            history_bits: m,
        })
        .map(Rate::Plain)
        .collect();
    let rates = engine::cached_rates(traces, jobs, &points);
    let results: Vec<(u32, f64, Vec<f64>)> = candidates
        .into_iter()
        .zip(rates)
        .map(|(m, rates)| (m, engine::average(&rates), rates))
        .collect();
    let curve: Vec<(u32, f64)> = results.iter().map(|(m, avg, _)| (*m, *avg)).collect();
    let (history_bits, average_rate, per_workload) = results
        .into_iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("rates are finite")) // panic-audited: misprediction rates are finite ratios, never NaN
        .expect("at least one candidate"); // panic-audited: the history-length candidate range is non-empty by construction
    BestGshare {
        table_bits,
        history_bits,
        average_rate,
        per_workload,
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Trace};

    /// A trace where correlation only helps with enough history: branch
    /// B repeats branch A's outcome from two steps ago.
    fn correlated_source() -> Trace {
        let mut t = Trace::new("corr");
        let mut hist = [false; 2];
        for i in 0..4000u64 {
            let a_out = (i / 3) % 2 == 0;
            t.push(BranchRecord::conditional(0x1000, 0, a_out));
            t.push(BranchRecord::conditional(0x1004, 0, hist[0]));
            hist = [hist[1], a_out];
        }
        t
    }

    fn correlated_trace() -> PackedTrace {
        PackedTrace::build(&correlated_source()).expect("two sites")
    }

    /// A trace full of opposite-biased aliases, where history mixes
    /// things up and m = 0 (pure bimodal) wins.
    fn alias_heavy_trace() -> PackedTrace {
        let mut t = Trace::new("alias");
        for i in 0..2000u64 {
            for b in 0..16u64 {
                t.push(BranchRecord::conditional(0x1000 + b * 4, 0, b % 2 == 0));
            }
            let _ = i;
        }
        PackedTrace::build(&t).expect("16 sites")
    }

    #[test]
    fn search_prefers_history_when_correlation_pays() {
        let t = correlated_trace();
        let best = best_gshare(&[&t], 8, Some(2));
        assert!(
            best.history_bits >= 3,
            "expected history to win, got m={}",
            best.history_bits
        );
        assert!(best.average_rate < 0.05);
    }

    #[test]
    fn search_prefers_address_bits_under_aliasing_pressure() {
        let t = alias_heavy_trace();
        // Tiny table: 16 counters for 16 opposite-biased branches.
        let best = best_gshare(&[&t], 4, Some(2));
        assert_eq!(best.history_bits, 0, "pure per-address indexing should win");
        assert!(best.average_rate < 0.01);
    }

    #[test]
    fn curve_covers_all_candidates_and_contains_winner() {
        let t = correlated_trace();
        let best = best_gshare(&[&t], 6, None);
        assert_eq!(best.curve.len(), 7);
        let curve_min = best
            .curve
            .iter()
            .map(|(_, r)| *r)
            .fold(f64::INFINITY, f64::min);
        assert!((curve_min - best.average_rate).abs() < 1e-12);
        assert_eq!(best.per_workload.len(), 1);
    }

    #[test]
    fn averages_over_multiple_traces() {
        let a = correlated_trace();
        let b = alias_heavy_trace();
        let best = best_gshare(&[&a, &b], 8, None);
        assert_eq!(best.per_workload.len(), 2);
        let avg = best.per_workload.iter().sum::<f64>() / 2.0;
        assert!((avg - best.average_rate).abs() < 1e-12);
    }

    #[test]
    fn batched_rates_match_the_scalar_helper() {
        let source = correlated_source();
        let best = best_gshare(&[&correlated_trace()], 8, Some(2));
        let mut winner = bpred_core::Gshare::new(8, best.history_bits);
        let want = bpred_analysis::measure(&source, &mut winner).misprediction_rate();
        assert_eq!(best.per_workload, [want]);
    }
}
