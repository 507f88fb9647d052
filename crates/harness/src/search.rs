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
//! collapses to a sweep over `m`. The search is two halves: the
//! [`candidates`] of any number of table sizes, and the [`pick`] of
//! each size's winner from their rates. [`best_gshare`] measures the
//! candidates in one [`engine::cached_rates`] call, so the lane engine
//! packs them into shared lane groups instead of walking each trace
//! once per size; the summary's claims use it. Figure 2's sweep
//! ([`crate::sweep::sweep_all`]) measures the same candidates in its
//! one call beside the bi-mode points and picks from those rates.

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

/// The search's candidates at each table size of `sizes`, in size
/// then history order: `(s, m)` for every `m in 0..=s`.
#[must_use]
pub fn candidates(sizes: &[u32]) -> Vec<(u32, u32)> {
    sizes
        .iter()
        .flat_map(|&table_bits| {
            (0..=table_bits).map(move |history_bits| (table_bits, history_bits))
        })
        .collect()
}

/// The plain gshare rate point of one candidate.
#[must_use]
pub fn candidate_rate((table_bits, history_bits): (u32, u32)) -> Rate {
    Rate::Plain(PredictorSpec::Gshare {
        table_bits,
        history_bits,
    })
}

/// Picks each size's winner from `rates`, one per-trace rate vector per
/// entry of [`candidates`]`(sizes)`, in that order, returning one
/// [`BestGshare`] per size, in the order given.
///
/// Ties go to the shortest history: of the candidates with equal
/// suite-average rates, the one with the smallest `m` wins.
///
/// # Panics
///
/// Panics if `rates` holds fewer entries than the candidates.
#[must_use]
pub fn pick(sizes: &[u32], rates: &[Vec<f64>]) -> Vec<BestGshare> {
    let mut rates = rates.iter();
    sizes
        .iter()
        .map(|&table_bits| {
            let results: Vec<(u32, f64, &Vec<f64>)> = (0..=table_bits)
                .zip(rates.by_ref())
                .map(|(m, rates)| (m, engine::average(rates), rates))
                .collect();
            let curve: Vec<(u32, f64)> = results.iter().map(|(m, avg, _)| (*m, *avg)).collect();
            // `min_by` keeps the first of equal minima: the shortest history.
            let (history_bits, average_rate, per_workload) = results
                .into_iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("rates are finite")) // panic-audited: misprediction rates are finite ratios, never NaN
                .expect("one rate vector per candidate"); // panic-audited: documented panic; every caller passes the rates of candidates(sizes)
            BestGshare {
                table_bits,
                history_bits,
                average_rate,
                per_workload: per_workload.clone(),
                curve,
            }
        })
        .collect()
}

/// Exhaustively searches `m in 0..=s` for the best suite-average
/// gshare at each table size `2^s` of `sizes`, returning one
/// [`BestGshare`] per size, in the order given: the [`pick`] over the
/// rates of the [`candidates`].
///
/// All candidates of all sizes go through one [`engine::cached_rates`]
/// call, so they ride the lane engine in shared lane groups, one pass
/// per (trace, group); `jobs` bounds the parallelism over the
/// flattened work items.
#[must_use]
pub fn best_gshare(traces: &[&PackedTrace], sizes: &[u32], jobs: Option<usize>) -> Vec<BestGshare> {
    let points: Vec<Rate> = candidates(sizes).into_iter().map(candidate_rate).collect();
    pick(sizes, &engine::cached_rates(traces, jobs, &points))
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
        let best = best_gshare(&[&t], &[8], Some(2)).remove(0);
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
        let best = best_gshare(&[&t], &[4], Some(2)).remove(0);
        assert_eq!(best.history_bits, 0, "pure per-address indexing should win");
        assert!(best.average_rate < 0.01);
    }

    #[test]
    fn ties_go_to_the_shortest_history() {
        // One always-taken branch: every history length predicts it
        // perfectly, so all candidates tie and m = 0 must win.
        let t: Trace = (0..500)
            .map(|_| BranchRecord::conditional(0x1000, 0, true))
            .collect();
        let t = PackedTrace::build(&t).expect("one site");
        let best = best_gshare(&[&t], &[6], None).remove(0);
        assert!(best.curve.iter().all(|&(_, r)| r == best.average_rate));
        assert_eq!(best.history_bits, 0);
    }

    #[test]
    fn curve_covers_all_candidates_and_contains_winner() {
        let t = correlated_trace();
        let best = best_gshare(&[&t], &[6], None).remove(0);
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
        let best = best_gshare(&[&a, &b], &[8], None).remove(0);
        assert_eq!(best.per_workload.len(), 2);
        let avg = best.per_workload.iter().sum::<f64>() / 2.0;
        assert!((avg - best.average_rate).abs() < 1e-12);
    }

    #[test]
    fn batched_rates_match_the_scalar_helper() {
        let source = correlated_source();
        let best = best_gshare(&[&correlated_trace()], &[8], Some(2)).remove(0);
        let mut winner = bpred_core::Gshare::new(8, best.history_bits);
        let want = bpred_analysis::measure(&source, &mut winner).misprediction_rate();
        assert_eq!(best.per_workload, [want]);
    }
}
