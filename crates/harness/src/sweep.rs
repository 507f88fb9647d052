//! Predictor-size sweeps: the machinery behind Figures 2, 3 and 4.
//!
//! The x-axis is hardware cost in KB of two-bit counters. gshare points
//! sit at table sizes `2^10..2^17` (0.25 KB–32 KB); bi-mode points sit
//! at 1.5x the next-smaller gshare (two half-size direction banks plus
//! an equal-size choice table), reproducing the staggered positions of
//! the paper's plots.
//!
//! [`sweep_all`] measures all three curves with one
//! [`engine::cached_rates`] call per trace set: the 116 `(s, m)`
//! [`search::candidates`] of the gshare ladder plus the 8 bi-mode
//! points. Every `gshare.1PHT` point is the `m = s` candidate, so both
//! gshare curves come from that one rate matrix, and `gshare.best` is
//! [`search::pick`] over it. Both kinds ride the lane engine, in lane
//! groups the front door balances by table bytes and runs longest
//! first across threads. Work accounting is global (see
//! [`crate::observe`]); the sweeps return points only.

use bpred_core::{BiMode, BiModeConfig, Gshare, Predictor, PredictorSpec};
use bpred_trace::PackedTrace;

use crate::engine::{self, Rate};
use crate::search;

/// The schemes compared in Figures 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// gshare with history length = index width (single PHT).
    GshareSinglePht,
    /// gshare with the best exhaustively-searched history length.
    GshareBest,
    /// The bi-mode predictor at its paper-default shape.
    BiMode,
}

impl Scheme {
    /// The label used in the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::GshareSinglePht => "gshare.1PHT",
            Scheme::GshareBest => "gshare.best",
            Scheme::BiMode => "bi-mode",
        }
    }
}

/// One measured point of a curve.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Scheme the point belongs to.
    pub scheme: Scheme,
    /// Predictor cost in KB of counter state.
    pub kib: f64,
    /// The configuration's printable name.
    pub config: String,
    /// Per-trace misprediction rates, in input trace order.
    pub rates: Vec<f64>,
}

impl SweepPoint {
    /// The average misprediction rate over the traces, in `[0, 1]`.
    #[must_use]
    pub fn average_rate(&self) -> f64 {
        engine::average(&self.rates)
    }
}

/// The paper's gshare size ladder: index widths for 0.25 KB to 32 KB.
pub const GSHARE_SIZES: std::ops::RangeInclusive<u32> = 10..=17;

/// The matching bi-mode ladder: direction-bank widths whose total cost
/// interleaves the gshare ladder (0.375 KB to 24 KB).
pub const BIMODE_SIZES: std::ops::RangeInclusive<u32> = 9..=16;

fn point(scheme: Scheme, p: &dyn Predictor, rates: Vec<f64>) -> SweepPoint {
    SweepPoint {
        scheme,
        kib: p.cost().state_kib(),
        config: p.name(),
        rates,
    }
}

/// Sweeps all three schemes (the full Figure 2/3/4 data set) in one
/// rate call: the `gshare.1PHT` ladder, then `gshare.best`, then
/// bi-mode, each in ladder order. `jobs` bounds the parallelism over
/// the call's work items.
#[must_use]
pub fn sweep_all(traces: &[&PackedTrace], jobs: Option<usize>) -> Vec<SweepPoint> {
    let sizes: Vec<u32> = GSHARE_SIZES.collect();
    let candidates = search::candidates(&sizes);
    let bimode: Vec<BiModeConfig> = BIMODE_SIZES.map(BiModeConfig::paper_default).collect();
    let points: Vec<Rate> = candidates
        .iter()
        .map(|&candidate| search::candidate_rate(candidate))
        .chain(
            bimode
                .iter()
                .map(|&config| Rate::Plain(PredictorSpec::BiMode(config))),
        )
        .collect();
    let mut rates = engine::cached_rates(traces, jobs, &points);
    let bimode_rates = rates.split_off(candidates.len());

    let single_pht = candidates
        .iter()
        .zip(&rates)
        .filter(|((s, m), _)| s == m)
        .map(|(&(s, _), rates)| {
            point(
                Scheme::GshareSinglePht,
                &Gshare::single_pht(s),
                rates.clone(),
            )
        });
    let best = search::pick(&sizes, &rates).into_iter().map(|best| {
        let winner = Gshare::new(best.table_bits, best.history_bits);
        point(Scheme::GshareBest, &winner, best.per_workload)
    });
    let bimode = bimode
        .into_iter()
        .zip(bimode_rates)
        .map(|(config, rates)| point(Scheme::BiMode, &BiMode::new(config), rates));
    single_pht.chain(best).chain(bimode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Trace};

    fn small_trace() -> Trace {
        let mut t = Trace::new("t");
        let mut x = 1u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 0x1000 + (x % 50) * 4;
            t.push(BranchRecord::conditional(pc, 0, !x.is_multiple_of(3)));
        }
        t
    }

    fn packed() -> PackedTrace {
        PackedTrace::build(&small_trace()).expect("small site table")
    }

    fn curve(points: &[SweepPoint], scheme: Scheme) -> Vec<&SweepPoint> {
        points.iter().filter(|p| p.scheme == scheme).collect()
    }

    #[test]
    fn ladders_hit_the_papers_cost_points() {
        let t = packed();
        let all = sweep_all(&[&t], Some(2));
        let kibs: Vec<f64> = curve(&all, Scheme::GshareSinglePht)
            .iter()
            .map(|p| p.kib)
            .collect();
        assert_eq!(kibs, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);

        let kibs: Vec<f64> = curve(&all, Scheme::BiMode).iter().map(|p| p.kib).collect();
        assert_eq!(kibs, [0.375, 0.75, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0]);
    }

    #[test]
    fn best_is_never_worse_than_single_pht_on_average() {
        let t = packed();
        let all = sweep_all(&[&t], Some(2));
        let single = curve(&all, Scheme::GshareSinglePht);
        let best = curve(&all, Scheme::GshareBest);
        for (s, b) in single.iter().zip(&best) {
            assert!(
                b.average_rate() <= s.average_rate() + 1e-12,
                "best ({}) lost to 1PHT ({}) at {} KB",
                b.average_rate(),
                s.average_rate(),
                s.kib
            );
        }
    }

    #[test]
    fn fused_best_matches_the_per_size_search() {
        let t = packed();
        let sizes: Vec<u32> = GSHARE_SIZES.collect();
        let fused = search::best_gshare(&[&t], &sizes, Some(2));
        let all = sweep_all(&[&t], Some(2));
        let best = curve(&all, Scheme::GshareBest);
        let single_pht = curve(&all, Scheme::GshareSinglePht);
        assert_eq!((fused.len(), best.len()), (sizes.len(), sizes.len()));
        for (((point, multi), one_pht), s) in
            best.iter().zip(&fused).zip(&single_pht).zip(GSHARE_SIZES)
        {
            let single = search::best_gshare(&[&t], &[s], Some(2)).remove(0);
            assert_eq!(multi.table_bits, s);
            assert_eq!(multi.history_bits, single.history_bits, "size {s}");
            assert_eq!(multi.per_workload, single.per_workload, "size {s}");
            assert_eq!(multi.curve, single.curve, "size {s}");
            assert_eq!(point.config, Gshare::new(s, single.history_bits).name());
            assert_eq!(point.rates, single.per_workload, "size {s}");
            // The 1PHT point is the search's m = s candidate.
            let (m, rate) = *single.curve.last().expect("m = s is a candidate");
            assert_eq!(m, s);
            assert_eq!(one_pht.config, Gshare::single_pht(s).name());
            assert_eq!(one_pht.average_rate(), rate, "size {s}");
        }
    }

    #[test]
    fn sweep_all_produces_three_curves_and_accounts_every_point() {
        let t = packed();
        let drive_before = bpred_analysis::metrics::engine_snapshot();
        let store_before = crate::store::counters();
        let all = sweep_all(&[&t], Some(2));
        assert_eq!(all.len(), 24);
        for scheme in [Scheme::GshareSinglePht, Scheme::GshareBest, Scheme::BiMode] {
            assert_eq!(all.iter().filter(|p| p.scheme == scheme).count(), 8);
        }
        // 116 best candidates (the 8 single-PHT points among them) + 8
        // bi-mode configurations over one trace: every point is either
        // driven (recorded as a config drive) or served from the result
        // store (recorded as a hit) — other tests may add more
        // concurrently, and earlier runs sharing the on-disk store may
        // have warmed any subset.
        let drives = bpred_analysis::metrics::engine_snapshot()
            .since(&drive_before)
            .total();
        let store = crate::store::counters().since(&store_before);
        assert!(
            drives.lanes + store.hits >= 116 + 8,
            "got {drives:?} + {store:?}"
        );
    }

    #[test]
    fn average_rate_averages() {
        let p = SweepPoint {
            scheme: Scheme::BiMode,
            kib: 1.0,
            config: String::new(),
            rates: vec![0.1, 0.3],
        };
        assert!((p.average_rate() - 0.2).abs() < 1e-12);
    }
}
