//! The two-pass substream attribution engine behind Figures 5–8 and
//! Table 4.
//!
//! Pass 1 simulates the predictor over a [`PackedTrace`] and
//! accumulates [`StreamStats`] for every (static branch, consulted
//! counter) pair. Pass 2 re-simulates from an identical power-on state —
//! predictors are deterministic, so every access consults the same
//! counter — and attributes each access, misprediction, and bias-class
//! change to the class its substream belongs to.

use std::collections::HashMap;

use bpred_core::Predictor;
use bpred_trace::PackedTrace;

use crate::bias::{BiasClass, StreamStats};
use crate::simulate::RunResult;

/// Per-counter access totals split by the bias class of the incoming
/// substreams — one bar of Figure 5/6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterBias {
    /// Accesses from strongly-taken substreams.
    pub st: u64,
    /// Accesses from strongly-not-taken substreams.
    pub snt: u64,
    /// Accesses from weakly-biased substreams.
    pub wb: u64,
}

impl CounterBias {
    /// Total accesses at this counter.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.st + self.snt + self.wb
    }

    /// The dominant strong class at this counter (the more frequent of
    /// ST and SNT; ties go to ST as the paper's initialisation leans
    /// taken).
    #[must_use]
    pub fn dominant_class(&self) -> BiasClass {
        if self.st >= self.snt {
            BiasClass::StronglyTaken
        } else {
            BiasClass::StronglyNotTaken
        }
    }

    /// Normalized (fractional) counts `(dominant, non_dominant, wb)`.
    /// Returns zeros for an untouched counter.
    #[must_use]
    pub fn normalized(&self) -> (f64, f64, f64) {
        let total = self.total();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let (dom, non) = if self.st >= self.snt {
            (self.st, self.snt)
        } else {
            (self.snt, self.st)
        };
        let t = total as f64;
        (dom as f64 / t, non as f64 / t, self.wb as f64 / t)
    }
}

/// Table 4: counts of bias-class changes at the counters, attributed to
/// the (counter-relative) role of the class whose run was interrupted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassChanges {
    /// Interrupted runs of each counter's dominant class.
    pub dominant: u64,
    /// Interrupted runs of the non-dominant strong class.
    pub non_dominant: u64,
    /// Interrupted runs of weakly-biased substream accesses.
    pub wb: u64,
}

impl ClassChanges {
    /// Total class changes across all counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.dominant + self.non_dominant + self.wb
    }
}

/// Figures 7/8: mispredictions attributed to the bias class of the
/// substream they occurred in, as fractions of all dynamic conditional
/// branches (so the three components sum to the misprediction rate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MispredictionBreakdown {
    /// Mispredictions in strongly-taken substreams.
    pub st: u64,
    /// Mispredictions in strongly-not-taken substreams.
    pub snt: u64,
    /// Mispredictions in weakly-biased substreams.
    pub wb: u64,
    /// All dynamic conditional branches (the denominator).
    pub branches: u64,
}

impl MispredictionBreakdown {
    /// Percent of all branches mispredicted within ST substreams.
    #[must_use]
    pub fn st_percent(&self) -> f64 {
        self.percent(self.st)
    }

    /// Percent of all branches mispredicted within SNT substreams.
    #[must_use]
    pub fn snt_percent(&self) -> f64 {
        self.percent(self.snt)
    }

    /// Percent of all branches mispredicted within WB substreams.
    #[must_use]
    pub fn wb_percent(&self) -> f64 {
        self.percent(self.wb)
    }

    /// Total misprediction rate in percent (the stacked-bar height).
    #[must_use]
    pub fn total_percent(&self) -> f64 {
        self.percent(self.st + self.snt + self.wb)
    }

    fn percent(&self, n: u64) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.branches as f64
        }
    }
}

/// The complete two-pass analysis of one (trace, predictor) pair.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// One entry per counter the predictor exposes, indexed by
    /// [`CounterId`](bpred_core::CounterId).
    pub per_counter: Vec<CounterBias>,
    /// Table 4 class-change counts.
    pub class_changes: ClassChanges,
    /// Figure 7/8 misprediction attribution.
    pub breakdown: MispredictionBreakdown,
    /// Plain accuracy numbers from the attribution pass.
    pub run: RunResult,
    /// Number of distinct (branch, counter) substreams observed.
    pub streams: usize,
}

impl Analysis {
    /// Runs the two-pass analysis. `make` must build a *fresh* predictor
    /// at its power-on state; it is called twice and both instances must
    /// behave identically (all predictors in `bpred-core` do).
    ///
    /// # Panics
    ///
    /// Panics if the predictor does not expose identifiable counters
    /// (`num_counters() == 0`), or if the two passes disagree on a
    /// counter id (a non-deterministic predictor).
    pub fn run<P, F>(trace: &PackedTrace, make: F) -> Analysis
    where
        P: Predictor,
        F: Fn() -> P,
    {
        // ---- pass 1: collect substream statistics ----
        let started = std::time::Instant::now();
        let mut predictor = make();
        let num_counters = predictor.num_counters();
        assert!(
            num_counters > 0,
            "bias analysis needs identifiable counters; {} has none",
            predictor.name()
        );
        let mut streams: HashMap<(u32, usize), StreamStats> = HashMap::new();
        for record in trace.records() {
            let counter = predictor
                .counter_id(record.pc)
                .expect("num_counters > 0 implies counter_id is Some"); // panic-audited: num_counters() > 0 guard at entry implies table-backed counter_id
            streams
                .entry((record.site, counter))
                .or_default()
                .record(record.taken);
            predictor.update(record.pc, record.taken);
        }

        // ---- pass 2: attribute accesses, misses, and changes ----
        let mut predictor = make();
        let mut per_counter = vec![CounterBias::default(); num_counters];
        let mut last_class: Vec<Option<BiasClass>> = vec![None; num_counters];
        let mut changes_at: HashMap<usize, [u64; 3]> = HashMap::new();
        let mut breakdown = MispredictionBreakdown::default();
        let mut run = RunResult::default();

        for record in trace.records() {
            let counter = predictor
                .counter_id(record.pc)
                .expect("num_counters > 0 implies counter_id is Some"); // panic-audited: num_counters() > 0 guard at entry implies table-backed counter_id
            assert!(
                counter < num_counters,
                "pass 2 diverged: counter {counter} out of range"
            );
            let class = streams
                .get(&(record.site, counter))
                .expect("pass 2 diverged: unseen substream") // panic-audited: pass 1 visited every (site, counter) pass 2 can see
                .class();

            let bucket = &mut per_counter[counter];
            match class {
                BiasClass::StronglyTaken => bucket.st += 1,
                BiasClass::StronglyNotTaken => bucket.snt += 1,
                BiasClass::WeaklyBiased => bucket.wb += 1,
            }

            // Class-change accounting: a change interrupts the previous
            // class's run at this counter.
            if let Some(prev) = last_class[counter] {
                if prev != class {
                    let slot = match prev {
                        BiasClass::StronglyTaken => 0,
                        BiasClass::StronglyNotTaken => 1,
                        BiasClass::WeaklyBiased => 2,
                    };
                    changes_at.entry(counter).or_default()[slot] += 1;
                }
            }
            last_class[counter] = Some(class);

            run.branches += 1;
            breakdown.branches += 1;
            if predictor.retire(record.pc, None, record.taken) != record.taken {
                run.mispredictions += 1;
                match class {
                    BiasClass::StronglyTaken => breakdown.st += 1,
                    BiasClass::StronglyNotTaken => breakdown.snt += 1,
                    BiasClass::WeaklyBiased => breakdown.wb += 1,
                }
            }
        }

        // Re-bucket the change counts into counter-relative roles
        // (dominant / non-dominant / WB) now that dominance is known.
        let mut class_changes = ClassChanges::default();
        for (counter, counts) in &changes_at {
            let dominant = per_counter[*counter].dominant_class();
            for (slot, &count) in counts.iter().enumerate() {
                let class = [
                    BiasClass::StronglyTaken,
                    BiasClass::StronglyNotTaken,
                    BiasClass::WeaklyBiased,
                ][slot];
                if class == BiasClass::WeaklyBiased {
                    class_changes.wb += count;
                } else if class == dominant {
                    class_changes.dominant += count;
                } else {
                    class_changes.non_dominant += count;
                }
            }
        }

        // Both passes walk every conditional branch with one config.
        crate::metrics::record_engine_drive(
            crate::metrics::Engine::Scalar,
            2 * run.branches,
            1,
            started.elapsed(),
        );

        Analysis {
            per_counter,
            class_changes,
            breakdown,
            run,
            streams: streams.len(),
        }
    }

    /// Counters sorted by descending WB fraction, then descending
    /// non-dominant fraction — the X-axis ordering of Figures 5 and 6.
    #[must_use]
    pub fn sorted_for_figure(&self) -> Vec<(usize, CounterBias)> {
        let mut rows: Vec<(usize, CounterBias)> =
            self.per_counter.iter().copied().enumerate().collect();
        rows.sort_by(|a, b| {
            let (_, na, wa) = a.1.normalized();
            let (_, nb, wb) = b.1.normalized();
            wb.partial_cmp(&wa)
                .expect("fractions are finite") // panic-audited: normalized() fractions are ratios of finite counts, never NaN
                .then(nb.partial_cmp(&na).expect("fractions are finite")) // panic-audited: normalized() fractions are ratios of finite counts, never NaN
                .then(a.0.cmp(&b.0))
        });
        rows
    }

    /// Aggregate access-weighted fractions `(dominant, non_dominant,
    /// wb)` over all counters — the "area sizes" the paper's prose
    /// compares between Figures 5 and 6.
    #[must_use]
    pub fn area_fractions(&self) -> (f64, f64, f64) {
        let (mut dom, mut non, mut wb) = (0u64, 0u64, 0u64);
        for c in &self.per_counter {
            let (d, n) = if c.st >= c.snt {
                (c.st, c.snt)
            } else {
                (c.snt, c.st)
            };
            dom += d;
            non += n;
            wb += c.wb;
        }
        let total = (dom + non + wb) as f64;
        if total == 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (dom as f64 / total, non as f64 / total, wb as f64 / total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::{BiMode, BiModeConfig, Bimodal, Gshare};
    use bpred_trace::{BranchRecord, Trace};

    fn pack(t: &Trace) -> PackedTrace {
        PackedTrace::build(t).unwrap()
    }

    /// Two opposite-biased branches aliasing onto one bimodal counter.
    fn aliased_trace() -> Trace {
        let s = 4u32;
        let a = 0x1000u64;
        let b = a + (1u64 << (s + 2));
        let mut t = Trace::new("alias");
        for _ in 0..200 {
            t.push(BranchRecord::conditional(a, 0, true));
            t.push(BranchRecord::conditional(b, 0, false));
        }
        t
    }

    #[test]
    fn detects_destructive_aliasing_as_mixed_counter() {
        let t = aliased_trace();
        let analysis = Analysis::run(&pack(&t), || Gshare::new(4, 0));
        // One counter sees both an ST and an SNT substream, 50/50.
        let mixed: Vec<&CounterBias> = analysis
            .per_counter
            .iter()
            .filter(|c| c.st > 0 && c.snt > 0)
            .collect();
        assert_eq!(mixed.len(), 1);
        let (dom, non, wb) = mixed[0].normalized();
        assert!((dom - 0.5).abs() < 1e-12);
        assert!((non - 0.5).abs() < 1e-12);
        assert_eq!(wb, 0.0);
        assert_eq!(analysis.streams, 2);
    }

    #[test]
    fn aliased_counter_produces_class_changes_and_misses() {
        let t = aliased_trace();
        let analysis = Analysis::run(&pack(&t), || Gshare::new(4, 0));
        // The two streams strictly alternate: ~399 changes.
        assert!(analysis.class_changes.total() >= 398);
        // Attribution: the SNT stream eats the mispredictions (the
        // counter oscillates between weakly/strongly taken).
        assert!(analysis.breakdown.snt > 150);
        assert_eq!(analysis.breakdown.wb, 0);
        assert_eq!(
            analysis.run.mispredictions,
            analysis.breakdown.st + analysis.breakdown.snt + analysis.breakdown.wb
        );
    }

    #[test]
    fn bimode_separates_the_same_aliases() {
        let t = aliased_trace();
        let analysis = Analysis::run(&pack(&t), || BiMode::new(BiModeConfig::new(4, 8, 0)));
        // Until the choice predictor steers the not-taken branch to bank
        // 0 (a couple of accesses), the taken bank briefly sees both
        // streams; after that no counter mixes strong classes. So the
        // minority share at every counter must be a transient, not the
        // persistent 50% gshare suffers.
        for c in &analysis.per_counter {
            let minority = c.st.min(c.snt);
            assert!(minority <= 3, "persistent class mixing at a counter: {c:?}");
        }
        assert!(analysis.class_changes.total() <= 4);
        assert!(analysis.run.mispredictions < 10);
    }

    #[test]
    fn weakly_biased_stream_is_classified_wb() {
        let mut t = Trace::new("wb");
        for i in 0..100 {
            t.push(BranchRecord::conditional(0x40, 0, i % 2 == 0));
        }
        let analysis = Analysis::run(&pack(&t), || Bimodal::new(4));
        let total_wb: u64 = analysis.per_counter.iter().map(|c| c.wb).sum();
        assert_eq!(total_wb, 100);
        let (_, _, wb_area) = analysis.area_fractions();
        assert!((wb_area - 1.0).abs() < 1e-12);
        assert_eq!(analysis.breakdown.wb, analysis.run.mispredictions);
    }

    #[test]
    fn attribution_pass_matches_plain_measurement() {
        let t = aliased_trace();
        let analysis = Analysis::run(&pack(&t), || Gshare::new(6, 4));
        let plain = crate::simulate::measure(&t, &mut Gshare::new(6, 4));
        assert_eq!(
            analysis.run, plain,
            "two-pass must not perturb the simulation"
        );
    }

    #[test]
    fn figure_sort_puts_wb_heavy_counters_first() {
        let mut t = Trace::new("mix");
        // Branch A alternates (WB) on one counter; branch B is ST on
        // another.
        for i in 0..100 {
            t.push(BranchRecord::conditional(0x40, 0, i % 2 == 0));
            t.push(BranchRecord::conditional(0x44, 0, true));
        }
        let analysis = Analysis::run(&pack(&t), || Bimodal::new(4));
        let sorted = analysis.sorted_for_figure();
        let (_, _, first_wb) = sorted[0].1.normalized();
        assert!(
            (first_wb - 1.0).abs() < 1e-12,
            "WB-heavy counter must sort first"
        );
    }

    #[test]
    fn dominant_class_tie_break_prefers_taken() {
        let c = CounterBias {
            st: 5,
            snt: 5,
            wb: 0,
        };
        assert_eq!(c.dominant_class(), BiasClass::StronglyTaken);
    }

    #[test]
    #[should_panic(expected = "identifiable counters")]
    fn rejects_predictors_without_counters() {
        let t = aliased_trace();
        let _ = Analysis::run(&pack(&t), || bpred_core::AlwaysTaken);
    }

    #[test]
    fn breakdown_percentages_sum_to_total() {
        let t = aliased_trace();
        let a = Analysis::run(&pack(&t), || Gshare::new(5, 3));
        let sum = a.breakdown.st_percent() + a.breakdown.snt_percent() + a.breakdown.wb_percent();
        assert!((sum - a.breakdown.total_percent()).abs() < 1e-9);
        assert!((a.breakdown.total_percent() - a.run.misprediction_percent()).abs() < 1e-9);
    }
}
