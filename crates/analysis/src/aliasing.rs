//! Alias taxonomy: quantifies Section 2.2's central claim directly.
//!
//! "The effect of the choice predictor is to separate the destructive
//! aliases while keeping the harmless aliases together."
//!
//! Two static branches *alias* when the index function ever sends both
//! to the same counter. An alias pair is classified by the bias classes
//! of the two substreams meeting at that counter:
//!
//! * **harmless** — both strongly biased in the *same* direction (they
//!   reinforce the counter);
//! * **destructive** — strongly biased in *opposite* directions (they
//!   fight over the counter, the paper's §2.1 failure mode);
//! * **neutral** — at least one side weakly biased (the counter was
//!   never going to be stable for it anyway).
//!
//! [`AliasReport::measure`] runs a predictor over a packed trace,
//! collects the per-(branch, counter) substreams, and classifies every
//! colliding pair at every counter, weighting each pair by the traffic
//! of its smaller stream (a pair that meets twice matters less than one
//! that meets a million times).

use std::collections::HashMap;

use bpred_core::Predictor;
use bpred_trace::PackedTrace;

use crate::bias::{BiasClass, StreamStats};

/// Alias-pair counts and traffic weights for one (trace, predictor)
/// pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AliasReport {
    /// Distinct (branch, counter) substreams observed.
    pub streams: usize,
    /// Counters touched by at least one substream.
    pub counters_used: usize,
    /// Counters shared by more than one static branch.
    pub counters_shared: usize,
    /// Same-direction strongly-biased pairs.
    pub harmless_pairs: u64,
    /// Opposite-direction strongly-biased pairs.
    pub destructive_pairs: u64,
    /// Pairs involving a weakly-biased substream.
    pub neutral_pairs: u64,
    /// Traffic-weighted harmless aliasing (sum of min stream lengths).
    pub harmless_weight: u64,
    /// Traffic-weighted destructive aliasing.
    pub destructive_weight: u64,
    /// Traffic-weighted neutral aliasing.
    pub neutral_weight: u64,
}

impl AliasReport {
    /// Measures the alias taxonomy of `make()`'s predictor over `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the predictor exposes no identifiable counters.
    pub fn measure<P, F>(trace: &PackedTrace, make: F) -> AliasReport
    where
        P: Predictor,
        F: Fn() -> P,
    {
        let mut predictor = make();
        assert!(
            predictor.num_counters() > 0,
            "alias analysis needs identifiable counters; {} has none",
            predictor.name()
        );
        // counter -> (branch site -> stream stats)
        let started = std::time::Instant::now();
        let mut by_counter: HashMap<usize, HashMap<u32, StreamStats>> = HashMap::new();
        for record in trace.records() {
            let counter = predictor
                .counter_id(record.pc)
                .expect("num_counters > 0 implies counter_id is Some"); // panic-audited: num_counters() > 0 guard at entry implies table-backed counter_id
            by_counter
                .entry(counter)
                .or_default()
                .entry(record.site)
                .or_default()
                .record(record.taken);
            predictor.update(record.pc, record.taken);
        }

        // One pass over every conditional branch with one config.
        crate::metrics::record_engine_drive(
            crate::metrics::Engine::Scalar,
            trace.len() as u64,
            1,
            started.elapsed(),
        );

        let mut report = AliasReport {
            counters_used: by_counter.len(),
            ..AliasReport::default()
        };
        for branches in by_counter.values() {
            report.streams += branches.len();
            if branches.len() < 2 {
                continue;
            }
            report.counters_shared += 1;
            let entries: Vec<&StreamStats> = branches.values().collect();
            for (i, a) in entries.iter().enumerate() {
                for b in &entries[i + 1..] {
                    let weight = a.total.min(b.total);
                    match (a.class(), b.class()) {
                        (BiasClass::WeaklyBiased, _) | (_, BiasClass::WeaklyBiased) => {
                            report.neutral_pairs += 1;
                            report.neutral_weight += weight;
                        }
                        (x, y) if x == y => {
                            report.harmless_pairs += 1;
                            report.harmless_weight += weight;
                        }
                        _ => {
                            report.destructive_pairs += 1;
                            report.destructive_weight += weight;
                        }
                    }
                }
            }
        }
        report
    }

    /// Total alias pairs of all kinds.
    #[must_use]
    pub fn total_pairs(&self) -> u64 {
        self.harmless_pairs + self.destructive_pairs + self.neutral_pairs
    }

    /// Destructive share of the traffic-weighted aliasing, in `[0, 1]`
    /// (0 when there is no aliasing at all).
    #[must_use]
    pub fn destructive_fraction(&self) -> f64 {
        let total = self.harmless_weight + self.destructive_weight + self.neutral_weight;
        if total == 0 {
            0.0
        } else {
            self.destructive_weight as f64 / total as f64
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

    /// Branches colliding in a 16-entry table: two same-biased, one
    /// opposite, one weak.
    fn collision_trace() -> Trace {
        let mut t = Trace::new("collisions");
        let stride = 1u64 << (4 + 2); // wraps a 2^4 table
        let base = 0x1000u64;
        for i in 0..300u64 {
            t.push(BranchRecord::conditional(base, 0, true)); // ST
            t.push(BranchRecord::conditional(base + stride, 0, true)); // ST (harmless)
            t.push(BranchRecord::conditional(base + 2 * stride, 0, false)); // SNT (destructive)
            t.push(BranchRecord::conditional(base + 3 * stride, 0, i % 2 == 0));
            // WB (neutral)
        }
        t
    }

    #[test]
    fn classifies_pairs_on_a_shared_counter() {
        let report = AliasReport::measure(&pack(&collision_trace()), || Bimodal::new(4));
        // Four streams on one counter: C(4,2) = 6 pairs.
        assert_eq!(report.streams, 4);
        assert_eq!(report.counters_used, 1);
        assert_eq!(report.counters_shared, 1);
        assert_eq!(report.harmless_pairs, 1, "ST+ST");
        assert_eq!(report.destructive_pairs, 2, "ST+SNT twice");
        assert_eq!(report.neutral_pairs, 3, "WB against each of the others");
        assert_eq!(report.total_pairs(), 6);
        assert!(report.destructive_fraction() > 0.0);
    }

    #[test]
    fn no_aliasing_in_a_large_table() {
        let report = AliasReport::measure(&pack(&collision_trace()), || Bimodal::new(12));
        assert_eq!(report.counters_shared, 0);
        assert_eq!(report.total_pairs(), 0);
        assert_eq!(report.destructive_fraction(), 0.0);
        assert_eq!(report.counters_used, 4);
    }

    #[test]
    fn bimode_converts_destructive_aliases_to_harmless() {
        // The paper's claim, measured: at matching direction-bank size,
        // bi-mode's destructive weight collapses relative to gshare
        // because opposite-biased branches go to different banks.
        let t = collision_trace();
        let gshare = AliasReport::measure(&pack(&t), || Gshare::new(4, 0));
        let bimode = AliasReport::measure(&pack(&t), || BiMode::new(BiModeConfig::new(4, 10, 0)));
        assert!(gshare.destructive_weight > 0);
        assert!(
            bimode.destructive_weight * 10 < gshare.destructive_weight,
            "bi-mode {} vs gshare {}",
            bimode.destructive_weight,
            gshare.destructive_weight
        );
        // The same-direction pair may stay together (harmless).
        assert!(bimode.destructive_fraction() < gshare.destructive_fraction());
    }

    #[test]
    fn weights_scale_with_traffic() {
        let mut t = Trace::new("w");
        let stride = 1u64 << 6;
        // Short ST stream against long SNT stream: weight = min = 10.
        for _ in 0..10 {
            t.push(BranchRecord::conditional(0x1000, 0, true));
        }
        for _ in 0..1000 {
            t.push(BranchRecord::conditional(0x1000 + stride, 0, false));
        }
        let report = AliasReport::measure(&pack(&t), || Bimodal::new(4));
        assert_eq!(report.destructive_pairs, 1);
        assert_eq!(report.destructive_weight, 10);
    }
}
