//! 2bc-gskew (Seznec & Michaud's de-aliased hybrid, the Alpha EV8
//! lineage): a bimodal bank, two skewed global-history banks with
//! different history lengths, and a meta chooser between the bimodal
//! prediction and the three-way e-gskew majority.
//!
//! Included as the end point of the de-aliasing lineage the bi-mode
//! paper opens (Section 2.1 cites the skewed predictor; 2bc-gskew is
//! its hybrid refinement), for the `compare-dealias` experiment.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::GlobalHistory;
use crate::index::{gshare_index, low_bits, pc_word, skew_index};
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// A 2bc-gskew predictor: four `2^bank_bits` banks (BIM, G0, G1, META).
#[derive(Debug, Clone)]
pub struct TwoBcGskew {
    bim: CounterTable,
    g0: CounterTable,
    g1: CounterTable,
    meta: CounterTable,
    history: GlobalHistory,
    bank_bits: u32,
    short_history: u32,
    long_history: u32,
}

#[derive(Debug, Clone, Copy)]
struct Lookup {
    bim_index: usize,
    g0_index: usize,
    g1_index: usize,
    meta_index: usize,
    bim: bool,
    g0: bool,
    g1: bool,
    egskew: bool,
    use_egskew: bool,
    prediction: bool,
}

impl TwoBcGskew {
    /// Creates a 2bc-gskew with `2^bank_bits` counters per bank and a
    /// `long_history`-bit global history (the short history is half of
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if `bank_bits` is zero or greater than 30, or
    /// `long_history > bank_bits`.
    #[must_use]
    pub fn new(bank_bits: u32, long_history: u32) -> Self {
        assert!(
            (1..=30).contains(&bank_bits),
            "2bc-gskew bank index must be 1..=30 bits, got {bank_bits}"
        );
        assert!(
            long_history <= bank_bits,
            "2bc-gskew history ({long_history}) must not exceed bank index bits ({bank_bits})"
        );
        Self {
            bim: CounterTable::new(bank_bits, Counter2::WEAKLY_TAKEN),
            g0: CounterTable::new(bank_bits, Counter2::WEAKLY_TAKEN),
            g1: CounterTable::new(bank_bits, Counter2::WEAKLY_TAKEN),
            meta: CounterTable::new(bank_bits, Counter2::WEAKLY_TAKEN),
            history: GlobalHistory::new(long_history),
            bank_bits,
            short_history: long_history / 2,
            long_history,
        }
    }

    fn lookup(&self, pc: u64) -> Lookup {
        let hist = self.history.value();
        let bim_index = low_bits(pc_word(pc), self.bank_bits) as usize;
        let g0_index = skew_index(pc, hist, self.bank_bits, self.short_history, 1);
        let g1_index = skew_index(pc, hist, self.bank_bits, self.long_history, 2);
        let meta_index = gshare_index(pc, hist, self.bank_bits, self.short_history);
        let bim = self.bim.predict(bim_index);
        let g0 = self.g0.predict(g0_index);
        let g1 = self.g1.predict(g1_index);
        let egskew = (u8::from(bim) + u8::from(g0) + u8::from(g1)) >= 2;
        let use_egskew = self.meta.predict(meta_index);
        let prediction = if use_egskew { egskew } else { bim };
        Lookup {
            bim_index,
            g0_index,
            g1_index,
            meta_index,
            bim,
            g0,
            g1,
            egskew,
            use_egskew,
            prediction,
        }
    }

    /// Whether the meta chooser currently selects the e-gskew majority
    /// (rather than the bimodal bank) for `pc`.
    #[must_use]
    pub fn uses_egskew(&self, pc: u64) -> bool {
        self.lookup(pc).use_egskew
    }
}

impl Predictor for TwoBcGskew {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("2bc-gskew(s={},h={})", self.bank_bits, self.long_history)
    }

    fn predict(&self, pc: u64) -> bool {
        self.lookup(pc).prediction
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let l = self.lookup(pc);
        let correct = l.prediction == taken;

        // Meta: trains only when the two components disagree, toward
        // whichever was right.
        if l.bim != l.egskew {
            self.meta.update(l.meta_index, l.egskew == taken);
        }

        if correct {
            // Partial update: strengthen only the participating banks
            // that voted for the (correct) prediction.
            if l.use_egskew {
                if l.bim == taken {
                    self.bim.update(l.bim_index, taken);
                }
                if l.g0 == taken {
                    self.g0.update(l.g0_index, taken);
                }
                if l.g1 == taken {
                    self.g1.update(l.g1_index, taken);
                }
            } else {
                self.bim.update(l.bim_index, taken);
            }
        } else {
            // Total reallocation on a misprediction.
            self.bim.update(l.bim_index, taken);
            self.g0.update(l.g0_index, taken);
            self.g1.update(l.g1_index, taken);
        }

        self.history.push(taken);
        l.prediction
    }

    fn cost(&self) -> Cost {
        Cost {
            state_bits: self.bim.storage_bits()
                + self.g0.storage_bits()
                + self.g1.storage_bits()
                + self.meta.storage_bits(),
            metadata_bits: u64::from(self.long_history),
        }
    }

    fn reset(&mut self) {
        self.bim.reset();
        self.g0.reset();
        self.g1.reset();
        self.meta.reset();
        self.history.reset();
    }

    // Majority voting has no single final-direction counter when the
    // e-gskew side is selected, so the bias analysis does not apply.
    fn counter_id(&self, _pc: u64) -> Option<CounterId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branches() {
        // Measure in program order (predict immediately before update),
        // so each query sees the same history context it trains in.
        let mut p = TwoBcGskew::new(8, 8);
        let (a, b) = (0x1000u64, 0x1004u64);
        let mut late_miss = 0;
        for i in 0..200 {
            for (pc, taken) in [(a, true), (b, false)] {
                if i >= 20 && p.predict(pc) != taken {
                    late_miss += 1;
                }
                p.update(pc, taken);
            }
        }
        assert_eq!(late_miss, 0, "both biased branches must be learned");
    }

    #[test]
    fn learns_history_patterns_through_the_g_banks() {
        let mut p = TwoBcGskew::new(10, 10);
        let pc = 0x2000;
        let mut late_miss = 0;
        for i in 0..2000 {
            let taken = i % 4 == 0;
            if i >= 500 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
        }
        assert!(
            late_miss <= 4,
            "period-4 pattern must be learned ({late_miss})"
        );
    }

    #[test]
    fn meta_rescues_bimodal_friendly_branches_under_history_noise() {
        // One strongly biased branch surrounded by noise branches that
        // churn the global history: the tiny G banks alias, the bimodal
        // bank is stable, so the meta chooser must protect the branch.
        let mut p = TwoBcGskew::new(5, 5); // 32-entry banks
        let target = 0x4000u64;
        let mut x = 0x12345u64;
        let mut late_miss = 0;
        for i in 0..4000 {
            // three noise branches with pseudo-random outcomes
            for n in 0..3u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                p.update(0x5000 + n * 4, x & 1 == 1);
            }
            if i >= 1000 && !p.predict(target) {
                late_miss += 1;
            }
            p.update(target, true);
        }
        assert!(
            late_miss <= 40,
            "meta must shield the biased branch from G-bank noise ({late_miss}/3000)"
        );
    }

    #[test]
    fn update_is_partial_on_correct_predictions() {
        let mut p = TwoBcGskew::new(6, 6);
        let pc = 0x1000;
        for _ in 0..6 {
            p.update(pc, true);
        }
        // Force G0 to dissent, then predict correctly via majority.
        let l = p.lookup(pc);
        for _ in 0..3 {
            p.g0.update(l.g0_index, false);
        }
        let dissent = p.g0.counter(p.lookup(pc).g0_index);
        let before_meta = p.meta.counter(p.lookup(pc).meta_index);
        p.update(pc, true); // correct (bim=g1=taken)
        assert_eq!(
            p.g0.counter(l.g0_index),
            dissent,
            "a dissenting bank must not strengthen on a correct prediction"
        );
        let _ = before_meta;
    }

    #[test]
    fn all_banks_train_on_misprediction() {
        let mut p = TwoBcGskew::new(6, 0);
        let pc = 0x1000;
        let l = p.lookup(pc);
        assert!(l.prediction, "fresh state predicts taken");
        p.update(pc, false);
        let l2 = p.lookup(pc);
        // With zero history the indices are unchanged; every bank must
        // have moved one step toward not-taken.
        assert_eq!(p.bim.counter(l2.bim_index).state(), 1);
        assert_eq!(p.g0.counter(l2.g0_index).state(), 1);
        assert_eq!(p.g1.counter(l2.g1_index).state(), 1);
    }

    #[test]
    fn cost_counts_four_banks() {
        let p = TwoBcGskew::new(8, 8);
        assert_eq!(p.cost().state_bits, 4 * 2 * 256);
        assert_eq!(p.cost().metadata_bits, 8);
        assert_eq!(p.num_counters(), 0, "majority vote: no single counter");
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut p = TwoBcGskew::new(6, 6);
        for i in 0..300u64 {
            p.update(0x1000 + (i % 11) * 4, i % 3 == 0);
        }
        p.reset();
        let fresh = TwoBcGskew::new(6, 6);
        for pc in (0..64u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn rejects_overlong_history() {
        let _ = TwoBcGskew::new(6, 7);
    }
}
