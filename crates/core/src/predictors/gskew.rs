//! The skewed branch predictor (\[MichaudSeznecUhlig97\], the hardware-
//! hashing scheme Section 2.1 compares bi-mode against): three counter
//! banks indexed by distinct hash functions, combined by majority vote.
//!
//! Update follows the original partial-update policy: on a correct
//! prediction only the banks that voted with the majority are trained;
//! on a misprediction all three banks are trained (total reallocation).

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::GlobalHistory;
use crate::index::skew_index;
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// Per-bank training policy for [`Gskew`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GskewUpdate {
    /// Seznec's policy: train all banks on a misprediction, only the
    /// majority-agreeing banks on a correct prediction.
    #[default]
    Partial,
    /// Train every bank on every branch (ablation).
    Total,
}

/// A three-bank skewed predictor with `2^bank_bits` counters per bank.
#[derive(Debug, Clone)]
pub struct Gskew {
    banks: [CounterTable; 3],
    history: GlobalHistory,
    bank_bits: u32,
    history_bits: u32,
    update: GskewUpdate,
}

impl Gskew {
    /// Creates a gskew predictor with the default partial-update policy.
    ///
    /// # Panics
    ///
    /// Panics if `bank_bits` is zero or greater than 30.
    #[must_use]
    pub fn new(bank_bits: u32, history_bits: u32) -> Self {
        Self::with_update(bank_bits, history_bits, GskewUpdate::Partial)
    }

    /// Creates a gskew predictor with an explicit update policy.
    ///
    /// # Panics
    ///
    /// Panics if `bank_bits` is zero or greater than 30.
    #[must_use]
    pub fn with_update(bank_bits: u32, history_bits: u32, update: GskewUpdate) -> Self {
        assert!(
            (1..=30).contains(&bank_bits),
            "gskew bank index must be 1..=30 bits, got {bank_bits}"
        );
        Self {
            banks: std::array::from_fn(|_| CounterTable::new(bank_bits, Counter2::WEAKLY_TAKEN)),
            history: GlobalHistory::new(history_bits),
            bank_bits,
            history_bits,
            update,
        }
    }

    fn indices(&self, pc: u64) -> [usize; 3] {
        std::array::from_fn(|bank| {
            skew_index(
                pc,
                self.history.value(),
                self.bank_bits,
                self.history_bits,
                bank,
            )
        })
    }

    /// Each bank's vote at `idx`, and their majority.
    fn votes(&self, idx: [usize; 3]) -> ([bool; 3], bool) {
        let v: [bool; 3] = std::array::from_fn(|b| self.banks[b].predict(idx[b]));
        (v, (u8::from(v[0]) + u8::from(v[1]) + u8::from(v[2])) >= 2)
    }
}

impl Predictor for Gskew {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("gskew(s={},h={})", self.bank_bits, self.history_bits)
    }

    fn predict(&self, pc: u64) -> bool {
        self.votes(self.indices(pc)).1
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let idx = self.indices(pc);
        let (votes, majority) = self.votes(idx);
        let correct = majority == taken;
        for bank in 0..3 {
            let train = match self.update {
                GskewUpdate::Total => true,
                GskewUpdate::Partial => !correct || votes[bank] == majority,
            };
            if train {
                self.banks[bank].update(idx[bank], taken);
            }
        }
        self.history.push(taken);
        majority
    }

    fn cost(&self) -> Cost {
        Cost {
            state_bits: self.banks.iter().map(CounterTable::storage_bits).sum(),
            metadata_bits: u64::from(self.history_bits),
        }
    }

    fn reset(&mut self) {
        for b in &mut self.banks {
            b.reset();
        }
        self.history.reset();
    }

    // Majority voting has no single final-direction counter, so the
    // bias-class analysis does not apply; counter_id stays None.
    fn counter_id(&self, _pc: u64) -> Option<CounterId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Gskew::new(8, 6);
        let pc = 0x1000;
        for _ in 0..8 {
            p.update(pc, false);
        }
        assert!(!p.predict(pc));
    }

    #[test]
    fn majority_tolerates_single_bank_corruption() {
        // Corrupt one bank's entry via an aliasing write pattern; the
        // other two banks out-vote it.
        let mut p = Gskew::new(6, 0);
        let pc = 0x1000;
        for _ in 0..4 {
            p.update(pc, true);
        }
        // Directly damage bank 0's counter for this pc.
        let idx = p.indices(pc);
        p.banks[0].update(idx[0], false);
        p.banks[0].update(idx[0], false);
        p.banks[0].update(idx[0], false);
        assert!(!p.banks[0].predict(idx[0]));
        assert!(
            p.predict(pc),
            "two honest banks must out-vote one corrupted bank"
        );
    }

    #[test]
    fn partial_update_leaves_dissenters_alone_on_correct_prediction() {
        let mut p = Gskew::new(6, 0);
        let pc = 0x1000;
        for _ in 0..4 {
            p.update(pc, true);
        }
        let idx = p.indices(pc);
        // Make bank 2 dissent.
        for _ in 0..3 {
            p.banks[2].update(idx[2], false);
        }
        let dissent_state = p.banks[2].counter(idx[2]);
        p.update(pc, true); // correct majority prediction
        assert_eq!(
            p.banks[2].counter(idx[2]),
            dissent_state,
            "dissenting bank must not be trained on a correct prediction"
        );
    }

    #[test]
    fn all_banks_train_on_misprediction() {
        let mut p = Gskew::new(6, 0);
        let pc = 0x1000;
        let idx = p.indices(pc);
        let before: Vec<Counter2> = (0..3).map(|b| p.banks[b].counter(idx[b])).collect();
        // Fresh state predicts taken; a not-taken outcome mispredicts.
        assert!(p.predict(pc));
        p.update(pc, false);
        for bank in 0..3 {
            assert_eq!(
                p.banks[bank].counter(idx[bank]),
                before[bank].updated(false),
                "bank {bank} must train on a misprediction"
            );
        }
    }

    #[test]
    fn survives_pairwise_aliasing_better_than_gshare() {
        // Many branches with mixed biases in a tiny table: majority
        // voting over skewed indices should beat a same-state gshare.
        use crate::predictors::gshare::Gshare;
        let mut gskew = Gskew::new(5, 5); // 3 * 32 counters = 96
        let mut gshare = Gshare::new(7, 7); // 128 counters (more state!)
        let mut skew_miss = 0u32;
        let mut share_miss = 0u32;
        let branches: Vec<(u64, bool)> = (0..48).map(|i| (0x4000 + i * 4, i % 2 == 0)).collect();
        for round in 0..200 {
            for &(pc, t) in &branches {
                if round >= 50 {
                    skew_miss += u32::from(gskew.predict(pc) != t);
                    share_miss += u32::from(gshare.predict(pc) != t);
                }
                gskew.update(pc, t);
                gshare.update(pc, t);
            }
        }
        assert!(
            skew_miss <= share_miss,
            "gskew ({skew_miss}) should not lose to gshare ({share_miss}) under heavy aliasing"
        );
    }

    #[test]
    fn cost_counts_three_banks() {
        let p = Gskew::new(8, 8);
        assert_eq!(p.cost().state_bits, 3 * 2 * 256);
        assert_eq!(p.counter_id(0x1000), None);
        assert_eq!(p.num_counters(), 0);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut p = Gskew::new(6, 4);
        for i in 0..100u64 {
            p.update(0x1000 + (i % 9) * 4, i % 2 == 0);
        }
        p.reset();
        let fresh = Gskew::new(6, 4);
        for pc in (0..64u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
        }
    }
}
