//! A tri-mode predictor: this reproduction's implementation of the
//! bi-mode paper's stated future-work direction.
//!
//! Section 5: "there are at least two directions for the future work:
//! one is to find a cost-effective way to reduce the weakly biased
//! substreams, and the other is to further separate the weakly-biased
//! substreams from the strongly-biased substreams for the counters."
//!
//! This predictor takes the second direction literally: a third
//! direction bank is reserved for branches the choice stage classifies
//! as *weakly biased*, so their thrashy substreams stop polluting the
//! two strongly-biased banks. Classification uses a per-address
//! three-bit *conflict counter* with asymmetric update (+2 when the
//! choice direction disagrees with the outcome, -1 when it agrees):
//! a branch whose choice direction keeps losing — which is exactly
//! what weak bias looks like from the choice table's seat — saturates
//! the counter and is quarantined, while a 90%-biased branch's
//! occasional conflicts are outweighed by its agreements.
//!
//! This is an extension beyond the paper (evaluated in the
//! `future-trimode` experiment), not a reproduction artefact.

use crate::cost::Cost;
use crate::counter::{Counter2, SatCounter};
use crate::history::GlobalHistory;
use crate::index::{gshare_index, low_bits, pc_word};
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// Configuration for a [`TriMode`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriModeConfig {
    /// log2 of each of the three direction banks.
    pub direction_bits: u32,
    /// log2 of the choice and conflict tables.
    pub choice_bits: u32,
    /// Global history length (`<= direction_bits`).
    pub history_bits: u32,
}

impl TriModeConfig {
    /// Same-shape default as [`BiModeConfig::paper_default`]
    /// (choice/history sized to the banks).
    ///
    /// [`BiModeConfig::paper_default`]: crate::BiModeConfig::paper_default
    #[must_use]
    pub fn new(direction_bits: u32, choice_bits: u32, history_bits: u32) -> Self {
        Self {
            direction_bits,
            choice_bits,
            history_bits,
        }
    }
}

/// Which bank a lookup selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    NotTaken = 0,
    Taken = 1,
    Weak = 2,
}

/// The tri-mode predictor: bi-mode plus a weak bank.
#[derive(Debug, Clone)]
pub struct TriMode {
    config: TriModeConfig,
    choice: CounterTable,
    conflict: Vec<SatCounter>,
    banks: [CounterTable; 3],
    history: GlobalHistory,
}

#[derive(Debug, Clone, Copy)]
struct Lookup {
    choice_index: usize,
    choice_taken: bool,
    mode: Mode,
    direction_index: usize,
    prediction: bool,
}

impl TriMode {
    /// Creates a tri-mode predictor.
    ///
    /// # Panics
    ///
    /// Panics if any width exceeds 30 bits or
    /// `history_bits > direction_bits`.
    #[must_use]
    pub fn new(config: TriModeConfig) -> Self {
        assert!(
            config.history_bits <= config.direction_bits,
            "tri-mode history ({}) must not exceed direction index bits ({})",
            config.history_bits,
            config.direction_bits
        );
        Self {
            config,
            choice: CounterTable::new(config.choice_bits, Counter2::WEAKLY_TAKEN),
            // Conflict counters start at "no conflict".
            conflict: vec![SatCounter::new(3, 0); 1 << config.choice_bits],
            banks: [
                CounterTable::new(config.direction_bits, Counter2::WEAKLY_NOT_TAKEN),
                CounterTable::new(config.direction_bits, Counter2::WEAKLY_TAKEN),
                CounterTable::new(config.direction_bits, Counter2::WEAKLY_TAKEN),
            ],
            history: GlobalHistory::new(config.history_bits),
        }
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub fn config(&self) -> &TriModeConfig {
        &self.config
    }

    fn lookup(&self, pc: u64) -> Lookup {
        let choice_index = low_bits(pc_word(pc), self.config.choice_bits) as usize;
        let choice_taken = self.choice.predict(choice_index);
        // A "conflicted" branch (its choice direction keeps losing) is
        // routed to the weak bank.
        let mode = if self.conflict[choice_index].predict() {
            Mode::Weak
        } else if choice_taken {
            Mode::Taken
        } else {
            Mode::NotTaken
        };
        let direction_index = gshare_index(
            pc,
            self.history.value(),
            self.config.direction_bits,
            self.config.history_bits,
        );
        let prediction = self.banks[mode as usize].predict(direction_index);
        Lookup {
            choice_index,
            choice_taken,
            mode,
            direction_index,
            prediction,
        }
    }

    /// The currently selected bank for `pc` (0 = not-taken, 1 = taken,
    /// 2 = weak).
    #[must_use]
    pub fn selected_bank(&self, pc: u64) -> usize {
        self.lookup(pc).mode as usize
    }

    /// White-box snapshot of exactly the state one prediction consults,
    /// for the `bpred-check` policy oracle (the tri-mode analogue of
    /// [`BiMode::probe`](crate::BiMode::probe)).
    #[must_use]
    pub fn probe(&self, pc: u64) -> TriModeProbe {
        let l = self.lookup(pc);
        TriModeProbe {
            choice_index: l.choice_index,
            choice_state: self.choice.counter(l.choice_index).state(),
            conflict_value: self.conflict[l.choice_index].value(),
            bank: l.mode as usize,
            direction_index: l.direction_index,
            direction_state: self.banks[l.mode as usize]
                .counter(l.direction_index)
                .state(),
            prediction: l.prediction,
            history: self.history.value(),
        }
    }

    /// The choice counter at `index` (oracle hook).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the choice table.
    #[must_use]
    pub fn choice_counter(&self, index: usize) -> Counter2 {
        self.choice.counter(index)
    }

    /// The conflict counter value at `index` (oracle hook).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the conflict table.
    #[must_use]
    pub fn conflict_value(&self, index: usize) -> u16 {
        self.conflict[index].value()
    }

    /// The direction counter at (`bank`, `index`) (oracle hook).
    ///
    /// # Panics
    ///
    /// Panics if `bank > 2` or `index` is out of range for the bank.
    #[must_use]
    pub fn direction_counter(&self, bank: usize, index: usize) -> Counter2 {
        self.banks[bank].counter(index)
    }

    /// The current global history pattern (oracle hook).
    #[must_use]
    pub fn history_value(&self) -> u64 {
        self.history.value()
    }
}

/// A white-box view of one tri-mode lookup, exposed so an external
/// policy oracle can verify the update rules transition by transition.
/// See [`TriMode::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriModeProbe {
    /// Index consulted in the choice and conflict tables.
    pub choice_index: usize,
    /// Raw state (`0..=3`) of that choice counter.
    pub choice_state: u8,
    /// Value of the three-bit conflict counter.
    pub conflict_value: u16,
    /// Selected bank (0 = not-taken, 1 = taken, 2 = weak).
    pub bank: usize,
    /// Index consulted in the selected bank.
    pub direction_index: usize,
    /// Raw state (`0..=3`) of the selected direction counter.
    pub direction_state: u8,
    /// The final prediction the lookup produces.
    pub prediction: bool,
    /// Global history value at lookup time.
    pub history: u64,
}

impl Predictor for TriMode {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "tri-mode(d={},c={},h={})",
            self.config.direction_bits, self.config.choice_bits, self.config.history_bits
        )
    }

    fn predict(&self, pc: u64) -> bool {
        self.lookup(pc).prediction
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let l = self.lookup(pc);

        // Train only the selected bank, as in bi-mode.
        self.banks[l.mode as usize].update(l.direction_index, taken);

        // Conflict counter: +2 on disagreement, -1 on agreement, so a
        // persistent ~50% conflict rate saturates it while a ~10% rate
        // cannot.
        if l.choice_taken != taken {
            self.conflict[l.choice_index].update(true);
            self.conflict[l.choice_index].update(true);
        } else {
            self.conflict[l.choice_index].update(false);
        }

        // Choice follows the bi-mode partial-update rule.
        let save = l.choice_taken != taken && l.prediction == taken;
        if !save {
            self.choice.update(l.choice_index, taken);
        }

        self.history.push(taken);
        l.prediction
    }

    fn cost(&self) -> Cost {
        Cost {
            state_bits: self.choice.storage_bits()
                + 3 * self.conflict.len() as u64
                + self
                    .banks
                    .iter()
                    .map(CounterTable::storage_bits)
                    .sum::<u64>(),
            metadata_bits: u64::from(self.config.history_bits),
        }
    }

    fn reset(&mut self) {
        self.choice.reset();
        self.conflict
            .iter_mut()
            .for_each(|c| *c = SatCounter::new(3, 0));
        for b in &mut self.banks {
            b.reset();
        }
        self.history.reset();
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        let l = self.lookup(pc);
        Some(l.mode as usize * self.banks[0].len() + l.direction_index)
    }

    fn num_counters(&self) -> usize {
        3 * self.banks[0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TriMode {
        TriMode::new(TriModeConfig::new(6, 8, 6))
    }

    #[test]
    fn biased_branches_stay_in_direction_banks() {
        let mut p = small();
        let (a, b) = (0x1000u64, 0x1004u64);
        for _ in 0..50 {
            p.update(a, true);
            p.update(b, false);
        }
        assert_eq!(p.selected_bank(a), 1, "taken-biased branch in taken bank");
        assert_eq!(p.selected_bank(b), 0, "not-taken-biased branch in NT bank");
        assert!(p.predict(a));
        assert!(!p.predict(b));
    }

    #[test]
    fn weakly_biased_branch_migrates_to_weak_bank() {
        let mut p = small();
        let pc = 0x2000;
        // Random-ish alternation keeps the choice direction losing.
        for i in 0..100 {
            p.update(pc, i % 2 == 0);
        }
        assert_eq!(
            p.selected_bank(pc),
            2,
            "alternating branch must use the weak bank"
        );
    }

    #[test]
    fn weak_branch_stops_polluting_strong_banks() {
        let mut p = small();
        let weak = 0x3000u64;
        let strong = weak + (1u64 << (6 + 2)); // same direction index
        let mut strong_miss = 0;
        for i in 0..600 {
            p.update(weak, i % 2 == 0);
            if i >= 200 && !p.predict(strong) {
                strong_miss += 1;
            }
            p.update(strong, true);
        }
        assert!(
            strong_miss <= 2,
            "strong branch must be clean once the weak one is quarantined ({strong_miss})"
        );
    }

    #[test]
    fn weak_bank_still_exploits_history() {
        // The weak bank is history-indexed, so a period-4 pattern is
        // learnable even for a "weak" (50% taken) branch.
        let mut p = TriMode::new(TriModeConfig::new(8, 8, 8));
        let pc = 0x4000;
        let mut late_miss = 0;
        for i in 0..2000 {
            let taken = i % 4 < 2;
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
    fn cost_counts_three_banks_and_both_choice_tables() {
        let p = small();
        // 3 banks of 64 two-bit counters + 256 two-bit choice + 256
        // three-bit conflict counters.
        assert_eq!(p.cost().state_bits, 2 * 3 * 64 + 2 * 256 + 3 * 256);
        assert_eq!(p.num_counters(), 192);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut p = small();
        for i in 0..300u64 {
            p.update(0x1000 + (i % 13) * 4, i % 3 == 0);
        }
        p.reset();
        let fresh = small();
        for pc in (0..64u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
            assert_eq!(p.selected_bank(pc), fresh.selected_bank(pc));
        }
    }

    #[test]
    fn counter_ids_partition_by_mode() {
        let mut p = small();
        for i in 0..100 {
            p.update(0x2000, i % 2 == 0); // force weak mode
        }
        let id = p.counter_id(0x2000).unwrap();
        assert!(
            (2 * 64..192).contains(&id),
            "weak-bank ids live in the top third: {id}"
        );
    }
}
