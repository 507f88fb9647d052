//! The bi-mode branch predictor — the contribution of Lee, Chen & Mudge
//! (MICRO-30, 1997).
//!
//! Section 2.2: the second-level table is split into two *direction*
//! banks, both indexed gshare-style (branch address XOR global history).
//! A *choice predictor* — a plain bimodal table indexed by branch address
//! only — selects which bank provides the final prediction. Branches are
//! thereby dynamically partitioned by their per-address bias before their
//! global-history behaviour is stored, separating destructive aliases
//! (same history pattern, opposite biases) while keeping harmless aliases
//! together.
//!
//! Update policy (verbatim from the paper):
//!
//! * only the **selected** direction counter is trained with the outcome;
//!   the unselected bank is untouched;
//! * the choice predictor is always trained with the outcome **except**
//!   when its choice disagrees with the outcome but the selected direction
//!   counter still predicted correctly (the *partial update* rule, "
//!   particularly effective when the total hardware budget is small");
//! * initialisation (footnote 2): choice counters weakly-taken, the
//!   not-taken bank weakly-not-taken, the taken bank weakly-taken.
//!
//! The configuration exposes each of these decisions as a knob so the
//! ablation experiments can isolate their contributions.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::GlobalHistory;
use crate::index::{gshare_index, low_bits, pc_word, skew_index};
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// Choice-predictor training policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChoiceUpdate {
    /// The paper's rule: skip the choice update when the choice was wrong
    /// but the selected direction counter predicted correctly.
    #[default]
    Partial,
    /// Always train the choice predictor with the outcome (ablation).
    Always,
}

/// Direction-bank initialisation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankInit {
    /// Footnote 2: bank 0 (not-taken bank) weakly-not-taken, bank 1
    /// (taken bank) weakly-taken.
    #[default]
    Split,
    /// Both banks weakly-taken (ablation).
    UniformWeaklyTaken,
}

/// Direction-bank index-sharing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexShare {
    /// The paper's design: both banks use the same gshare-style index.
    #[default]
    Shared,
    /// Each bank hashes (pc, history) with a distinct skewing function
    /// (ablation combining bi-mode with gskew-style dispersion).
    SkewedPerBank,
}

/// Configuration for a [`BiMode`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiModeConfig {
    /// log2 of each direction bank's counter count.
    pub direction_bits: u32,
    /// log2 of the choice table's counter count.
    pub choice_bits: u32,
    /// Global history length in bits (`<= direction_bits` when
    /// [`IndexShare::Shared`]).
    pub history_bits: u32,
    /// Choice training policy.
    pub choice_update: ChoiceUpdate,
    /// Direction-bank initialisation.
    pub bank_init: BankInit,
    /// Direction-bank index construction.
    pub index_share: IndexShare,
}

impl BiModeConfig {
    /// A paper-default configuration: partial choice update, split bank
    /// initialisation, shared index.
    #[must_use]
    pub fn new(direction_bits: u32, choice_bits: u32, history_bits: u32) -> Self {
        Self {
            direction_bits,
            choice_bits,
            history_bits,
            choice_update: ChoiceUpdate::Partial,
            bank_init: BankInit::Split,
            index_share: IndexShare::Shared,
        }
    }

    /// The paper's standard sizing at a given direction-bank width:
    /// choice table the same size as one bank, history as long as the
    /// bank index (`m = d`), giving the 1.5x-of-next-smaller-gshare cost
    /// points of Figures 2–4.
    #[must_use]
    pub fn paper_default(direction_bits: u32) -> Self {
        Self::new(direction_bits, direction_bits, direction_bits)
    }
}

/// The bi-mode predictor.
///
/// ```
/// use bpred_core::{BiMode, BiModeConfig, Predictor};
///
/// let mut p = BiMode::new(BiModeConfig::paper_default(10));
/// // 2 banks of 1K + 1K choice = 3K counters = 0.75 KB of state.
/// assert_eq!(p.cost().state_kib(), 0.75);
/// let pc = 0x0040_0100;
/// let _ = p.predict(pc);
/// p.update(pc, false);
/// ```
#[derive(Debug, Clone)]
pub struct BiMode {
    config: BiModeConfig,
    choice: CounterTable,
    banks: [CounterTable; 2],
    history: GlobalHistory,
}

/// Internal record of the lookups a prediction performs; shared by
/// `predict` and `retire` so both always agree on which counters are
/// involved.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    choice_index: usize,
    choice_taken: bool,
    bank: usize,
    direction_index: usize,
    prediction: bool,
}

impl BiMode {
    /// Creates a bi-mode predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any table width exceeds 30 bits, if
    /// `history_bits > direction_bits` with a shared index, or if
    /// `direction_bits` is zero with skewed per-bank indices.
    #[must_use]
    pub fn new(config: BiModeConfig) -> Self {
        match config.index_share {
            IndexShare::Shared => assert!(
                config.history_bits <= config.direction_bits,
                "bi-mode history ({}) must not exceed direction index bits ({}) with a shared index",
                config.history_bits,
                config.direction_bits
            ),
            IndexShare::SkewedPerBank => assert!(
                config.direction_bits >= 1,
                "bi-mode skewed bank indices need at least 1 direction index bit"
            ),
        }
        let (init0, init1) = match config.bank_init {
            BankInit::Split => (Counter2::WEAKLY_NOT_TAKEN, Counter2::WEAKLY_TAKEN),
            BankInit::UniformWeaklyTaken => (Counter2::WEAKLY_TAKEN, Counter2::WEAKLY_TAKEN),
        };
        Self {
            config,
            choice: CounterTable::new(config.choice_bits, Counter2::WEAKLY_TAKEN),
            banks: [
                CounterTable::new(config.direction_bits, init0),
                CounterTable::new(config.direction_bits, init1),
            ],
            history: GlobalHistory::new(config.history_bits),
        }
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub fn config(&self) -> &BiModeConfig {
        &self.config
    }

    /// Entries in one direction bank.
    #[must_use]
    pub fn bank_len(&self) -> usize {
        self.banks[0].len()
    }

    fn direction_index(&self, pc: u64, bank: usize) -> usize {
        match self.config.index_share {
            IndexShare::Shared => gshare_index(
                pc,
                self.history.value(),
                self.config.direction_bits,
                self.config.history_bits,
            ),
            IndexShare::SkewedPerBank => skew_index(
                pc,
                self.history.value(),
                self.config.direction_bits,
                self.config.history_bits,
                bank,
            ),
        }
    }

    fn lookup(&self, pc: u64) -> Lookup {
        let choice_index = low_bits(pc_word(pc), self.config.choice_bits) as usize;
        let choice_taken = self.choice.predict(choice_index);
        let bank = usize::from(choice_taken);
        let direction_index = self.direction_index(pc, bank);
        let prediction = self.banks[bank].predict(direction_index);
        Lookup {
            choice_index,
            choice_taken,
            bank,
            direction_index,
            prediction,
        }
    }

    /// The bank (0 = not-taken mode, 1 = taken mode) the choice predictor
    /// currently selects for `pc`.
    #[must_use]
    pub fn selected_bank(&self, pc: u64) -> usize {
        self.lookup(pc).bank
    }

    /// White-box snapshot of exactly the state one prediction consults,
    /// for the `bpred-check` policy oracle: the oracle records a probe
    /// before `update`, applies the paper's Section 2 update rules to it
    /// symbolically, and compares against the post-update state.
    #[must_use]
    pub fn probe(&self, pc: u64) -> BiModeProbe {
        let l = self.lookup(pc);
        BiModeProbe {
            choice_index: l.choice_index,
            choice_state: self.choice.counter(l.choice_index).state(),
            bank: l.bank,
            direction_index: l.direction_index,
            direction_state: self.banks[l.bank].counter(l.direction_index).state(),
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

    /// The direction counter at (`bank`, `index`) (oracle hook).
    ///
    /// # Panics
    ///
    /// Panics if `bank > 1` or `index` is out of range for the bank.
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

/// A white-box view of one bi-mode lookup, exposed so an external
/// policy oracle can verify the paper's update rules transition by
/// transition. See [`BiMode::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiModeProbe {
    /// Index consulted in the choice table.
    pub choice_index: usize,
    /// Raw state (`0..=3`) of that choice counter.
    pub choice_state: u8,
    /// Selected direction bank (0 = not-taken mode, 1 = taken mode).
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

impl Predictor for BiMode {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        let mut name = format!(
            "bi-mode(d={},c={},h={})",
            self.config.direction_bits, self.config.choice_bits, self.config.history_bits
        );
        if self.config.choice_update == ChoiceUpdate::Always {
            name.push_str("+always-choice");
        }
        if self.config.bank_init == BankInit::UniformWeaklyTaken {
            name.push_str("+uniform-init");
        }
        if self.config.index_share == IndexShare::SkewedPerBank {
            name.push_str("+skewed");
        }
        name
    }

    fn predict(&self, pc: u64) -> bool {
        self.lookup(pc).prediction
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let l = self.lookup(pc);

        // Only the selected direction counter sees the outcome; the other
        // bank keeps its mode-specific contents unpolluted.
        self.banks[l.bank].update(l.direction_index, taken);

        let train_choice = match self.config.choice_update {
            ChoiceUpdate::Always => true,
            // Partial update: keep the (wrong) choice when the selected
            // direction counter nevertheless predicted correctly.
            ChoiceUpdate::Partial => !(l.choice_taken != taken && l.prediction == taken),
        };
        if train_choice {
            self.choice.update(l.choice_index, taken);
        }

        self.history.push(taken);
        l.prediction
    }

    fn cost(&self) -> Cost {
        Cost {
            state_bits: self.choice.storage_bits()
                + self.banks[0].storage_bits()
                + self.banks[1].storage_bits(),
            metadata_bits: u64::from(self.config.history_bits),
        }
    }

    fn reset(&mut self) {
        self.choice.reset();
        self.banks[0].reset();
        self.banks[1].reset();
        self.history.reset();
    }

    /// The selected direction counter: ids `0..bank_len` are the
    /// not-taken bank, `bank_len..2*bank_len` the taken bank.
    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        let l = self.lookup(pc);
        Some(l.bank * self.bank_len() + l.direction_index)
    }

    fn num_counters(&self) -> usize {
        2 * self.bank_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BiMode {
        BiMode::new(BiModeConfig::paper_default(6))
    }

    #[test]
    fn initialisation_follows_footnote_2() {
        let p = small();
        assert!(p.choice.iter().all(|c| *c == Counter2::WEAKLY_TAKEN));
        assert!(p.banks[0].iter().all(|c| *c == Counter2::WEAKLY_NOT_TAKEN));
        assert!(p.banks[1].iter().all(|c| *c == Counter2::WEAKLY_TAKEN));
    }

    #[test]
    fn only_selected_bank_is_trained() {
        let mut p = small();
        let pc = 0x1000;
        let bank0_before = p.banks[0].clone();
        // Fresh choice is weakly-taken, so bank 1 is selected.
        assert_eq!(p.selected_bank(pc), 1);
        p.update(pc, true);
        assert_eq!(p.banks[0], bank0_before, "unselected bank must not change");
    }

    #[test]
    fn partial_update_skips_choice_on_saved_misprediction() {
        // Construct: choice says taken (bank 1), outcome is not-taken,
        // but the selected counter in bank 1 already predicts not-taken.
        // The paper's rule: do NOT train the choice predictor.
        let mut p = small();
        let pc = 0x1000;
        let l = p.lookup(pc);
        assert!(l.choice_taken);
        // Drive the selected counter to not-taken without moving the
        // choice out of taken mode: alternate so choice stays >= WT.
        // Simpler: poke the bank directly.
        let idx = p.direction_index(pc, 1);
        p.banks[1].update(idx, false); // WT -> WN
        let choice_before = p.choice.counter(l.choice_index);
        p.update(pc, false); // choice wrong (taken), prediction right (NT)
        assert_eq!(
            p.choice.counter(l.choice_index),
            choice_before,
            "choice must be frozen when the direction counter covered for it"
        );
    }

    #[test]
    fn choice_is_trained_when_prediction_also_wrong() {
        let mut p = small();
        let pc = 0x1000;
        let l = p.lookup(pc);
        assert!(l.choice_taken && l.prediction);
        let choice_before = p.choice.counter(l.choice_index);
        p.update(pc, false); // both choice and prediction wrong
        assert_eq!(
            p.choice.counter(l.choice_index),
            choice_before.updated(false),
            "choice must train towards the outcome on a full misprediction"
        );
    }

    #[test]
    fn choice_is_trained_when_choice_agrees_with_outcome() {
        let mut p = small();
        let pc = 0x1000;
        let l = p.lookup(pc);
        let choice_before = p.choice.counter(l.choice_index);
        p.update(pc, true); // choice taken, outcome taken
        assert_eq!(
            p.choice.counter(l.choice_index),
            choice_before.updated(true)
        );
    }

    #[test]
    fn always_policy_trains_choice_unconditionally() {
        let mut cfg = BiModeConfig::paper_default(6);
        cfg.choice_update = ChoiceUpdate::Always;
        let mut p = BiMode::new(cfg);
        let pc = 0x1000;
        let l = p.lookup(pc);
        let idx = p.direction_index(pc, 1);
        p.banks[1].update(idx, false);
        let choice_before = p.choice.counter(l.choice_index);
        p.update(pc, false); // saved misprediction, but policy = Always
        assert_eq!(
            p.choice.counter(l.choice_index),
            choice_before.updated(false)
        );
    }

    #[test]
    fn separates_destructive_aliases_that_break_gshare() {
        // The paper's core claim, as a microbenchmark: two branches with
        // identical global-history behaviour but opposite biases, placed
        // so they collide in a gshare PHT. Bi-mode's choice predictor
        // routes them to different banks; gshare oscillates.
        use crate::predictors::gshare::Gshare;
        let s = 6u32;
        let a = 0x1000u64;
        let b = a + (1u64 << (s + 2)); // same low-s word index as a

        let mut gshare = Gshare::new(s, 0);
        assert_eq!(gshare.index(a), gshare.index(b));
        let mut bimode = BiMode::new(BiModeConfig::new(s, 8, 0));

        let mut gshare_miss = 0;
        let mut bimode_miss = 0;
        for i in 0..500 {
            for (pc, t) in [(a, true), (b, false)] {
                if i >= 100 {
                    if gshare.predict(pc) != t {
                        gshare_miss += 1;
                    }
                    if bimode.predict(pc) != t {
                        bimode_miss += 1;
                    }
                }
                gshare.update(pc, t);
                bimode.update(pc, t);
            }
        }
        // The shared counter oscillates between weakly- and strongly-taken,
        // so gshare mispredicts essentially every execution of the
        // not-taken branch (~400 of the 800 counted executions).
        assert!(
            gshare_miss >= 390,
            "gshare should thrash ({gshare_miss} misses)"
        );
        assert_eq!(bimode_miss, 0, "bi-mode should separate the aliases");
    }

    #[test]
    fn preserves_global_history_correlation() {
        // B repeats A's last outcome. The direction banks must still
        // capture the correlation (the "merit of global history" the
        // paper insists is preserved).
        let mut p = BiMode::new(BiModeConfig::paper_default(8));
        let (a, b) = (0x1000u64, 0x1040u64);
        let mut late_miss = 0;
        for i in 0..2000 {
            let a_out = (i / 7) % 2 == 0;
            p.update(a, a_out);
            if i >= 500 && p.predict(b) != a_out {
                late_miss += 1;
            }
            p.update(b, a_out);
        }
        assert!(
            late_miss <= 4,
            "bi-mode lost correlation ({late_miss} misses)"
        );
    }

    #[test]
    fn cost_is_1_5x_of_matching_gshare() {
        use crate::predictors::gshare::Gshare;
        let bimode = BiMode::new(BiModeConfig::paper_default(10));
        let gshare = Gshare::new(11, 11); // the "next smaller" 2^11 gshare
        let ratio = bimode.cost().state_bits as f64 / gshare.cost().state_bits as f64;
        assert!((ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn counter_ids_partition_by_bank() {
        let p = small();
        let id = p.counter_id(0x1000).unwrap();
        assert_eq!(p.selected_bank(0x1000), 1);
        assert!(id >= p.bank_len(), "taken-bank ids live in the upper half");
        assert!(id < p.num_counters());
        assert_eq!(p.num_counters(), 128);
    }

    #[test]
    fn skewed_banks_use_distinct_indices() {
        let mut cfg = BiModeConfig::new(8, 8, 8);
        cfg.index_share = IndexShare::SkewedPerBank;
        let p = BiMode::new(cfg);
        let distinct = (0..64u64)
            .map(|i| 0x1000 + i * 4)
            .filter(|&pc| p.direction_index(pc, 0) != p.direction_index(pc, 1))
            .count();
        assert!(
            distinct >= 60,
            "skewed banks should rarely agree ({distinct}/64)"
        );
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut p = small();
        for i in 0..200u64 {
            p.update(0x1000 + (i % 17) * 4, i % 3 == 0);
        }
        p.reset();
        let fresh = small();
        for pc in (0..128u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn rejects_overlong_history_with_shared_index() {
        let _ = BiMode::new(BiModeConfig::new(6, 6, 7));
    }

    #[test]
    fn name_encodes_configuration() {
        assert_eq!(
            BiMode::new(BiModeConfig::new(7, 7, 7)).name(),
            "bi-mode(d=7,c=7,h=7)"
        );
        let mut cfg = BiModeConfig::new(7, 7, 7);
        cfg.choice_update = ChoiceUpdate::Always;
        assert!(BiMode::new(cfg).name().contains("always-choice"));
    }
}
