//! The Yeh–Patt two-level adaptive predictor family: GAg, GAs, PAg, PAs
//! (\[YehPatt91\], \[YehPatt92\]).
//!
//! The first level is a branch history (global, or a table of per-address
//! histories); the second level is a set of PHTs selected by branch
//! address bits. In this crate the second level is one physical table
//! indexed by `address_bits` concatenated above `history_bits`
//! (see [`crate::index::gselect_index`]), which is the standard
//! multiple-PHT formulation: the address selects the PHT, the history the
//! entry.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::{GlobalHistory, PerAddressHistories};
use crate::index::gselect_index;
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// Which first-level history the scheme uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistorySource {
    /// One global history register shared by all branches (GAg/GAs).
    Global,
    /// A `2^index_bits`-entry table of per-address histories (PAg/PAs).
    PerAddress {
        /// log2 of the number of first-level history registers.
        index_bits: u32,
    },
    /// A `2^index_bits`-entry table of per-*set* histories (SAg/SAs):
    /// branches are grouped into sets by higher PC bits, so whole code
    /// regions share one history register — the third Yeh–Patt
    /// indexing family from \[YehPatt93\].
    PerSet {
        /// log2 of the number of first-level history registers.
        index_bits: u32,
        /// How many low word-PC bits to skip before taking the set
        /// index (set grouping granularity: a set spans `2^shift`
        /// words).
        shift: u32,
    },
}

/// The Yeh–Patt naming for a [`TwoLevel`] configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoLevelKind {
    /// Global history, single PHT.
    GAg,
    /// Global history, per-address-selected PHTs.
    GAs,
    /// Per-address history, single PHT.
    PAg,
    /// Per-address history, per-address-selected PHTs.
    PAs,
    /// Per-set history, single PHT.
    SAg,
    /// Per-set history, per-address-selected PHTs.
    SAs,
}

impl std::fmt::Display for TwoLevelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TwoLevelKind::GAg => "GAg",
            TwoLevelKind::GAs => "GAs",
            TwoLevelKind::PAg => "PAg",
            TwoLevelKind::PAs => "PAs",
            TwoLevelKind::SAg => "SAg",
            TwoLevelKind::SAs => "SAs",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Clone)]
enum Histories {
    Global(GlobalHistory),
    PerAddress(PerAddressHistories),
    PerSet {
        table: PerAddressHistories,
        shift: u32,
    },
}

/// A two-level adaptive predictor.
///
/// ```
/// use bpred_core::{HistorySource, Predictor, TwoLevel};
///
/// // A GAs with 4 PHTs of 256 entries: 2 address bits, 8 history bits.
/// let mut p = TwoLevel::new(HistorySource::Global, 2, 8);
/// assert_eq!(p.kind().to_string(), "GAs");
/// // Global correlation: an alternating branch becomes predictable.
/// let pc = 0x1000;
/// for i in 0..64 { p.update(pc, i % 2 == 0); }
/// assert_eq!(p.predict(pc), true); // history NTNT... maps to "next is T"
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevel {
    histories: Histories,
    address_bits: u32,
    history_bits: u32,
    table: CounterTable,
}

impl TwoLevel {
    /// Creates a two-level predictor with `2^address_bits` PHTs of
    /// `2^history_bits` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `address_bits + history_bits > 30`, if a per-address
    /// or per-set first level is requested with `index_bits > 30`, or if
    /// a per-set `shift` is 64 or more.
    #[must_use]
    pub fn new(source: HistorySource, address_bits: u32, history_bits: u32) -> Self {
        assert!(
            u64::from(address_bits) + u64::from(history_bits) <= 30,
            "two-level PHT index must be <= 30 bits, got {address_bits} + {history_bits}"
        );
        if let HistorySource::PerSet { shift, .. } = source {
            assert!(
                shift < 64,
                "per-set address shift must be < 64, got {shift}"
            );
        }
        let histories = match source {
            HistorySource::Global => Histories::Global(GlobalHistory::new(history_bits)),
            HistorySource::PerAddress { index_bits } => {
                Histories::PerAddress(PerAddressHistories::new(index_bits, history_bits))
            }
            HistorySource::PerSet { index_bits, shift } => Histories::PerSet {
                table: PerAddressHistories::new(index_bits, history_bits),
                shift,
            },
        };
        Self {
            histories,
            address_bits,
            history_bits,
            table: CounterTable::new(address_bits + history_bits, Counter2::WEAKLY_TAKEN),
        }
    }

    /// The Yeh–Patt name of this configuration.
    #[must_use]
    pub fn kind(&self) -> TwoLevelKind {
        match (&self.histories, self.address_bits) {
            (Histories::Global(_), 0) => TwoLevelKind::GAg,
            (Histories::Global(_), _) => TwoLevelKind::GAs,
            (Histories::PerAddress(_), 0) => TwoLevelKind::PAg,
            (Histories::PerAddress(_), _) => TwoLevelKind::PAs,
            (Histories::PerSet { .. }, 0) => TwoLevelKind::SAg,
            (Histories::PerSet { .. }, _) => TwoLevelKind::SAs,
        }
    }

    fn history_for(&self, pc: u64) -> u64 {
        match &self.histories {
            Histories::Global(h) => h.value(),
            Histories::PerAddress(t) => t.history(pc).value(),
            Histories::PerSet { table, shift } => table.history(pc >> shift).value(),
        }
    }

    /// The second-level table index consulted for `pc` in the current
    /// state.
    #[must_use]
    pub fn index(&self, pc: u64) -> usize {
        gselect_index(
            pc,
            self.history_for(pc),
            self.address_bits,
            self.history_bits,
        )
    }
}

impl Predictor for TwoLevel {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "{}(a={},h={})",
            self.kind(),
            self.address_bits,
            self.history_bits
        )
    }

    fn predict(&self, pc: u64) -> bool {
        self.table.predict(self.index(pc))
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        self.table.update(idx, taken);
        match &mut self.histories {
            Histories::Global(h) => h.push(taken),
            Histories::PerAddress(t) => t.push(pc, taken),
            Histories::PerSet { table, shift } => table.push(pc >> *shift, taken),
        }
    }

    fn cost(&self) -> Cost {
        let meta = match &self.histories {
            Histories::Global(h) => u64::from(h.bits()),
            Histories::PerAddress(t) | Histories::PerSet { table: t, .. } => t.storage_bits(),
        };
        Cost {
            state_bits: self.table.storage_bits(),
            metadata_bits: meta,
        }
    }

    fn reset(&mut self) {
        self.table.reset();
        match &mut self.histories {
            Histories::Global(h) => h.reset(),
            Histories::PerAddress(t) => t.reset(),
            Histories::PerSet { table, .. } => table.reset(),
        }
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        Some(self.index(pc))
    }

    fn num_counters(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification_covers_the_taxonomy() {
        assert_eq!(
            TwoLevel::new(HistorySource::Global, 0, 8).kind(),
            TwoLevelKind::GAg
        );
        assert_eq!(
            TwoLevel::new(HistorySource::Global, 3, 8).kind(),
            TwoLevelKind::GAs
        );
        assert_eq!(
            TwoLevel::new(HistorySource::PerAddress { index_bits: 4 }, 0, 6).kind(),
            TwoLevelKind::PAg
        );
        assert_eq!(
            TwoLevel::new(HistorySource::PerAddress { index_bits: 4 }, 3, 6).kind(),
            TwoLevelKind::PAs
        );
    }

    #[test]
    fn per_set_histories_are_shared_within_a_set() {
        // shift=4: 16 words per set. Two branches in the same set share
        // a history register; a branch in the next set does not.
        let mut p = TwoLevel::new(
            HistorySource::PerSet {
                index_bits: 4,
                shift: 4,
            },
            2,
            4,
        );
        assert_eq!(p.kind(), TwoLevelKind::SAs);
        let (a, b, other) = (0x1000u64, 0x1004u64, 0x1040u64);
        p.update(a, true);
        p.update(a, true);
        // b shares a's set history; other does not.
        assert_eq!(p.history_for(b), 0b11);
        assert_eq!(p.history_for(other), 0);
    }

    #[test]
    fn sag_learns_set_local_patterns() {
        let mut p = TwoLevel::new(
            HistorySource::PerSet {
                index_bits: 4,
                shift: 6,
            },
            0,
            4,
        );
        assert_eq!(p.kind(), TwoLevelKind::SAg);
        let pc = 0x2000;
        let mut late_miss = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            if i >= 100 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
        }
        assert_eq!(late_miss, 0, "SAg must learn the alternation");
    }

    #[test]
    fn gag_learns_a_global_alternating_pattern() {
        let mut p = TwoLevel::new(HistorySource::Global, 0, 4);
        let pc = 0x100;
        let mut late_miss = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            if i >= 50 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
        }
        assert_eq!(late_miss, 0, "GAg must lock onto a period-2 pattern");
    }

    #[test]
    fn pag_learns_per_branch_periodic_patterns_despite_interleaving() {
        // Two interleaved branches with different periods: per-address
        // history separates them, which a short global history cannot.
        let mut p = TwoLevel::new(HistorySource::PerAddress { index_bits: 6 }, 0, 6);
        // Adjacent words: distinct first-level history registers.
        let (a, b) = (0x100u64, 0x104u64);
        let mut late_miss = 0;
        for i in 0..600 {
            let ta = i % 2 == 0; // period 2
            let tb = i % 3 == 0; // period 3
            for (pc, t) in [(a, ta), (b, tb)] {
                if i >= 100 && p.predict(pc) != t {
                    late_miss += 1;
                }
                p.update(pc, t);
            }
        }
        assert_eq!(late_miss, 0, "PAg must learn both periodic branches");
    }

    #[test]
    fn gas_address_bits_separate_colliding_branches() {
        // Two branches that always see the same global history pattern
        // (forced by a run of always-taken filler branches that fills the
        // 4-bit history) but have opposite outcomes: GAg (a=0)
        // destructively aliases them at the TTTT counter, GAs (a>0)
        // separates them by address. This is the Section 2.1 problem.
        let run = |address_bits: u32| {
            let mut p = TwoLevel::new(HistorySource::Global, address_bits, 4);
            let (a, b, filler) = (0x1000u64, 0x1004u64, 0x1008u64);
            let mut late_miss = 0;
            for i in 0..400 {
                for (pc, t) in [(a, true), (b, false)] {
                    for _ in 0..4 {
                        p.update(filler, true); // refill history with TTTT
                    }
                    if i >= 100 && p.predict(pc) != t {
                        late_miss += 1;
                    }
                    p.update(pc, t);
                }
            }
            late_miss
        };
        // The aliased counter oscillates between weakly- and strongly-
        // taken, so essentially every execution of the not-taken branch
        // mispredicts (~300 of 600 counted).
        assert!(run(0) >= 290, "GAg should thrash on opposite-bias aliases");
        assert_eq!(run(4), 0, "GAs should separate them");
    }

    #[test]
    fn cost_includes_history_metadata() {
        let g = TwoLevel::new(HistorySource::Global, 2, 8);
        assert_eq!(g.cost().state_bits, 2 * 1024);
        assert_eq!(g.cost().metadata_bits, 8);

        let p = TwoLevel::new(HistorySource::PerAddress { index_bits: 5 }, 0, 8);
        assert_eq!(p.cost().metadata_bits, 32 * 8);
    }

    #[test]
    fn reset_clears_history_and_table() {
        let mut p = TwoLevel::new(HistorySource::Global, 0, 4);
        for i in 0..50 {
            p.update(0x40, i % 2 == 0);
        }
        p.reset();
        let fresh = TwoLevel::new(HistorySource::Global, 0, 4);
        assert_eq!(p.predict(0x40), fresh.predict(0x40));
        assert_eq!(p.index(0x40), fresh.index(0x40));
    }

    #[test]
    fn names_follow_taxonomy() {
        assert_eq!(
            TwoLevel::new(HistorySource::Global, 2, 8).name(),
            "GAs(a=2,h=8)"
        );
        assert_eq!(
            TwoLevel::new(HistorySource::PerAddress { index_bits: 4 }, 0, 6).name(),
            "PAg(a=0,h=6)"
        );
    }
}
