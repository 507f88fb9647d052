//! Dynamic branch predictor models reproducing *The Bi-Mode Branch Predictor*
//! (Lee, Chen & Mudge, MICRO-30, 1997).
//!
//! This crate implements the paper's contribution — the [`BiMode`] predictor —
//! together with every predictor it is defined against or compared with:
//! the Smith [`Bimodal`] two-bit counter scheme, the Yeh–Patt
//! [`TwoLevel`] family (GAg/GAs/PAg/PAs), McFarling's [`Gshare`] and
//! [`Gselect`], and the de-aliasing schemes from the paper's related-work
//! lineage ([`Agree`], [`Gskew`], [`Yags`], and the [`Tournament`]
//! combining predictor). Two wrappers change how any of them is
//! trained, for the methodology ablations: [`DelayedUpdate`] holds
//! updates in a resolution-latency FIFO, and [`Flushed`] resets the
//! predictor every N branches to model context switches.
//!
//! All predictors implement the [`Predictor`] trait, are trace-driven
//! (call [`Predictor::predict`] then [`Predictor::update`], or the fused
//! [`Predictor::retire`], once per conditional branch in program
//! order), and report their hardware cost in
//! bytes of two-bit counter state exactly as the paper accounts for it.
//!
//! # Quick example
//!
//! ```
//! use bpred_core::{BiMode, BiModeConfig, Predictor};
//!
//! // The configuration analysed in the paper's Figure 6: a 128-counter
//! // choice predictor and two 128-counter direction banks.
//! let mut p = BiMode::new(BiModeConfig::new(7, 7, 7));
//! let pc = 0x0040_1000;
//! let predicted = p.predict(pc);
//! p.update(pc, true); // the branch was actually taken
//! assert_eq!(p.predict(pc), true); // weakly-taken choice now reinforced
//! let _ = predicted;
//! ```
//!
//! # Cost model
//!
//! Following Section 3.3 of the paper, cost is measured by counting the
//! bytes used in two-bit (and, where a scheme needs them, one-bit) state
//! tables; history registers and tags are reported separately as the
//! metadata component of [`cost::Cost`]. A bi-mode predictor with two `2^d`-entry
//! direction banks and a `2^d`-entry choice table therefore costs 1.5x the
//! next-smaller gshare, reproducing the staggered points of Figures 2–4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod counter;
pub mod history;
pub mod index;
pub mod predictor;
pub mod predictors;
pub mod spec;
pub mod table;

pub use counter::{Counter2, SatCounter};
pub use history::{GlobalHistory, PerAddressHistories};
pub use predictor::{CounterId, Predictor};
pub use predictors::agree::Agree;
pub use predictors::bimodal::Bimodal;
pub use predictors::bimode::{
    BankInit, BiMode, BiModeConfig, BiModeProbe, ChoiceUpdate, IndexShare,
};
pub use predictors::cascade::{Cascade, CASCADE_GATE_BITS};
pub use predictors::delayed::DelayedUpdate;
pub use predictors::flushed::Flushed;
pub use predictors::gselect::Gselect;
pub use predictors::gshare::Gshare;
pub use predictors::gskew::Gskew;
pub use predictors::perceptron::{Perceptron, WEIGHT_BITS};
pub use predictors::statics::{AlwaysNotTaken, AlwaysTaken, Btfnt};
pub use predictors::tage::Tage;
pub use predictors::tournament::Tournament;
pub use predictors::trimode::{TriMode, TriModeConfig, TriModeProbe};
pub use predictors::two_level::{HistorySource, TwoLevel, TwoLevelKind};
pub use predictors::twobcgskew::TwoBcGskew;
pub use predictors::yags::Yags;
pub use spec::{ParseSpecError, PredictorSpec};

/// Checks of the per-lane counter behaviour the sliced engine relies on.
///
/// Each sliced lane is a [`table::CounterTable`] initialised weakly
/// taken, retired once per branch. The lanes once ran on a bit-plane
/// table; this module keeps that tier's name and test names, and pins
/// the same behaviour on the tables that replaced it.
#[cfg(test)]
mod plane {
    mod tests {
        use crate::counter::Counter2;
        use crate::table::CounterTable;
        use proptest::prelude::*;

        /// Lanes in a full sliced group.
        const GROUP: usize = 64;

        /// A lane table as the sliced engine builds one.
        fn lane(index_bits: u32) -> CounterTable {
            CounterTable::new(index_bits, Counter2::WEAKLY_TAKEN)
        }

        /// Retires every counter of `table` once with `taken`,
        /// returning the pre-update predictions.
        fn retire_all(table: &mut CounterTable, taken: bool) -> Vec<bool> {
            (0..table.len()).map(|i| table.retire(i, taken)).collect()
        }

        #[test]
        fn predict_mask_is_the_sign_bit_rule() {
            let mut table = lane(6);
            for i in 0..GROUP {
                *table.counter_mut(i) = Counter2::from_state((i % 4) as u8);
            }
            for i in 0..GROUP {
                let sign_bit = (i % 4) & 2 != 0;
                assert_eq!(table.predict(i), sign_bit, "counter {i}");
                assert_eq!(table.retire(i, true), sign_bit, "counter {i}");
            }
        }

        #[test]
        fn single_step_matches_counter2_for_all_state_outcome_pairs() {
            // Smith's two-bit transitions, written out: (state, taken, next).
            let smith = [
                (0u8, false, 0u8),
                (0, true, 1),
                (1, false, 0),
                (1, true, 2),
                (2, false, 1),
                (2, true, 3),
                (3, false, 2),
                (3, true, 3),
            ];
            for (state, taken, next) in smith {
                let mut table = CounterTable::new(6, Counter2::from_state(state));
                let predictions = retire_all(&mut table, taken);
                assert!(
                    predictions.iter().all(|&p| p == (state >= 2)),
                    "state {state} taken {taken}"
                );
                assert!(
                    table.iter().all(|c| c.state() == next),
                    "state {state} taken {taken}"
                );
            }
        }

        #[test]
        fn all_lanes_saturated_stay_saturated() {
            // Edge case: every counter pinned at a saturation point keeps
            // absorbing same-direction outcomes without wrapping.
            let mut top = CounterTable::new(6, Counter2::STRONGLY_TAKEN);
            let mut bottom = CounterTable::new(6, Counter2::STRONGLY_NOT_TAKEN);
            for _ in 0..5 {
                assert!(retire_all(&mut top, true).iter().all(|&p| p));
                assert!(retire_all(&mut bottom, false).iter().all(|&p| !p));
            }
            assert_eq!(top, CounterTable::new(6, Counter2::STRONGLY_TAKEN));
            assert_eq!(bottom, CounterTable::new(6, Counter2::STRONGLY_NOT_TAKEN));
        }

        #[test]
        fn plane_table_initialises_weakly_taken_and_predicts_taken() {
            let table = lane(7);
            assert_eq!(table.len(), 128);
            for i in 0..table.len() {
                assert_eq!(table.counter(i), Counter2::WEAKLY_TAKEN);
                assert!(table.predict(i));
            }
        }

        #[test]
        fn tiny_tables_still_get_one_word() {
            // A lane with no index bits (`gshare:s=0`) still holds one
            // counter, and every branch retires it.
            let mut table = lane(0);
            assert_eq!(table.len(), 1);
            assert!(table.retire(0, false));
            assert_eq!(table.counter(0), Counter2::WEAKLY_NOT_TAKEN);
            assert!(!table.retire(0, false));
            assert_eq!(table.counter(0), Counter2::STRONGLY_NOT_TAKEN);
        }

        #[test]
        fn retire_matches_counter_table_semantics() {
            // A full group of lanes with mixed geometries, all retiring
            // the same outcome stream, each against its own reference
            // array of saturating 0..=3 states.
            let mut lanes: Vec<CounterTable> = (0..GROUP).map(|l| lane(l as u32 % 7)).collect();
            let mut reference: Vec<Vec<u8>> = lanes.iter().map(|t| vec![2; t.len()]).collect();
            let mut x = 9u64;
            for _ in 0..2000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let taken = x & 1 == 1;
                for (l, (table, want)) in lanes.iter_mut().zip(&mut reference).enumerate() {
                    let index = (x >> 33) as usize % table.len();
                    let state = want[index];
                    want[index] = if taken {
                        (state + 1).min(3)
                    } else {
                        state.saturating_sub(1)
                    };
                    assert_eq!(table.retire(index, taken), state >= 2, "lane {l}");
                }
            }
            for (l, (table, want)) in lanes.iter().zip(&reference).enumerate() {
                assert!(
                    table.iter().map(|c| c.state()).eq(want.iter().copied()),
                    "lane {l}"
                );
            }
        }

        #[test]
        fn reset_restores_the_initial_state() {
            let mut table = lane(5);
            for i in 0..table.len() {
                let _ = table.retire(i, i % 2 == 0);
            }
            assert_ne!(table, lane(5));
            table.reset();
            assert_eq!(table, lane(5));
        }

        proptest! {
            /// Driving the full taken/not-taken extremes keeps every
            /// counter inside the saturation bounds.
            #[test]
            fn saturation_never_wraps(direction in any::<bool>(), steps in 1usize..16) {
                let mut table = CounterTable::new(6, if direction {
                    Counter2::STRONGLY_TAKEN
                } else {
                    Counter2::STRONGLY_NOT_TAKEN
                });
                for _ in 0..steps {
                    let predictions = retire_all(&mut table, direction);
                    prop_assert!(predictions.iter().all(|&p| p == direction));
                }
                for &c in &table {
                    prop_assert_eq!(c.is_strong(), true);
                    prop_assert_eq!(c.predict(), direction);
                }
            }
        }
    }
}
