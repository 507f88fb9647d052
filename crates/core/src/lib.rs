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
pub mod plane;
pub mod predictor;
pub mod predictors;
pub mod spec;
pub mod table;

pub use counter::{Counter2, SatCounter};
pub use history::{GlobalHistory, PerAddressHistories};
pub use plane::{CounterPlanes, PlaneTable, LANES};
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
