//! The Section 4 analysis framework of the bi-mode paper: bias-class
//! classification of per-(branch, counter) outcome substreams,
//! per-counter dominant/non-dominant/weakly-biased breakdowns
//! (Figures 5 and 6), bias-class change counting (Table 4), and
//! misprediction attribution by class (Figures 7 and 8).
//!
//! The core idea: a two-level predictor's index function splits the
//! dynamic branch stream into substreams, one per (static branch,
//! consulted counter) pair. Each substream is classified by its own
//! taken-rate — strongly taken (>= 90%), strongly not-taken (<= 10%),
//! or weakly biased — and a good index keeps each counter dominated by
//! a single strong class. Because a substream's class is only known
//! after the whole trace is seen, attribution is *two-pass*: pass one
//! simulates the predictor and accumulates substream statistics; pass
//! two re-simulates identically and attributes every access,
//! misprediction, and class change.
//!
//! ```
//! use bpred_analysis::{measure_packed, Analysis};
//! use bpred_core::Gshare;
//! use bpred_trace::PackedTrace;
//! use bpred_workloads::{Scale, Workload};
//!
//! let trace = Workload::by_name("compress").unwrap().trace(Scale::Smoke);
//! let packed = PackedTrace::build(&trace).unwrap();
//! let result = measure_packed(&packed, &mut Gshare::new(10, 10));
//! assert!(result.misprediction_rate() < 0.2);
//!
//! let analysis = Analysis::run(&packed, || Gshare::new(8, 8));
//! assert_eq!(analysis.per_counter.len(), 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aliasing;
pub mod batch;
pub mod bias;
pub mod metrics;
pub mod session;
pub mod simulate;
pub mod sites;
pub mod sliced;
pub mod twopass;
pub mod warmup;

/// Version of the measurement semantics implemented by this crate.
///
/// The harness folds this constant into every result-store job key, so
/// cached results are only ever replayed against the engine revision
/// that produced them. **Bump it whenever a change alters what any
/// measurement returns** — the drive loops in [`simulate`]/[`batch`],
/// the two-pass attribution in [`twopass`], the alias taxonomy in
/// [`aliasing`], the warmup windowing in [`warmup`], or predictor
/// update semantics in `bpred-core`. Pure performance work (blocking,
/// parallelism, packing) that keeps results bit-identical must NOT bump
/// it; that is what keeps warm caches valid across refactors.
pub const ENGINE_EPOCH: u64 = 1;

pub use aliasing::AliasReport;
pub use batch::{measure_batch, measure_packed};
pub use bias::{BiasClass, StreamStats};
pub use metrics::{Engine, EngineDrive, EngineSnapshot};
pub use session::{PackedSession, SlicedSession};
pub use simulate::{measure, measure_with_flushes, RunResult};
pub use sites::{SiteMisses, SiteTally};
pub use sliced::{measure_sliced, measure_sliced_chunks, Lane, LaneSpec, MAX_LANES};
pub use twopass::{Analysis, ClassChanges, CounterBias, MispredictionBreakdown};
pub use warmup::{warmup_windows, windowed_rates};
