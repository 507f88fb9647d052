//! Branch trace model for the bi-mode predictor reproduction.
//!
//! The paper's methodology is trace-driven simulation (Section 3): a
//! workload produces a sequence of branch events, and predictors consume
//! the conditional ones in program order. This crate provides:
//!
//! * [`BranchRecord`] / [`BranchKind`] — one dynamic branch event;
//! * [`Trace`] — an in-memory trace with its provenance;
//! * [`TraceStats`] — the static/dynamic counts and bias distribution
//!   reported in the paper's Table 2 and Section 4 analysis;
//! * [`RecordSink`] — where a trace generator pushes its records: a
//!   [`Trace`] or a [`PackedTraceBuilder`];
//! * [`PackedTrace`] — the conditional branches as columns, and their
//!   checksummed on-disk form ([`PackedTrace::write_to`],
//!   [`PackedTrace::read_from`]), which the harness's trace cache uses;
//! * [`codec`] — a compact binary format for persisting whole traces
//!   ([`write_binary`], [`read_binary`]).
//!
//! ```
//! use bpred_trace::{BranchRecord, Trace};
//!
//! let mut trace = Trace::new("demo");
//! trace.push(BranchRecord::conditional(0x1000, 0x1040, true));
//! trace.push(BranchRecord::conditional(0x1008, 0x0FF0, false));
//! let stats = trace.stats();
//! assert_eq!(stats.static_conditional, 2);
//! assert_eq!(stats.dynamic_conditional, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod digest;
pub mod packed;
pub mod record;
pub mod sink;
pub mod stats;
pub mod trace;

pub use codec::{read_binary, write_binary, CodecError};
pub use digest::TraceDigest;
pub use packed::{PackError, PackedRecord, PackedTrace, PackedTraceBuilder, SEAL_RECORDS};
pub use record::{BranchKind, BranchRecord};
pub use sink::RecordSink;
pub use stats::{site_table, BiasBucket, SiteSummary, TraceStats};
pub use trace::Trace;
