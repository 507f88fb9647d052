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
//!   [`Trace`], a [`PackedTraceBuilder`], a streaming [`BinaryWriter`],
//!   or a pair of them;
//! * [`codec`] — a compact binary format and a line-oriented text format
//!   for persisting traces.
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

pub use codec::{
    read_binary, read_text, stream_binary, write_binary, write_text, BinaryStream, BinaryWriter,
    CodecError,
};
pub use digest::TraceDigest;
pub use packed::{PackError, PackedRecord, PackedTrace, PackedTraceBuilder, SEAL_RECORDS};
pub use record::{BranchKind, BranchRecord};
pub use sink::RecordSink;
pub use stats::{site_table, BiasBucket, SiteSummary, TraceStats};
pub use trace::Trace;
