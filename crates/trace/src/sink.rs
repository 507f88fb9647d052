//! [`RecordSink`]: where a trace generator writes its records.
//!
//! Generators (the workload kernels' `Tracer`, the ISA machine) push
//! each record into a sink as it happens instead of returning a whole
//! [`Trace`]. The sink decides the form: a [`Trace`] keeps the records
//! and a [`PackedTraceBuilder`](crate::PackedTraceBuilder) packs them,
//! so a generator run can fill a packed trace without an
//! array-of-structs copy of the trace.

use crate::record::BranchRecord;
use crate::trace::Trace;

/// A destination for branch records, pushed in program order.
///
/// ```
/// use bpred_trace::{BranchRecord, PackedTraceBuilder, RecordSink, Trace};
///
/// fn generate(sink: &mut dyn RecordSink) {
///     for i in 0..4 {
///         sink.push(BranchRecord::conditional(0x40, 0x20, i % 2 == 0));
///     }
/// }
///
/// let mut trace = Trace::new("demo");
/// let mut builder = PackedTraceBuilder::new("demo");
/// generate(&mut trace);
/// generate(&mut builder);
/// assert_eq!(trace.len(), 4);
/// assert_eq!(builder.finish().digest(), trace.digest());
/// ```
pub trait RecordSink {
    /// Takes the next record.
    fn push(&mut self, record: BranchRecord);
}

impl RecordSink for Trace {
    fn push(&mut self, record: BranchRecord) {
        Trace::push(self, record);
    }
}
