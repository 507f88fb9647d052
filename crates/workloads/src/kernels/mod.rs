//! The benchmark kernel implementations, one module per benchmark the
//! paper traces (Table 2). See each module's docs for the algorithmic
//! core it models and the branch structure it contributes.

pub mod compress;
pub mod gcc;
pub mod go;
pub mod groff;
pub mod gs;
pub mod mpeg;
pub mod nroff;
pub mod perl;
pub mod sdet;
pub mod textgen;
pub mod verilog;
pub mod vortex;
pub mod xlisp;

/// Runs one kernel's generator into a fresh trace, for the kernels' own
/// tests.
#[cfg(test)]
pub(crate) fn traced(
    generate: fn(crate::Scale, &mut dyn bpred_trace::RecordSink),
    scale: crate::Scale,
) -> bpred_trace::Trace {
    let mut trace = bpred_trace::Trace::default();
    generate(scale, &mut trace);
    trace
}
