//! Deterministic benchmark workloads standing in for the paper's
//! IBS-Ultrix and SPEC CINT95 traces.
//!
//! The original traces came from hardware monitoring (IBS) and ATOM
//! instrumentation (SPEC) of real benchmark runs — inputs this
//! reproduction cannot obtain. Each module here instead implements the
//! *algorithmic core* of the corresponding benchmark in Rust and routes
//! every interesting conditional through a [`Tracer`], producing a branch
//! stream with the same statistical structure: compress is a real LZW
//! codec, go plays Monte-Carlo games on a real board, xlisp is a real
//! Lisp interpreter, verilog a real event-driven gate simulator, and so
//! on. All workloads are seeded and fully deterministic.
//!
//! Branch site addresses are stable compile-time hashes of the source
//! location (see [`site!`]), optionally fanned out with
//! [`Site::with_index`] to model code expanded from large dispatch
//! tables — that is how the gcc-like workloads reach thousands of static
//! branch sites, matching the paper's Table 2 spread.
//!
//! A generator keeps no trace of its own: it pushes each record into
//! the [`RecordSink`](bpred_trace::RecordSink) it is given, as the
//! record happens. [`Workload::generate`] runs it into any sink — the
//! harness passes a packed-trace builder and a cache-file writer, so a
//! paper-scale trace never exists as 24-byte records in memory — and
//! [`Workload::trace`] runs it into a `Trace`.
//!
//! ```
//! use bpred_trace::PackedTraceBuilder;
//! use bpred_workloads::{Scale, Workload};
//!
//! let compress = Workload::by_name("compress").unwrap();
//! let trace = compress.trace(Scale::Smoke);
//! assert!(trace.stats().dynamic_conditional > 1_000);
//!
//! let mut builder = PackedTraceBuilder::new(compress.name());
//! compress.generate(Scale::Smoke, &mut builder);
//! assert_eq!(builder.finish().digest(), trace.digest());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;
pub mod rng;
pub mod tracer;

mod kernels;

pub use registry::{sim_kernel_observed, sim_kernel_program, Scale, Suite, Workload};
pub use rng::Rng;
pub use tracer::{Site, Tracer};

/// Every source file that can change what a generated trace contains:
/// the kernels themselves plus the tracer, RNG, registry (scale
/// factors), and this file. Baked in at compile time so the digest
/// tracks the code that actually ran, not whatever is on disk at run
/// time.
const GENERATOR_SOURCES: &[&str] = &[
    include_str!("lib.rs"),
    include_str!("registry.rs"),
    include_str!("rng.rs"),
    include_str!("tracer.rs"),
    include_str!("kernels/mod.rs"),
    include_str!("kernels/compress.rs"),
    include_str!("kernels/gcc.rs"),
    include_str!("kernels/go.rs"),
    include_str!("kernels/groff.rs"),
    include_str!("kernels/gs.rs"),
    include_str!("kernels/mpeg.rs"),
    include_str!("kernels/nroff.rs"),
    include_str!("kernels/perl.rs"),
    include_str!("kernels/sdet.rs"),
    include_str!("kernels/textgen.rs"),
    include_str!("kernels/verilog.rs"),
    include_str!("kernels/vortex.rs"),
    include_str!("kernels/xlisp.rs"),
];

/// FNV-1a-64 digest of every workload-generator source file.
///
/// Trace caches key their files by this digest, so editing any kernel
/// (or the tracer, RNG, or scale table) automatically invalidates
/// every cached trace — no manually bumped version to forget.
#[must_use]
pub fn source_digest() -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET;
    for src in GENERATOR_SOURCES {
        for b in src.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Separator: moving bytes across file boundaries must not
        // produce the same digest.
        h ^= 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod source_digest_tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_nonzero() {
        assert_eq!(source_digest(), source_digest());
        assert_ne!(source_digest(), 0);
    }

    #[test]
    fn every_kernel_module_is_digested() {
        // One include per kernel file plus the four support files; a
        // new kernel must be added to GENERATOR_SOURCES or cached
        // traces would survive its edits.
        let this = include_str!("lib.rs");
        let kernel_count = this.matches("include_str!(\"kernels/").count();
        assert_eq!(
            kernel_count,
            1 + 13,
            "kernels/mod.rs plus one include per kernel module"
        );
    }
}
