//! The workload registry: the benchmark suites of the paper's Table 2,
//! plus the PC-accurate ISA-simulator kernels as a third suite.

use std::fmt;

use bpred_trace::{RecordSink, Trace};

use crate::kernels;

/// How much work a trace generation performs.
///
/// `Smoke` is for tests (tens of thousands of branches), `Paper` is the
/// default experiment scale (on the order of a million conditional
/// branches per workload), and `Full` approaches the paper's own trace
/// lengths at the cost of runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Fast: for unit tests and smoke checks.
    Smoke,
    /// The default experiment scale.
    #[default]
    Paper,
    /// Long traces, closest to the paper's 5-40M dynamic branches.
    Full,
}

impl Scale {
    /// Work multiplier relative to `Smoke`.
    #[must_use]
    pub fn factor(self) -> u64 {
        match self {
            Scale::Smoke => 1,
            Scale::Paper => 12,
            Scale::Full => 48,
        }
    }

    /// Parses `smoke|paper|full`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "paper" => Some(Scale::Paper),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scale::Smoke => "smoke",
            Scale::Paper => "paper",
            Scale::Full => "full",
        };
        f.write_str(s)
    }
}

/// Benchmark suite membership, following the paper's grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CINT95 analogues (paper Figure 3).
    SpecInt95,
    /// IBS-Ultrix analogues (paper Figure 4).
    IbsUltrix,
    /// PC-accurate kernels from the `bpred-sim` ISA machine.
    SimKernels,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::SpecInt95 => "SPEC CINT95",
            Suite::IbsUltrix => "IBS-Ultrix",
            Suite::SimKernels => "sim-kernels",
        };
        f.write_str(s)
    }
}

/// One registered workload.
#[derive(Clone, Copy)]
pub struct Workload {
    name: &'static str,
    suite: Suite,
    description: &'static str,
    generator: fn(Scale, &mut dyn RecordSink),
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

impl Workload {
    /// The benchmark name as it appears in the paper's tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Which suite the workload belongs to.
    #[must_use]
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// A one-line description of the modelled benchmark.
    #[must_use]
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Runs the workload's generator once at `scale`, pushing every
    /// branch record into `sink` as it happens.
    pub fn generate(&self, scale: Scale, sink: &mut dyn RecordSink) {
        (self.generator)(scale, sink);
    }

    /// Generates the workload's branch trace: [`generate`](Self::generate)
    /// into a [`Trace`] named after the workload.
    #[must_use]
    pub fn trace(&self, scale: Scale) -> Trace {
        let mut trace = Trace::new(self.name);
        self.generate(scale, &mut trace);
        trace
    }

    /// All registered workloads, paper order: SPEC then IBS then sim.
    #[must_use]
    pub fn all() -> Vec<Workload> {
        REGISTRY.to_vec()
    }

    /// The workloads of one suite.
    #[must_use]
    pub fn suite_workloads(suite: Suite) -> Vec<Workload> {
        REGISTRY
            .iter()
            .filter(|w| w.suite == suite)
            .copied()
            .collect()
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        REGISTRY.iter().find(|w| w.name == name).copied()
    }
}

fn sim_bubble_n(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 120,
        Scale::Paper => 450,
        Scale::Full => 900,
    }
}

fn sim_bubble(scale: Scale, sink: &mut dyn RecordSink) {
    bpred_sim::kernels::bubble_sort_observed(sim_bubble_n(scale), sink, &mut |_| {});
}

fn sim_bsearch_queries(scale: Scale) -> usize {
    600 * scale.factor() as usize
}

fn sim_bsearch(scale: Scale, sink: &mut dyn RecordSink) {
    bpred_sim::kernels::binary_search_observed(4096, sim_bsearch_queries(scale), sink, &mut |_| {});
}

fn sim_quicksort_n(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 1_500,
        Scale::Paper => 18_000,
        Scale::Full => 50_000,
    }
}

fn sim_quicksort(scale: Scale, sink: &mut dyn RecordSink) {
    bpred_sim::kernels::quicksort_observed(sim_quicksort_n(scale), sink, &mut |_| {});
}

fn sim_matmul_n(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 24,
        Scale::Paper => 64,
        Scale::Full => 110,
    }
}

fn sim_matmul(scale: Scale, sink: &mut dyn RecordSink) {
    bpred_sim::kernels::matmul_observed(sim_matmul_n(scale), sink, &mut |_| {});
}

fn sim_sieve_n(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 8_000,
        Scale::Paper => 120_000,
        Scale::Full => 500_000,
    }
}

fn sim_sieve(scale: Scale, sink: &mut dyn RecordSink) {
    bpred_sim::kernels::sieve_observed(sim_sieve_n(scale), sink, &mut |_| {});
}

/// Re-executes the sim-kernel workload `name` at `scale` with the same
/// per-scale parameters its trace generator uses, streaming every
/// conditional branch — with the interpreter's observed operand values —
/// to `observe`. Returns the trace it produced (identical to
/// [`Workload::trace`] for the same name and scale), or `None` for
/// workloads that are not program-backed. This is the dynamic ground
/// truth the `cfa/absint` soundness audit compares abstract value sets
/// and taken-probability bounds against.
pub fn sim_kernel_observed(
    name: &str,
    scale: Scale,
    observe: &mut dyn FnMut(&bpred_sim::BranchObservation),
) -> Option<Trace> {
    use bpred_sim::kernels as k;
    let mut trace = Trace::new(name);
    let sink = &mut trace;
    match name {
        "sim-bubble-sort" => k::bubble_sort_observed(sim_bubble_n(scale), sink, observe),
        "sim-binary-search" => {
            k::binary_search_observed(4096, sim_bsearch_queries(scale), sink, observe);
        }
        "sim-sieve" => k::sieve_observed(sim_sieve_n(scale), sink, observe),
        "sim-quicksort" => k::quicksort_observed(sim_quicksort_n(scale), sink, observe),
        "sim-matmul" => k::matmul_observed(sim_matmul_n(scale), sink, observe),
        _ => return None,
    }
    Some(trace)
}

/// The assembled [`bpred_sim::Program`] behind one sim-kernel workload
/// at `scale` — built from the same source text (and the same per-scale
/// parameters) the trace generator executes, so a static analysis of
/// the returned program and the dynamic trace provably describe one
/// artefact. Returns `None` for workloads that are not program-backed
/// (the SPEC/IBS behavioural models, whose PCs are synthetic site
/// hashes with no underlying instruction stream).
///
/// # Panics
///
/// Panics if a kernel's own source text fails to assemble — a build
/// defect, covered by tests.
#[must_use]
pub fn sim_kernel_program(name: &str, scale: Scale) -> Option<bpred_sim::Program> {
    use bpred_sim::kernels as k;
    let source = match name {
        "sim-bubble-sort" => k::bubble_sort_source(sim_bubble_n(scale)),
        "sim-binary-search" => k::binary_search_source(4096, sim_bsearch_queries(scale)),
        "sim-sieve" => k::sieve_source(sim_sieve_n(scale)),
        "sim-quicksort" => k::quicksort_source(sim_quicksort_n(scale)),
        "sim-matmul" => k::matmul_source(sim_matmul_n(scale)),
        _ => return None,
    };
    let program = bpred_sim::assemble(&source)
        .unwrap_or_else(|e| panic!("kernel `{name}` failed to assemble: {e}"));
    Some(program)
}

const REGISTRY: &[Workload] = &[
    Workload {
        name: "compress",
        suite: Suite::SpecInt95,
        description: "LZW compression/decompression over Zipf-structured text",
        generator: kernels::compress::trace,
    },
    Workload {
        name: "gcc",
        suite: Suite::SpecInt95,
        description: "optimizing compiler pipeline over generated programs",
        generator: kernels::gcc::trace,
    },
    Workload {
        name: "go",
        suite: Suite::SpecInt95,
        description: "Monte-Carlo Go self-play with capture logic",
        generator: kernels::go::trace,
    },
    Workload {
        name: "xlisp",
        suite: Suite::SpecInt95,
        description: "Lisp interpreter running recursive list programs",
        generator: kernels::xlisp::trace,
    },
    Workload {
        name: "perl",
        suite: Suite::SpecInt95,
        description: "regex-lite scanning and word-frequency scripting",
        generator: kernels::perl::trace,
    },
    Workload {
        name: "vortex",
        suite: Suite::SpecInt95,
        description: "in-memory object database with a skewed transaction mix",
        generator: kernels::vortex::trace,
    },
    Workload {
        name: "groff",
        suite: Suite::IbsUltrix,
        description: "text formatter with justification and hyphenation",
        generator: kernels::groff::trace,
    },
    Workload {
        name: "gs",
        suite: Suite::IbsUltrix,
        description: "software rasteriser: polygon fill, lines, clipping",
        generator: kernels::gs::trace,
    },
    Workload {
        name: "mpeg_play",
        suite: Suite::IbsUltrix,
        description: "block video decoder: RLE, IDCT, motion compensation",
        generator: kernels::mpeg::trace_mpeg_play,
    },
    Workload {
        name: "nroff",
        suite: Suite::IbsUltrix,
        description: "terminal formatter: filling, centering, pagination",
        generator: kernels::nroff::trace,
    },
    Workload {
        name: "real_gcc",
        suite: Suite::IbsUltrix,
        description: "the compiler pipeline over a larger input mix",
        generator: kernels::gcc::trace_real_gcc,
    },
    Workload {
        name: "sdet",
        suite: Suite::IbsUltrix,
        description: "systems mix: scheduler, file-system tree, syscalls",
        generator: kernels::sdet::trace,
    },
    Workload {
        name: "verilog",
        suite: Suite::IbsUltrix,
        description: "event-driven gate-level logic simulator",
        generator: kernels::verilog::trace,
    },
    Workload {
        name: "video_play",
        suite: Suite::IbsUltrix,
        description: "lighter video decoder: more skips, sparser residuals",
        generator: kernels::mpeg::trace_video_play,
    },
    Workload {
        name: "sim-bubble-sort",
        suite: Suite::SimKernels,
        description: "ISA-machine bubble sort (PC-accurate branches)",
        generator: sim_bubble,
    },
    Workload {
        name: "sim-binary-search",
        suite: Suite::SimKernels,
        description: "ISA-machine repeated binary search",
        generator: sim_bsearch,
    },
    Workload {
        name: "sim-sieve",
        suite: Suite::SimKernels,
        description: "ISA-machine sieve of Eratosthenes",
        generator: sim_sieve,
    },
    Workload {
        name: "sim-quicksort",
        suite: Suite::SimKernels,
        description: "ISA-machine quicksort with explicit stack and calls",
        generator: sim_quicksort,
    },
    Workload {
        name: "sim-matmul",
        suite: Suite::SimKernels,
        description: "ISA-machine dense matrix multiply (counted loop nest)",
        generator: sim_matmul,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_papers_benchmark_lists() {
        let spec: Vec<&str> = Workload::suite_workloads(Suite::SpecInt95)
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(spec, ["compress", "gcc", "go", "xlisp", "perl", "vortex"]);
        let ibs: Vec<&str> = Workload::suite_workloads(Suite::IbsUltrix)
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(
            ibs,
            [
                "groff",
                "gs",
                "mpeg_play",
                "nroff",
                "real_gcc",
                "sdet",
                "verilog",
                "video_play"
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Workload::by_name("go").unwrap().suite(), Suite::SpecInt95);
        assert!(Workload::by_name("doom").is_none());
    }

    /// `(name, digest, records)` of every registered workload's smoke
    /// trace. A site's PC hashes the module, file, line and column of
    /// its `site!()`, so moving one, like any change to what a kernel
    /// does, changes these.
    const SMOKE_TRACES: [(&str, u64, usize); 19] = [
        ("compress", 0xc7e5cec4e9be9125, 65005),
        ("gcc", 0xc0fd7dc12f55b37e, 308368),
        ("go", 0x357c5a5094994363, 126461),
        ("xlisp", 0x9306a95b19246b6b, 23949),
        ("perl", 0x63cfbc8c1717b0f6, 293586),
        ("vortex", 0x3760d2fc76de5626, 128963),
        ("groff", 0x3a96c308e11c0e7a, 22334),
        ("gs", 0x23bb677ed72bb187, 331442),
        ("mpeg_play", 0x07c247576b2579cc, 135686),
        ("nroff", 0xbb80ae464f4fafb6, 35898),
        ("real_gcc", 0x04cc36f39d77e076, 269039),
        ("sdet", 0x336b37287d48ad2c, 318327),
        ("verilog", 0xb8ecb8ed50a02897, 602253),
        ("video_play", 0xca63b3b99d603671, 193691),
        ("sim-bubble-sort", 0x5f603b7b4e0a7c4e, 14519),
        ("sim-binary-search", 0x1b63c1b8bf98a129, 32996),
        ("sim-sieve", 0x120feed4b6bbeb3a, 29650),
        ("sim-quicksort", 0x5abdb0248f885d8c, 65135),
        ("sim-matmul", 0x15b8dba2f9b68e77, 15024),
    ];

    #[test]
    fn smoke_traces_match_their_pinned_digests() {
        let got: Vec<(&str, u64, usize)> = Workload::all()
            .iter()
            .map(|w| {
                let trace = w.trace(Scale::Smoke);
                (w.name(), trace.digest(), trace.len())
            })
            .collect();
        assert_eq!(got, SMOKE_TRACES);
    }

    #[test]
    fn trace_names_match_registry_names() {
        for w in Workload::all() {
            let trace = w.trace(Scale::Smoke);
            assert_eq!(
                trace.name(),
                w.name(),
                "trace name mismatch for {}",
                w.name()
            );
        }
    }

    #[test]
    fn scale_factors_are_ordered() {
        assert!(Scale::Smoke.factor() < Scale::Paper.factor());
        assert!(Scale::Paper.factor() < Scale::Full.factor());
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
        assert_eq!(Scale::Paper.to_string(), "paper");
    }

    #[test]
    fn observed_rerun_reproduces_the_workload_trace() {
        let w = Workload::by_name("sim-bubble-sort").unwrap();
        let mut count = 0usize;
        let t = sim_kernel_observed(w.name(), Scale::Smoke, &mut |_| count += 1).unwrap();
        let reference = w.trace(Scale::Smoke);
        assert_eq!(t.records(), reference.records());
        assert_eq!(count, t.conditional().count());
        assert!(sim_kernel_observed("gcc", Scale::Smoke, &mut |_| {}).is_none());
    }

    #[test]
    fn sim_suite_produces_pc_accurate_traces() {
        let t = Workload::by_name("sim-sieve").unwrap().trace(Scale::Smoke);
        assert!(t.conditional().count() > 1_000);
        // ISA-machine PCs live in its text segment, below the synthetic
        // site segment.
        assert!(t.iter().all(|r| r.pc < crate::tracer::SITE_BASE));
    }

    #[test]
    fn every_sim_workload_is_program_backed() {
        for w in Workload::suite_workloads(Suite::SimKernels) {
            let p = sim_kernel_program(w.name(), Scale::Smoke)
                .unwrap_or_else(|| panic!("{} has no program", w.name()));
            assert!(!p.instructions.is_empty(), "{}", w.name());
        }
        assert!(sim_kernel_program("gcc", Scale::Smoke).is_none());
        assert!(sim_kernel_program("nope", Scale::Smoke).is_none());
    }

    #[test]
    fn kernel_program_sites_match_the_trace() {
        // The program handed to static analysis and the generated trace
        // must agree on the conditional-site set — the contract the
        // `cfa/audit` verify pass rests on, pinned here at the source.
        let w = Workload::by_name("sim-bubble-sort").unwrap();
        let t = w.trace(Scale::Smoke);
        let p = sim_kernel_program(w.name(), Scale::Smoke).unwrap();
        let static_sites: std::collections::BTreeSet<u64> = p
            .instructions
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, bpred_sim::Instruction::Branch { .. }))
            .map(|(i, _)| bpred_sim::Program::pc_of(i))
            .collect();
        let dynamic_sites: std::collections::BTreeSet<u64> =
            t.conditional().map(|r| r.pc).collect();
        assert_eq!(static_sites, dynamic_sites);
    }
}
