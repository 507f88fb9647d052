//! End-to-end integration: workload generation -> trace codec ->
//! simulation -> analysis, across every crate boundary.

use std::io::Cursor;

use bimode_repro::analysis::{measure, Analysis};
use bimode_repro::core::{BiMode, BiModeConfig, Gshare, Predictor, PredictorSpec};
use bimode_repro::trace::{read_binary, write_binary, PackedTrace};
use bimode_repro::workloads::{Scale, Suite, Workload};

#[test]
fn every_workload_generates_and_simulates() {
    for w in Workload::all() {
        let trace = w.trace(Scale::Smoke);
        let stats = trace.stats();
        assert!(
            stats.dynamic_conditional > 1_000,
            "{} produced only {} conditional branches",
            w.name(),
            stats.dynamic_conditional
        );
        assert!(
            stats.static_conditional > 3,
            "{} has too few static branches",
            w.name()
        );

        // Every workload must be predictable to a sane degree by a
        // large gshare (sanity bound: better than random).
        let result = measure(&trace, &mut Gshare::new(14, 12));
        assert!(
            result.misprediction_rate() < 0.45,
            "{}: gshare mispredicted {:.1}%",
            w.name(),
            result.misprediction_percent()
        );
    }
}

#[test]
fn binary_codec_roundtrips_real_workload_traces() {
    let trace = Workload::by_name("verilog").unwrap().trace(Scale::Smoke);
    let mut buf = Vec::new();
    write_binary(&trace, &mut buf).expect("write");
    let back = read_binary(Cursor::new(&buf)).expect("read");
    assert_eq!(trace, back);
}

#[test]
fn analysis_pass_agrees_with_plain_measurement_on_workloads() {
    for name in ["gcc", "go", "vortex"] {
        let trace = Workload::by_name(name).unwrap().trace(Scale::Smoke);
        let packed = PackedTrace::build(&trace).unwrap();
        for make in [
            || -> Box<dyn Predictor> { Box::new(Gshare::new(9, 7)) },
            || -> Box<dyn Predictor> { Box::new(BiMode::new(BiModeConfig::paper_default(8))) },
        ] {
            let analysis = Analysis::run(&packed, make);
            let plain = measure(&trace, &mut make());
            assert_eq!(
                analysis.run, plain,
                "{name}: attribution must not perturb results"
            );
            assert_eq!(
                analysis.run.mispredictions,
                analysis.breakdown.st + analysis.breakdown.snt + analysis.breakdown.wb,
                "{name}: misprediction attribution must be exhaustive"
            );
            let accesses: u64 = analysis.per_counter.iter().map(|c| c.total()).sum();
            assert_eq!(
                accesses, analysis.run.branches,
                "{name}: every access attributed"
            );
        }
    }
}

#[test]
fn spec_strings_drive_the_full_pipeline() {
    let trace = Workload::by_name("perl").unwrap().trace(Scale::Smoke);
    let mut results = Vec::new();
    for spec in [
        "bimodal:s=10",
        "gshare:s=10,h=10",
        "bimode:d=9",
        "yags:c=9,e=8,h=8,t=6",
    ] {
        let spec: PredictorSpec = spec.parse().expect("valid spec");
        let mut p = spec.build();
        let r = measure(&trace, p.as_mut());
        assert!(r.branches > 0);
        results.push((spec.to_string(), r.misprediction_rate()));
    }
    // All four schemes should land in a plausible band on perl.
    for (name, rate) in &results {
        assert!(*rate < 0.35, "{name} at {:.1}%", 100.0 * rate);
    }
}

#[test]
fn suites_partition_the_paper_workloads() {
    let spec = Workload::suite_workloads(Suite::SpecInt95);
    let ibs = Workload::suite_workloads(Suite::IbsUltrix);
    assert_eq!(spec.len(), 6, "six SPEC CINT95 benchmarks as in Table 2");
    assert_eq!(ibs.len(), 8, "eight IBS-Ultrix benchmarks as in Table 2");
}

#[test]
fn workload_traces_are_stable_across_generations() {
    // Determinism across independent generator invocations, which the
    // disk cache and EXPERIMENTS.md numbers rely on.
    for name in ["xlisp", "sdet"] {
        let w = Workload::by_name(name).unwrap();
        assert_eq!(
            w.trace(Scale::Smoke),
            w.trace(Scale::Smoke),
            "{name} is not deterministic"
        );
    }
}
