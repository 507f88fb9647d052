//! Cross-crate integration: the ISA machine feeding the analysis
//! framework, the tracer feeding predictors, and the harness
//! experiments running end to end at smoke scale.

use bimode_repro::analysis::{measure, measure_packed, Analysis};
use bimode_repro::core::{Gshare, HistorySource, Predictor, TwoLevel};
use bimode_repro::harness::experiments;
use bimode_repro::harness::TraceSet;
use bimode_repro::sim::{assemble, Machine};
use bimode_repro::trace::{PackedTrace, Trace};
use bimode_repro::workloads::{site, Scale, Suite, Tracer, Workload};

#[test]
fn isa_machine_traces_flow_through_analysis() {
    // A loop nest on the ISA machine: inner loop branch strongly taken.
    let program = assemble(
        r"
              li   r1, 40
              li   r2, 0
        outer:li   r3, 0
        inner:addi r3, r3, 1
              li   r4, 25
              blt  r3, r4, inner
              addi r2, r2, 1
              blt  r2, r1, outer
              halt
        ",
    )
    .expect("assembles");
    let mut m = Machine::with_memory(program, 64);
    let trace = PackedTrace::build(&m.run(1_000_000).expect("halts")).unwrap();

    let analysis = Analysis::run(&trace, || Gshare::new(8, 4));
    // The inner-loop branch stream is ST-dominated overall.
    let (dominant, _, _) = analysis.area_fractions();
    assert!(dominant > 0.7, "loop nest should be dominated: {dominant}");
    assert!(analysis.run.misprediction_rate() < 0.15);
}

#[test]
fn tracer_workloads_drive_two_level_predictors() {
    let mut trace = Trace::new("alternating");
    let mut t = Tracer::new(&mut trace);
    for i in 0..2_000 {
        t.branch(site!(), i % 2 == 0);
    }
    // GAg learns the alternation, bimodal-style GAs with zero history
    // cannot.
    let gag = measure(&trace, &mut TwoLevel::new(HistorySource::Global, 0, 4));
    let flat = measure(&trace, &mut TwoLevel::new(HistorySource::Global, 4, 0));
    assert!(
        gag.misprediction_rate() < 0.02,
        "GAg: {:.3}",
        gag.misprediction_rate()
    );
    assert!(
        flat.misprediction_rate() > 0.45,
        "flat: {:.3}",
        flat.misprediction_rate()
    );
}

#[test]
fn harness_experiments_run_at_smoke_scale() {
    let set = TraceSet::of(
        vec![
            Workload::by_name("gcc").unwrap(),
            Workload::by_name("go").unwrap(),
            Workload::by_name("compress").unwrap(),
        ],
        Scale::Smoke,
        None,
    );
    // Table experiments.
    let t2 = experiments::table2(&set);
    assert_eq!(t2.sections[0].1.len(), 3);
    let t4 = experiments::table4(&set);
    assert!(!t4.sections.is_empty());
    // Figure experiments (the sweep-based ones are exercised in the
    // harness's own tests; here the analysis-based ones).
    let f5 = experiments::fig5(&set);
    assert_eq!(f5.sections.len(), 4);
    let f7 = experiments::fig78(&set, "gcc");
    assert_eq!(f7.sections[0].1.len(), 9);
}

#[test]
fn suite_average_pipeline_matches_manual_computation() {
    let set = TraceSet::of(
        Workload::suite_workloads(Suite::SpecInt95),
        Scale::Smoke,
        None,
    );
    let traces: Vec<_> = set.suite(Suite::SpecInt95).map(|(_, t)| t).collect();
    assert_eq!(traces.len(), 6);
    // Manual average with a fixed predictor.
    let mut p = Gshare::new(10, 8);
    let mut sum = 0.0;
    for t in &traces {
        p.reset();
        sum += measure_packed(t, &mut p).misprediction_rate();
    }
    let manual = sum / traces.len() as f64;
    assert!(
        manual > 0.0 && manual < 0.3,
        "suite average out of band: {manual}"
    );
}

#[test]
fn sim_kernel_workloads_are_registered_and_analysable() {
    let w = Workload::by_name("sim-binary-search").expect("registered");
    let trace = PackedTrace::build(&w.trace(Scale::Smoke)).unwrap();
    let analysis = Analysis::run(&trace, || Gshare::new(10, 6));
    // Binary search compares are data-dependent: WB must be visible.
    let (_, _, wb) = analysis.area_fractions();
    assert!(wb > 0.05, "expected weakly-biased compares, got {wb}");
}

#[test]
fn btfnt_exploits_backward_loop_branches_on_isa_traces() {
    use bimode_repro::core::AlwaysNotTaken;
    use bimode_repro::core::Btfnt;
    // The sieve is loop-dominated with backward loop branches: BTFNT
    // must beat static not-taken by a wide margin.
    let trace = bimode_repro::sim::kernels::sieve(20_000);
    let btfnt = measure(&trace, &mut Btfnt);
    let not_taken = measure(&trace, &mut AlwaysNotTaken);
    assert!(
        btfnt.misprediction_rate() + 0.2 < not_taken.misprediction_rate(),
        "btfnt {:.3} vs always-not-taken {:.3}",
        btfnt.misprediction_rate(),
        not_taken.misprediction_rate()
    );
}

#[test]
fn alias_taxonomy_runs_on_real_workloads() {
    use bimode_repro::analysis::AliasReport;
    let trace = PackedTrace::build(&Workload::by_name("gcc").unwrap().trace(Scale::Smoke)).unwrap();
    let gshare = AliasReport::measure(&trace, || Gshare::new(8, 8));
    assert!(
        gshare.counters_shared > 0,
        "a 256-counter table must alias on gcc"
    );
    // Streams and pair counts must be self-consistent.
    assert!(gshare.streams >= gshare.counters_used);
    assert!(gshare.total_pairs() >= u64::from(gshare.counters_shared > 0));
}

#[test]
fn streaming_codec_handles_workload_traces() {
    use bimode_repro::trace::{read_binary, write_binary};

    /// Hands out at most 7 bytes per read, like a pipe or a socket.
    struct Pieces<'a>(&'a [u8]);
    impl std::io::Read for Pieces<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out.len().min(self.0.len()).min(7);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    let trace = Workload::by_name("xlisp").unwrap().trace(Scale::Smoke);
    let mut buf = Vec::new();
    write_binary(&trace, &mut buf).expect("write");
    let back = read_binary(Pieces(&buf)).expect("decodes");
    assert_eq!(back.name(), "xlisp");
    assert_eq!(back.len(), trace.len());
    assert_eq!(back.digest(), trace.digest());
}

#[test]
fn quicksort_and_matmul_are_registered_workloads() {
    for name in ["sim-quicksort", "sim-matmul"] {
        let w = Workload::by_name(name).expect("registered");
        let t = w.trace(Scale::Smoke);
        assert!(t.stats().dynamic_conditional > 1_000, "{name}");
    }
}
