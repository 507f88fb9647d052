//! Experiment-regeneration benchmarks: one per paper table/figure
//! family, at smoke scale, so regressions in the harness hot paths are
//! caught. (The full-scale regeneration lives in the `repro` binary.)

use criterion::{criterion_group, criterion_main, Criterion};

use bpred_analysis::Analysis;
use bpred_core::{BiMode, BiModeConfig, Gshare};
use bpred_harness::search::best_gshare;
use bpred_harness::sweep::{sweep_scheme, Scheme};
use bpred_harness::traces::TraceSet;
use bpred_trace::PackedTrace;
use bpred_workloads::{Scale, Workload};

fn gcc_packed() -> PackedTrace {
    let trace = Workload::by_name("gcc")
        .expect("registered")
        .trace(Scale::Smoke);
    PackedTrace::build(&trace).expect("gcc site table fits")
}

fn small_set() -> TraceSet {
    TraceSet::of(
        vec![
            Workload::by_name("gcc").expect("registered"),
            Workload::by_name("compress").expect("registered"),
        ],
        Scale::Smoke,
        None,
    )
}

/// Figure 2/3/4 kernel: the size sweep.
fn bench_fig2_sweep(c: &mut Criterion) {
    let trace = gcc_packed();
    let traces = [&trace];
    let mut group = c.benchmark_group("fig2_sweep");
    group.sample_size(10);
    group.bench_function("bimode_ladder", |b| {
        b.iter(|| sweep_scheme(&traces, Scheme::BiMode, Some(1)));
    });
    group.bench_function("gshare_1pht_ladder", |b| {
        b.iter(|| sweep_scheme(&traces, Scheme::GshareSinglePht, Some(1)));
    });
    group.finish();
}

/// The gshare.best exhaustive search (Section 3.1 methodology).
fn bench_best_search(c: &mut Criterion) {
    let trace = gcc_packed();
    let mut group = c.benchmark_group("gshare_best_search");
    group.sample_size(10);
    group.bench_function("s12", |b| {
        b.iter(|| best_gshare(&[&trace], 12, Some(1)));
    });
    group.finish();
}

/// Figure 5/6 and Table 4 kernel: the two-pass bias analysis.
fn bench_bias_analysis(c: &mut Criterion) {
    let trace = gcc_packed();
    let mut group = c.benchmark_group("bias_analysis");
    group.sample_size(10);
    group.bench_function("fig5_gshare_8_8", |b| {
        b.iter(|| Analysis::run(&trace, || Gshare::new(8, 8)));
    });
    group.bench_function("fig6_bimode_7", |b| {
        b.iter(|| Analysis::run(&trace, || BiMode::new(BiModeConfig::paper_default(7))));
    });
    group.finish();
}

/// Table 2 kernel: trace statistics.
fn bench_table2_stats(c: &mut Criterion) {
    let set = small_set();
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_function("stats", |b| {
        b.iter(|| {
            set.entries()
                .iter()
                .map(|(_, t)| t.stats().dynamic_conditional)
                .sum::<u64>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig2_sweep,
    bench_best_search,
    bench_bias_analysis,
    bench_table2_stats
);
criterion_main!(benches);
