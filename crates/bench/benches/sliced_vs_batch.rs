//! Bit-sliced engine vs the packed batch engine at the lane widths the
//! sweeps actually use: a lone config (1), a small ladder (8), and a
//! full lane group (64). Throughput is lanes x records, so the numbers
//! are directly comparable across engines. Each sliced lane owns its
//! own `PlaneTable`, so every (lane, record) pair runs its own
//! word-wide plane transition with a single live lane: the sliced
//! side's edge is that branchless transition, two-bit counters and the
//! one shared history register, not word parallelism, while the batch
//! loop pays a data-dependent branch per (lane, record) pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bpred_analysis::{measure_batch, measure_sliced, LaneSpec};
use bpred_core::Gshare;
use bpred_trace::{PackedTrace, Trace};
use bpred_workloads::{Scale, Workload};

/// Paper scale — the `repro` default, far larger than LLC.
fn gcc_trace() -> Trace {
    Workload::by_name("gcc")
        .expect("registered")
        .trace(Scale::Paper)
}

/// The sweep-shaped lane group: a 12-bit table at every history length,
/// cycling — exactly what `gshare.best` packs into one sliced pass.
fn lanes(n: usize) -> Vec<LaneSpec> {
    (0..n)
        .map(|i| LaneSpec {
            table_bits: 12,
            history_bits: (i % 13) as u32,
        })
        .collect()
}

/// The same group as batch-engine predictors.
fn gshare_ladder(n: usize) -> Vec<Gshare> {
    (0..n).map(|i| Gshare::new(12, (i % 13) as u32)).collect()
}

fn bench_sliced_vs_batch(c: &mut Criterion) {
    let trace = gcc_trace();
    let packed = PackedTrace::build(&trace).expect("gcc site table fits");
    let mut group = c.benchmark_group("sliced_vs_batch");
    group.sample_size(10);
    for configs in [1usize, 8, 64] {
        group.throughput(Throughput::Elements(packed.len() as u64 * configs as u64));
        group.bench_with_input(BenchmarkId::new("batch", configs), &configs, |b, &n| {
            b.iter(|| {
                let mut batch = gshare_ladder(n);
                measure_batch(&packed, &mut batch)
            });
        });
        group.bench_with_input(BenchmarkId::new("sliced", configs), &configs, |b, &n| {
            b.iter(|| measure_sliced(&packed, &lanes(n)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sliced_vs_batch);
criterion_main!(benches);
