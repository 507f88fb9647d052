//! `bpred-bench`: the controlled benchmark of the bi-mode reproduction.
//!
//! Four workloads (see [`workload::Workload`]) drive the program through
//! its public front doors — `orchestrate::plan`/`execute`, the report
//! writers, `Manifest::write` and `serve::Server` — each repetition in a
//! fresh worker process with its own trace cache and result store. An
//! untraced run reports the end-to-end metrics of `BENCHMARK.json`; a
//! traced run reports the per-layer ones, including the drive matrix
//! defined here: every predictor family through every engine that
//! runs it, on one trace.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use bpred_analysis::{measure, measure_batch, measure_packed, measure_sliced, LaneSpec, RunResult};
use bpred_core::PredictorSpec;
use bpred_trace::{PackedTrace, Trace};

pub mod definition;
pub mod host;
pub mod layers;
pub mod outputs;
pub mod repro;
pub mod serve;
pub mod stats;
pub mod workload;

/// The families of the drive matrix at the 2 KB gshare budget (s = 13):
/// the s = 13 rows of the `compare-dealias` and `zoo.cost` grids, plus
/// tri-mode at the bi-mode point, as canonical grammar strings.
pub const FAMILIES: [(&str, &str); 13] = [
    ("bimodal", "bimodal:s=13"),
    ("gshare", "gshare:s=13,h=13"),
    ("gselect", "gselect:a=4,h=9"),
    ("bimode", "bimode:d=12,c=12,h=12"),
    ("agree", "agree:s=13,h=13,b=12"),
    ("gskew", "gskew:s=12,h=12"),
    ("2bcgskew", "2bcgskew:s=12,h=12"),
    ("yags", "yags:c=12,e=11,h=11,t=6"),
    ("tournament", "tournament:s=12"),
    ("trimode", "trimode:d=12,c=12,h=12"),
    ("tage", "tage:t=4,h=63,tag=8,e=10"),
    ("perceptron", "perceptron:n=7,h=16,theta=44"),
    ("cascade", "cascade:bimodal:s=11;tage:t=2,h=63,tag=6,e=10"),
];

/// Lanes of the batch cells: a small sweep ladder's worth.
const BATCH_LANES: usize = 8;

/// One cell of the drive matrix: one family through one engine.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `drive.<engine><lanes>.<family>`.
    pub name: String,
    /// The spec each lane ran, in grammar form.
    pub lanes: Vec<String>,
    /// Each lane's result.
    pub results: Vec<RunResult>,
    /// Millions of lane-branches retired per second of host time.
    pub mbranches_per_s: f64,
}

fn parse(spec: &str) -> PredictorSpec {
    spec.parse()
        .unwrap_or_else(|e| panic!("drive-matrix spec `{spec}` must parse: {e}"))
}

/// Repeats `drive` until `min_time` has passed (at least once) and
/// returns its results and the host seconds one pass took.
fn timed(min_time: Duration, mut drive: impl FnMut() -> Vec<RunResult>) -> (Vec<RunResult>, f64) {
    let started = Instant::now();
    let mut passes = 0u32;
    loop {
        let results = black_box(drive());
        passes += 1;
        if started.elapsed() >= min_time {
            return (results, started.elapsed().as_secs_f64() / f64::from(passes));
        }
    }
}

/// Drives every family of [`FAMILIES`] over `trace` through the packed
/// engine and an eight-lane batch, the scalar engine for gshare and
/// bi-mode, and the sliced engine with one and 64 lanes. Each cell
/// repeats until `min_time` has passed.
///
/// # Panics
///
/// Panics if `trace` has more branch sites than the packed form holds.
#[must_use]
pub fn drive_matrix(trace: &Trace, min_time: Duration) -> Vec<Cell> {
    let packed = PackedTrace::build(trace).expect("workload site tables fit 32-bit ids");
    let branches = packed.len() as f64;
    let mut cells = Vec::new();
    let mut cell = |name: String, lanes: Vec<String>, drive: &mut dyn FnMut() -> Vec<RunResult>| {
        let (results, seconds) = timed(min_time, drive);
        cells.push(Cell {
            name,
            mbranches_per_s: lanes.len() as f64 * branches / seconds / 1e6,
            lanes,
            results,
        });
    };
    for (family, text) in FAMILIES {
        let spec = parse(text);
        cell(
            format!("drive.packed.{family}"),
            vec![spec.to_string()],
            &mut || vec![measure_packed(&packed, spec.build().as_mut())],
        );
        cell(
            format!("drive.batch{BATCH_LANES}.{family}"),
            vec![spec.to_string(); BATCH_LANES],
            &mut || {
                let mut batch: Vec<_> = (0..BATCH_LANES).map(|_| spec.build()).collect();
                measure_batch(&packed, &mut batch)
            },
        );
    }
    for family in ["gshare", "bimode"] {
        let spec = FAMILIES
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, s)| parse(s));
        let spec = spec.expect("scalar families are in the matrix");
        cell(
            format!("drive.scalar.{family}"),
            vec![spec.to_string()],
            &mut || vec![measure(trace, spec.build().as_mut())],
        );
    }
    let sliced = [
        ("drive.sliced1.gshare", vec![(13, 13)]),
        // A sweep-shaped group: one table size at every history length.
        (
            "drive.sliced64.gshare",
            (0..64).map(|i| (13, i % 14)).collect(),
        ),
        (
            "drive.sliced64.bimodal",
            (0..64).map(|i| (8 + i % 6, 0)).collect(),
        ),
    ];
    for (name, shape) in sliced {
        let lanes: Vec<LaneSpec> = shape
            .iter()
            .map(|&(table_bits, history_bits)| LaneSpec {
                table_bits,
                history_bits,
            })
            .collect();
        let specs = lanes
            .iter()
            .map(|l| match l.history_bits {
                0 if name.ends_with("bimodal") => format!("bimodal:s={}", l.table_bits),
                h => format!("gshare:s={},h={h}", l.table_bits),
            })
            .collect();
        cell(name.to_owned(), specs, &mut || {
            measure_sliced(&packed, &lanes)
        });
    }
    cells
}

/// Cross-checks the engines: every lane whose spec also ran as a packed
/// cell must reproduce that cell's result exactly. Returns how many
/// lanes were compared and the names of cells that disagreed.
#[must_use]
pub fn cross_check(cells: &[Cell]) -> (usize, Vec<String>) {
    let packed: Vec<(&str, RunResult)> = cells
        .iter()
        .filter(|c| c.name.starts_with("drive.packed."))
        .map(|c| (c.lanes[0].as_str(), c.results[0]))
        .collect();
    let mut compared = 0;
    let mut failed = Vec::new();
    for c in cells
        .iter()
        .filter(|c| !c.name.starts_with("drive.packed."))
    {
        for (spec, result) in c.lanes.iter().zip(&c.results) {
            if let Some((_, expected)) = packed.iter().find(|(s, _)| s == spec) {
                compared += 1;
                if result != expected && !failed.contains(&c.name) {
                    failed.push(c.name.clone());
                }
            }
        }
    }
    (compared, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_specs_are_canonical_grammar_strings() {
        for (family, text) in FAMILIES {
            let spec = parse(text);
            assert_eq!(spec.to_string(), text, "{family} is written canonically");
            assert!(text.starts_with(family), "{family} names its spec");
        }
    }

    #[test]
    fn every_engine_agrees_on_a_small_trace() {
        let trace = bpred_workloads::Workload::by_name("compress")
            .expect("registered")
            .trace(bpred_workloads::Scale::Smoke)
            .truncated(5_000);
        let cells = drive_matrix(&trace, Duration::ZERO);
        assert_eq!(cells.len(), 31);
        assert!(cells.iter().all(|c| c.mbranches_per_s > 0.0));
        let (compared, failed) = cross_check(&cells);
        // 8 batch lanes x 13 families, 2 scalar cells, and the sliced
        // lanes equal to a packed spec: 1 alone, 4 gshare h=13 lanes in
        // 64 (i % 14 == 13), 10 bimodal s=13 lanes in 64 (i % 6 == 5).
        assert_eq!(compared, 8 * 13 + 2 + 1 + 4 + 10);
        assert!(failed.is_empty(), "{failed:?}");
    }
}
