//! The micro-phases of a traced run. Each times one layer's public calls
//! in isolation, at the workload's trace scale, and checks what they
//! return: the trace generators and codec, the result store's probe and
//! insert, and the drive matrix of predictor families × engines.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bpred_analysis::RunResult;
use bpred_core::PredictorSpec;
use bpred_harness::store::{self, JobSpec};
use bpred_trace::{read_binary, write_binary, PackedTrace, Trace};
use bpred_workloads::{Scale, Suite, Workload};

use crate::workload::Tally;
use crate::{cross_check, drive_matrix, FAMILIES};

/// Minimum host time per drive-matrix cell; short cells repeat.
const MIN_CELL_TIME: Duration = Duration::from_millis(100);

/// The trace the drive matrix runs on.
const MATRIX_TRACE: &str = "gcc";

/// Times generation, encoding, decoding, packing and digesting of every
/// SPEC and IBS trace at `scale`. Returns the metrics, every trace's
/// digest, and the decoded [`MATRIX_TRACE`] trace.
pub fn traces(scale: Scale, tally: &mut Tally) -> (BTreeMap<String, f64>, Vec<u64>, Trace) {
    let mut workloads = Workload::suite_workloads(Suite::SpecInt95);
    workloads.extend(Workload::suite_workloads(Suite::IbsUltrix));
    let mut seconds = [0.0f64; 5];
    let mut time =
        |phase: usize, started: Instant| seconds[phase] += started.elapsed().as_secs_f64();
    let mut records = 0;
    let mut digests = Vec::new();
    let mut matrix_trace = Trace::new(MATRIX_TRACE);
    for w in workloads {
        let t = Instant::now();
        let trace = w.trace(scale);
        time(0, t);
        let t = Instant::now();
        let digest = trace.digest();
        time(4, t);
        let t = Instant::now();
        let mut bytes = Vec::new();
        let encoded = write_binary(&trace, &mut bytes);
        time(1, t);
        records += trace.len();
        // Drop the generated trace before decoding: at paper scale two
        // copies of the largest trace would dominate peak memory.
        drop(trace);
        let t = Instant::now();
        let decoded = read_binary(bytes.as_slice());
        time(2, t);
        let decoded = match (encoded, decoded) {
            (Ok(()), Ok(d)) => d,
            _ => {
                tally.check(false, || {
                    format!("{} does not round-trip the codec", w.name())
                });
                continue;
            }
        };
        tally.check(decoded.digest() == digest, || {
            format!("{} decodes to a different trace", w.name())
        });
        let t = Instant::now();
        let packed = PackedTrace::build(&decoded);
        time(3, t);
        tally.check(packed.is_ok_and(|p| p.digest() == digest), || {
            format!("{} packs to a different trace", w.name())
        });
        digests.push(digest);
        if w.name() == MATRIX_TRACE {
            matrix_trace = decoded;
        }
    }
    let names = ["gen_s", "encode_s", "decode_s", "pack_s", "digest_s"];
    let mut metrics: BTreeMap<String, f64> = names
        .iter()
        .zip(seconds)
        .map(|(n, s)| (format!("traces.{n}"), s))
        .collect();
    metrics.insert("traces.records".to_owned(), records as f64);
    (metrics, digests, matrix_trace)
}

/// Times the result store's probe on a miss, insert, and probe on a hit
/// over one job per (drive-matrix family, trace digest), on this
/// process's own scratch store, emptied before and after.
pub fn store(digests: &[u64], tally: &mut Tally) -> BTreeMap<String, f64> {
    let jobs: Vec<_> = FAMILIES
        .iter()
        .flat_map(|(_, text)| {
            let spec: PredictorSpec = text.parse().expect("drive-matrix specs parse");
            digests.iter().map(move |&d| JobSpec::rate(&spec).job(d))
        })
        .collect();
    let result = |i: usize| RunResult {
        branches: i as u64,
        mispredictions: i as u64 / 3,
    };
    store::clear();
    let per_job_us = |started: Instant| started.elapsed().as_secs_f64() * 1e6 / jobs.len() as f64;
    let t = Instant::now();
    let misses = jobs
        .iter()
        .filter(|&&j| store::lookup_run(j).is_none())
        .count();
    let miss_us = per_job_us(t);
    let t = Instant::now();
    for (i, &job) in jobs.iter().enumerate() {
        store::insert_run(job, &result(i));
    }
    let insert_us = per_job_us(t);
    let t = Instant::now();
    let hits = jobs
        .iter()
        .enumerate()
        .filter(|&(i, &j)| store::lookup_run(j) == Some(result(i)))
        .count();
    let hit_us = per_job_us(t);
    store::clear();
    tally.check(misses == jobs.len(), || {
        format!("an empty store served {} jobs", jobs.len() - misses)
    });
    tally.check(hits == jobs.len(), || {
        format!("the store lost {} inserted jobs", jobs.len() - hits)
    });
    BTreeMap::from([
        ("store.lookup_miss_us".to_owned(), miss_us),
        ("store.insert_us".to_owned(), insert_us),
        ("store.lookup_hit_us".to_owned(), hit_us),
    ])
}

/// Runs the drive matrix on `trace` and cross-checks the engines.
pub fn drive(trace: &Trace, tally: &mut Tally) -> BTreeMap<String, f64> {
    let cells = drive_matrix(trace, MIN_CELL_TIME);
    let (compared, failed) = cross_check(&cells);
    tally.check(compared > 0 && failed.is_empty(), || {
        format!("engines disagree in {failed:?}")
    });
    cells
        .into_iter()
        .map(|c| (c.name, c.mbranches_per_s))
        .collect()
}
