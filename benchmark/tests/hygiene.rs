//! A benchmark worker run leaves the checkout as it found it: every
//! source file byte-identical (`BENCH_engine.json`, which `repro all`
//! rewrites, included), its scratch directories removed, and the default
//! trace cache never used.

use std::fs;
use std::path::{Path, PathBuf};

use bpred_benchmark::host::{checkout, WorkDir};
use bpred_benchmark::repro::{self, PlanSpec};
use bpred_workloads::Scale;

/// Directories that hold build output or scratch space, not sources.
const SKIPPED: [&str; 5] = [
    ".git",
    "target",
    ".bench_build",
    ".bench_tmp",
    "benchmark/target",
];

/// Every source file of the checkout with its contents.
fn snapshot() -> Vec<(PathBuf, Vec<u8>)> {
    let root = checkout();
    let mut files = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in fs::read_dir(&dir).expect("readable checkout") {
            let path = entry.expect("directory entry").path();
            let relative = path.strip_prefix(root).expect("under the checkout");
            if SKIPPED.iter().any(|s| relative == Path::new(s)) {
                continue;
            }
            if path.is_dir() {
                pending.push(path);
            } else if path.is_file() {
                let bytes = fs::read(&path).expect("readable file");
                files.push((relative.to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn a_worker_run_leaves_the_checkout_as_it_found_it() {
    let before = snapshot();
    assert!(
        before
            .iter()
            .any(|(p, _)| p == Path::new("BENCH_engine.json")),
        "the snapshot covers the tracked engine record"
    );
    let work = WorkDir::create().expect("scratch directory");
    let plan = PlanSpec {
        names: "table1",
        scale: Scale::Smoke,
        reference_file: "",
        reference: "",
    };
    let (cache, out) = (work.fresh("cache"), work.fresh("out"));
    let exe = Path::new(env!("CARGO_BIN_EXE_bpred-bench"));
    let rep = repro::run(exe, &plan, &cache, &out, false).expect("the worker runs table1");
    assert!(
        out.join("table1_0.csv").is_file(),
        "outputs land in the scratch directory"
    );
    assert_eq!(
        rep.cache_dir, cache,
        "the worker's trace cache is the one it was given"
    );
    assert_ne!(
        rep.cache_dir,
        std::env::temp_dir().join("bpred-trace-cache")
    );
    let scratch = work.path().to_path_buf();
    drop(work);
    assert!(!scratch.exists(), "the scratch directory is removed");
    assert!(
        snapshot() == before,
        "a worker run changed files of the checkout"
    );
}
