//! `bpred-check` — static verification of the predictor zoo.
//!
//! The paper's headline numbers hinge on update-policy minutiae (the
//! partial choice update, bank-selection-before-update ordering,
//! saturating-counter semantics), and a silent deviation in any of the
//! predictor implementations — or in the batched execution engine —
//! would corrupt every figure the harness reproduces. This crate pins
//! those semantics down without running traces:
//!
//! * [`model`] — an exhaustive model checker that enumerates the full
//!   reachable state space of every [`PredictorSpec`] variant at
//!   down-scaled configurations and proves purity, determinism, and the
//!   counter/index contracts on every transition;
//! * [`oracle`] — executable transcriptions of the paper's Section 2
//!   update rules (and the tri-mode extension's conflict policy),
//!   checked transition-by-transition against the real implementations;
//! * [`registry`] — the target list, the spec-grammar completeness and
//!   round-trip audit, and the structural cost audit;
//! * [`engine`] — equivalence of the scalar, packed, batched, and
//!   sliced execution paths on exhaustively enumerated
//!   micro-traces, the lane-classification audit (sliceable specs are
//!   bit-identical to scalar; everything else is an explicit batch
//!   fallback), and the exhaustive sliced-shape grid;
//! * [`lint`] — the deny-by-default repo source rules (truncating
//!   casts, unaudited panics, `forbid(unsafe_code)`, analyzer PC-cast
//!   hygiene, raw `std` concurrency primitives outside the sync
//!   facade, unaudited `Ordering::` choices);
//! * [`race`] — deterministic-interleaving model checks of the
//!   workspace's shared-state hot paths on the `bpred-race` scheduler,
//!   each with seeded mutants the checker must provably kill;
//! * [`cfa`] — the static/dynamic cross-check: every kernel program's
//!   CFG, dominator tree, and loop nest satisfy the structural
//!   invariants, the static conditional-site set equals the dynamic
//!   trace's site set exactly, and the abstract interpreter is sound —
//!   every observed branch-operand value lies inside the abstract
//!   value set at its site and every observed taken fraction inside
//!   the static taken-probability bounds;
//! * [`experiments`] — the registry-vs-DESIGN.md completeness audit
//!   (the harness supplies its registry names from `repro verify`;
//!   this crate only parses the document side).
//!
//! [`verify`] runs every pass and aggregates a [`VerifyReport`]; the
//! harness exposes it as `repro verify`, and CI runs it as a required
//! job. Run it in a debug profile: the model checker deliberately
//! drives the `debug_assert!` contracts in `bpred_core::table`,
//! `bpred_core::index`, and `bpred_core::history`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfa;
pub mod engine;
pub mod experiments;
pub mod lint;
pub mod model;
pub mod oracle;
pub mod race;
pub mod registry;
pub mod report;

use std::path::{Path, PathBuf};

use bpred_core::{BankInit, BiModeConfig, ChoiceUpdate, IndexShare, PredictorSpec, TriModeConfig};

pub use report::{CheckResult, VerifyReport};

/// Down-scaled bi-mode configurations the policy oracle must cover:
/// the paper default plus every ablation knob the spec grammar exposes.
#[must_use]
pub fn bimode_oracle_targets() -> Vec<BiModeConfig> {
    let mut always = BiModeConfig::new(2, 1, 1);
    always.choice_update = ChoiceUpdate::Always;
    let mut uniform = BiModeConfig::new(1, 2, 1);
    uniform.bank_init = BankInit::UniformWeaklyTaken;
    let mut skewed = BiModeConfig::new(2, 2, 2);
    skewed.index_share = IndexShare::SkewedPerBank;
    vec![
        BiModeConfig::new(1, 1, 1),
        BiModeConfig::new(2, 2, 1),
        always,
        uniform,
        skewed,
    ]
}

/// Down-scaled tri-mode configurations the policy oracle must cover.
#[must_use]
pub fn trimode_oracle_targets() -> Vec<TriModeConfig> {
    vec![TriModeConfig::new(1, 1, 1), TriModeConfig::new(2, 1, 1)]
}

/// State cap for the oracle walks: tiny configs close well below it.
const ORACLE_CAP: usize = 200_000;

/// Engine-equivalence coverage: every micro-trace up to this length
/// over the 4-symbol alphabet ...
const ENGINE_TRACE_LEN: usize = 3;
/// ... plus one long pseudo-random trace, over which tables fill and
/// histories wrap many times.
const ENGINE_BOUNDARY_RECORDS: usize = 9_000;

/// Lane-grid bound: every gshare `(s, m <= s)` pair and every bimodal
/// width with `s` up to this many index bits is proven bit-identical
/// to the scalar loop, and every bi-mode lane shape with `d` and `c` up
/// to it to the packed engine's `BiMode`.
const SLICED_GRID_BITS: u32 = 6;
/// Record count of the lane grids' longer probe trace.
const SLICED_GRID_RECORDS: usize = 5_000;

/// The specs driven through all three execution engines: one
/// representative per grammar name, small enough that exhaustive
/// micro-trace enumeration stays fast.
#[must_use]
pub fn engine_targets() -> Vec<PredictorSpec> {
    registry::MODEL_TARGETS
        .iter()
        .map(|t| t.spec)
        .filter(|s| {
            s.parse::<PredictorSpec>().is_ok() // leave unparseable specs to the grammar audit
        })
        .map(|s| {
            s.parse().expect("filtered to parseable just above") // panic-audited: is_ok checked in the filter
        })
        .collect()
}

/// The workspace root, resolved from this crate's compile-time location
/// (`crates/check` is two levels below the workspace `Cargo.toml`).
#[must_use]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf()
}

fn first_or(violations: &[String], ok: String) -> (bool, String) {
    match violations.first() {
        None => (true, ok),
        Some(v) => (false, format!("{v} (+{} more)", violations.len() - 1)),
    }
}

/// Runs the full verification suite against the workspace at `root`
/// and returns the aggregate report. Pure compute, read-only source
/// scanning, and (for the `cfa/audit` cross-check) in-memory smoke
/// traces of the kernel programs; nothing is written.
#[must_use]
pub fn verify(root: &Path) -> VerifyReport {
    let mut report = VerifyReport::new();

    // Grammar completeness and round-trip stability.
    let grammar = registry::grammar_audit();
    let (ok, detail) = first_or(
        &grammar,
        format!(
            "{} names x 2+ targets, round-trips stable",
            bpred_core::spec::GRAMMAR.len()
        ),
    );
    report.record("grammar/audit", ok, detail);

    // Reported cost equals structurally-derived bits.
    let cost = registry::cost_audit();
    let (ok, detail) = first_or(
        &cost,
        format!(
            "{} configs match structural bit counts",
            registry::MODEL_TARGETS.len() + registry::COST_TARGETS.len()
        ),
    );
    report.record("cost/audit", ok, detail);

    // Result-store keys: deterministic, collision-free, sensitive to
    // every cost-bearing field, pinned across releases.
    let keys = registry::key_audit();
    let (ok, detail) = first_or(
        &keys,
        "fingerprints stable, collision-free, and field-sensitive".to_owned(),
    );
    report.record("keys/audit", ok, detail);

    // Exhaustive state-space exploration per spec variant.
    for target in registry::MODEL_TARGETS {
        let name = format!("model/{}@{}pcs", target.spec, target.pcs.len());
        match target.spec.parse::<PredictorSpec>() {
            Ok(spec) => {
                let check = model::explore(&spec, target.pcs, target.cap);
                let (ok, detail) = first_or(&check.violations, check.summary());
                report.record(name, ok, detail);
            }
            Err(e) => report.fail(name, format!("does not parse: {e}")),
        }
    }

    // Update-policy conformance against the Section 2 oracle.
    for config in bimode_oracle_targets() {
        let check = oracle::check_bimode(config, registry::PCS2, ORACLE_CAP);
        let name = format!("oracle/{}", check.config);
        let (ok, detail) = first_or(&check.violations, check.summary());
        report.record(name, ok, detail);
    }
    for config in trimode_oracle_targets() {
        let check = oracle::check_trimode(config, registry::PCS2, ORACLE_CAP);
        let name = format!("oracle/{}", check.config);
        let (ok, detail) = first_or(&check.violations, check.summary());
        report.record(name, ok, detail);
    }

    // Scalar / packed / batched / sliced engine agreement.
    let engines =
        engine::check_engines(&engine_targets(), ENGINE_TRACE_LEN, ENGINE_BOUNDARY_RECORDS);
    let (ok, detail) = first_or(&engines.violations, engines.summary());
    report.record("engine/equivalence", ok, detail);

    // Lane-mapper classification: sliceability decided per family,
    // behaviourally verified, with both sides populated.
    let coverage = engine::sliced_coverage(&engine_targets());
    let (ok, detail) = first_or(&coverage.violations, coverage.summary());
    report.record("engine/sliced-coverage", ok, detail);

    // Every sliceable shape up to the grid bound, bit-identical to the
    // scalar reference on two pseudo-random traces.
    let grid = engine::check_sliced_grid(SLICED_GRID_BITS, SLICED_GRID_RECORDS);
    let (ok, detail) = first_or(&grid.violations, grid.summary());
    report.record("engine/sliced-grid", ok, detail);

    // Every shared-index bi-mode lane shape up to the grid bound, under
    // both choice and both init policies, bit-identical to the packed
    // engine's predictor on the same two traces.
    let grid = engine::check_bimode_grid(SLICED_GRID_BITS, SLICED_GRID_RECORDS);
    let (ok, detail) = first_or(&grid.violations, grid.summary());
    report.record("engine/bimode-grid", ok, detail);

    // Static/dynamic control-flow cross-check on the kernel programs.
    let audits = cfa::audit_kernels();
    let mut all_violations: Vec<String> = Vec::new();
    let (mut statics, mut dynamics) = (0usize, 0usize);
    for a in &audits {
        statics += a.static_sites;
        dynamics += a.dynamic_sites;
        for v in &a.violations {
            all_violations.push(format!("{}: {v}", a.name));
        }
        let (ok, detail) = first_or(
            &a.violations,
            format!(
                "{} static sites, {} dynamic sites",
                a.static_sites, a.dynamic_sites
            ),
        );
        report.record(format!("cfa/audit@{}", a.name), ok, detail);
    }
    let (ok, detail) = first_or(
        &all_violations,
        format!(
            "{} kernels: {statics} static sites, {dynamics} traced, sets equal",
            audits.len()
        ),
    );
    report.record("cfa/audit", ok, detail);

    // Abstract-interpretation soundness: every observed branch-operand
    // value inside the abstract value set, every observed taken
    // fraction inside the static bounds. An unsound widening fails the
    // verify run here, it is not a statistic.
    let audits = cfa::audit_absint();
    let mut all_violations: Vec<String> = Vec::new();
    let (mut observations, mut sites) = (0u64, 0usize);
    for a in &audits {
        observations += a.observations;
        sites += a.sites;
        for v in &a.violations {
            all_violations.push(format!("{}: {v}", a.name));
        }
        let (ok, detail) = first_or(
            &a.violations,
            format!(
                "{} observed executions inside the abstract sets, {} site bounds hold",
                a.observations, a.sites
            ),
        );
        report.record(format!("cfa/absint@{}", a.name), ok, detail);
    }
    let (ok, detail) = first_or(
        &all_violations,
        format!(
            "{} kernels: {observations} observed executions, {sites} site bounds, all sound",
            audits.len()
        ),
    );
    report.record("cfa/absint", ok, detail);

    // Repo source rules.
    match lint::lint_repo(root) {
        Ok(lint) => {
            let listing: Vec<String> = lint.violations.iter().map(ToString::to_string).collect();
            let (ok, detail) = first_or(&listing, lint.summary());
            report.record("lint/repo", ok, detail);
        }
        Err(e) => report.fail("lint/repo", format!("cannot scan sources: {e}")),
    }

    // Deterministic-interleaving model checks of the shared-state hot
    // paths, plus the seeded mutants that prove the checker has teeth.
    let preemptions = bpred_race::sched::preemptions_from_env();
    for check in race::check_models(preemptions) {
        let (ok, detail) = first_or(
            &check.violations,
            format!("{} (preemption bound {preemptions})", check.detail),
        );
        report.record(format!("race/{}", check.name), ok, detail);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_holds_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
        assert!(workspace_root().join("crates/core").is_dir());
    }

    #[test]
    fn oracle_targets_cover_every_knob() {
        let targets = bimode_oracle_targets();
        assert!(targets
            .iter()
            .any(|c| c.choice_update == ChoiceUpdate::Always));
        assert!(targets
            .iter()
            .any(|c| c.bank_init == BankInit::UniformWeaklyTaken));
        assert!(targets
            .iter()
            .any(|c| c.index_share == IndexShare::SkewedPerBank));
        assert!(
            targets.iter().any(|c| *c == BiModeConfig::new(1, 1, 1)),
            "the paper default must be covered"
        );
        assert_eq!(trimode_oracle_targets().len(), 2);
    }

    #[test]
    fn engine_targets_cover_every_grammar_name() {
        let targets = engine_targets();
        for (name, _) in bpred_core::spec::GRAMMAR {
            assert!(
                targets.iter().any(|s| {
                    let rendered = s.to_string();
                    rendered == *name || rendered.starts_with(&format!("{name}:"))
                }),
                "`{name}` is missing from the engine-equivalence targets"
            );
        }
    }

    #[test]
    fn full_verify_run_is_clean() {
        let report = verify(&workspace_root());
        let failures: Vec<String> = report
            .failures()
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect();
        assert!(
            report.all_passed(),
            "verify failures:\n{}",
            failures.join("\n")
        );
        // Coverage floor from the acceptance criteria: every variant at
        // two or more down-scaled configs, the aggregate audits, and
        // the race/* model-check group.
        // `repro verify` layers the registry/design-coverage check and
        // one smoke run per registered experiment on top of this
        // report, so the CLI total sits 26 checks above this floor.
        assert!(
            report.checks.len() >= 89,
            "only {} checks ran",
            report.checks.len()
        );
        assert_eq!(
            report
                .checks
                .iter()
                .filter(|c| c.name.starts_with("cfa/absint"))
                .count(),
            7,
            "cfa/absint soundness group incomplete"
        );
        assert_eq!(
            report
                .checks
                .iter()
                .filter(|c| c.name.starts_with("race/"))
                .count(),
            15,
            "race/* pass group incomplete"
        );
    }
}
