//! Equivalence checking of the execution engines.
//!
//! PR 1 introduced a packed single-pass engine (`bpred_analysis::batch`)
//! whose results must be bit-identical to the scalar reference loop
//! (`bpred_analysis::measure`) for every predictor. This module
//! model-checks that claim the same way the state checker works:
//! instead of sampling traces, it *enumerates* every micro-trace up to a
//! bounded length over a small (pc × outcome) alphabet and compares all
//! the engine paths — scalar, packed single-predictor, packed batched,
//! and (for gshare-family and shared-index bi-mode specs) the lane
//! engine — on every one of them, then adds one long pseudo-random
//! trace.
//!
//! Three further passes pin the lane engine down:
//!
//! * [`sliced_coverage`] audits the [`Lane::of`] classification —
//!   sliceability must be decided per grammar family and named policy
//!   (never by a width), every sliceable target must behaviourally
//!   match the scalar loop, and every fallback (skewed bi-mode, the
//!   tagged and combining schemes) must be an *explicit* `None`, so no
//!   spec can silently take the wrong path;
//! * [`check_sliced_grid`] enumerates **every** gshare-family shape up
//!   to a table-width bound — all `(s, m <= s)` gshare pairs plus every
//!   bimodal width — and proves each lane bit-identical to scalar on
//!   two pseudo-random traces;
//! * [`check_bimode_grid`] enumerates every shared-index bi-mode shape
//!   `(d, c, h <= d)` up to a width bound under both choice-update and
//!   both bank-initialisation policies, and proves each lane
//!   bit-identical to the packed engine's run of [`BiMode`] on the same
//!   two traces.

use bpred_analysis::sliced::{measure_sliced_chunks, Lane};
use bpred_analysis::{measure, measure_batch, measure_packed, RunResult};
use bpred_core::{BankInit, BiMode, BiModeConfig, ChoiceUpdate, Predictor, PredictorSpec};
use bpred_trace::{BranchRecord, PackedTrace, Trace};

/// Outcome of the engine-equivalence check.
#[derive(Debug, Clone)]
pub struct EngineCheck {
    /// Micro-traces enumerated (plus the long boundary trace).
    pub traces: usize,
    /// (trace, predictor) comparisons performed.
    pub comparisons: usize,
    /// Mismatches found (empty on success).
    pub violations: Vec<String>,
}

impl EngineCheck {
    /// Whether every comparison agreed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line coverage summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!("{} traces, {} comparisons", self.traces, self.comparisons)
    }
}

/// The micro-trace alphabet: two branch sites (one forward, one
/// backward target, so static heuristics are exercised too) times both
/// outcomes.
const SYMBOLS: [(u64, u64, bool); 4] = [
    (0x1000, 0x1040, false),
    (0x1000, 0x1040, true),
    (0x2000, 0x1f00, false),
    (0x2000, 0x1f00, true),
];

fn trace_from_digits(name: &str, digits: &[usize]) -> Trace {
    let records: Vec<BranchRecord> = digits
        .iter()
        .map(|&d| {
            let (pc, target, taken) = SYMBOLS[d];
            BranchRecord::conditional(pc, target, taken)
        })
        .collect();
    Trace::from_records(name, records)
}

/// A deterministic pseudo-random trace of `records` conditional
/// branches over `sites` branch sites.
fn boundary_trace(records: usize, sites: u64) -> Trace {
    let mut t = Trace::new("boundary");
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..records {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let site = (lcg >> 33) % sites;
        let pc = 0x4000 + site * 4;
        let taken = (lcg >> 17) & 0b11 != 0; // ~75% taken, like real code
        let target = if (lcg >> 13) & 1 == 0 {
            pc - 0x80
        } else {
            pc + 0x80
        };
        t.push(BranchRecord::conditional(pc, target, taken));
    }
    t
}

fn compare_on(trace: &Trace, specs: &[PredictorSpec], check: &mut EngineCheck) {
    check.traces += 1;
    let packed = match PackedTrace::build(trace) {
        Ok(p) => p,
        Err(e) => {
            check
                .violations
                .push(format!("{}: packing failed: {e}", trace.name()));
            return;
        }
    };

    let mut fleet: Vec<Box<dyn Predictor>> = specs.iter().map(PredictorSpec::build).collect();
    let batched = measure_batch(&packed, &mut fleet);

    // One lane pass covering every lane spec; the other specs (skewed
    // bi-mode and the tagged and combining schemes among them) have no
    // lane result — they are explicit batch fallbacks, and the
    // coverage audit proves that classification is deliberate.
    let sliceable: Vec<(usize, Lane)> = specs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| Lane::of(s).map(|lane| (i, lane)))
        .collect();
    let lanes: Vec<Lane> = sliceable.iter().map(|&(_, lane)| lane).collect();
    let mut sliced_of: Vec<Option<RunResult>> = vec![None; specs.len()];
    for (&(i, _), result) in sliceable.iter().zip(measure_sliced_chunks(&packed, &lanes)) {
        sliced_of[i] = Some(result);
    }

    for (i, (spec, batch_result)) in specs.iter().zip(&batched).enumerate() {
        check.comparisons += 1;
        let scalar = measure(trace, &mut *spec.build());
        let packed_single = measure_packed(&packed, &mut *spec.build());
        if scalar != packed_single {
            check.violations.push(format!(
                "{} on {}: scalar {scalar:?} != packed {packed_single:?}",
                spec,
                trace.name()
            ));
        }
        if scalar != *batch_result {
            check.violations.push(format!(
                "{} on {}: scalar {scalar:?} != batched {batch_result:?}",
                spec,
                trace.name()
            ));
        }
        if let Some(sliced) = &sliced_of[i] {
            check.comparisons += 1;
            if scalar != *sliced {
                check.violations.push(format!(
                    "{} on {}: scalar {scalar:?} != sliced {sliced:?}",
                    spec,
                    trace.name()
                ));
            }
        }
        if check.violations.len() >= 5 {
            return;
        }
    }
}

/// Enumerates every micro-trace of length `1..=max_len` over the
/// 4-symbol alphabet and compares the three engines on each, for every
/// spec in `specs`; then repeats the comparison on one
/// `boundary_records`-long pseudo-random trace.
#[must_use]
pub fn check_engines(
    specs: &[PredictorSpec],
    max_len: usize,
    boundary_records: usize,
) -> EngineCheck {
    let mut check = EngineCheck {
        traces: 0,
        comparisons: 0,
        violations: Vec::new(),
    };

    // Odometer enumeration of all symbol sequences of each length.
    for len in 1..=max_len {
        let mut digits = vec![0usize; len];
        loop {
            if check.violations.len() >= 5 {
                return check;
            }
            let name = format!(
                "micro-{}",
                digits.iter().map(ToString::to_string).collect::<String>()
            );
            compare_on(&trace_from_digits(&name, &digits), specs, &mut check);
            // Advance the odometer; stop when it wraps.
            let mut pos = 0;
            loop {
                if pos == len {
                    break;
                }
                digits[pos] += 1;
                if digits[pos] < SYMBOLS.len() {
                    break;
                }
                digits[pos] = 0;
                pos += 1;
            }
            if pos == len {
                break;
            }
        }
    }

    compare_on(&boundary_trace(boundary_records, 37), specs, &mut check);
    check
}

/// Outcome of the lane-classification audit.
#[derive(Debug, Clone)]
pub struct SlicedCoverage {
    /// Specs classified sliceable (gshare family).
    pub sliceable: usize,
    /// Specs classified as explicit batch fallbacks.
    pub fallback: usize,
    /// Classification inconsistencies or behavioural mismatches.
    pub violations: Vec<String>,
}

impl SlicedCoverage {
    /// Whether the classification is consistent and behaviourally sound.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line coverage summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} sliceable + {} fallback specs, families consistent",
            self.sliceable, self.fallback
        )
    }
}

/// Audits the [`Lane::of`] classification over `specs`:
///
/// * sliceability is decided per grammar family and named policy — two
///   configs of the same family whose only differences are widths must
///   never land on different sides (bi-mode's `index=skewed` policy is
///   a batch fallback while its shared index is a lane);
/// * every sliceable spec behaviourally matches the scalar loop on a
///   pseudo-random probe trace (a misclassified family would
///   diverge here, not silently in a sweep);
/// * both sides are populated, so the fallback path itself stays
///   exercised.
#[must_use]
pub fn sliced_coverage(specs: &[PredictorSpec]) -> SlicedCoverage {
    let mut coverage = SlicedCoverage {
        sliceable: 0,
        fallback: 0,
        violations: Vec::new(),
    };
    // family name -> sliceable?, as first seen.
    let mut families: Vec<(String, bool)> = Vec::new();
    let mut probe_specs: Vec<PredictorSpec> = Vec::new();
    for spec in specs {
        let sliceable = Lane::of(spec).is_some();
        if sliceable {
            coverage.sliceable += 1;
            probe_specs.push(spec.clone());
        } else {
            coverage.fallback += 1;
        }
        let family = family_and_policies(spec);
        match families.iter().find(|(name, _)| *name == family) {
            Some(&(_, earlier)) if earlier != sliceable => {
                coverage.violations.push(format!(
                    "family `{family}` is classified inconsistently: {spec} is {} but an \
                     earlier config was not",
                    if sliceable { "sliceable" } else { "a fallback" }
                ));
            }
            Some(_) => {}
            None => families.push((family, sliceable)),
        }
    }
    if coverage.sliceable == 0 {
        coverage
            .violations
            .push("no spec classified sliceable: the sliced engine is unreachable".to_owned());
    }
    if coverage.fallback == 0 {
        coverage
            .violations
            .push("no spec classified fallback: the batch fallback path is unexercised".to_owned());
    }

    // Behavioural side: every sliceable target agrees with scalar on a
    // pseudo-random probe trace.
    let probe = boundary_trace(6_000, 23);
    let mut probe_check = EngineCheck {
        traces: 0,
        comparisons: 0,
        violations: Vec::new(),
    };
    if !probe_specs.is_empty() {
        compare_on(&probe, &probe_specs, &mut probe_check);
    }
    coverage.violations.extend(probe_check.violations);
    coverage
}

/// Enumerates **every** sliceable shape up to `max_table_bits` — all
/// gshare `(s, m <= s)` pairs and every bimodal width — and proves
/// each lane's sliced run bit-identical to the scalar loop on two
/// pseudo-random traces, one short and one `boundary_records` long.
#[must_use]
pub fn check_sliced_grid(max_table_bits: u32, boundary_records: usize) -> EngineCheck {
    let mut check = EngineCheck {
        traces: 0,
        comparisons: 0,
        violations: Vec::new(),
    };
    let mut specs: Vec<PredictorSpec> = Vec::new();
    for s in 1..=max_table_bits {
        for m in 0..=s {
            specs.push(PredictorSpec::Gshare {
                table_bits: s,
                history_bits: m,
            });
        }
        specs.push(PredictorSpec::Bimodal { table_bits: s });
    }
    let lanes: Vec<Lane> = specs.iter().filter_map(Lane::of).collect();
    if lanes.len() != specs.len() {
        check
            .violations
            .push("a grid spec failed to classify as sliceable".to_owned());
        return check;
    }

    for trace in [
        boundary_trace(boundary_records, 37),
        boundary_trace(boundary_records / 3, 5),
    ] {
        check.traces += 1;
        let packed = match PackedTrace::build(&trace) {
            Ok(p) => p,
            Err(e) => {
                check
                    .violations
                    .push(format!("{}: packing failed: {e}", trace.name()));
                return check;
            }
        };
        let sliced = measure_sliced_chunks(&packed, &lanes);
        for (spec, sliced_result) in specs.iter().zip(&sliced) {
            check.comparisons += 1;
            let scalar = measure(&trace, &mut *spec.build());
            if scalar != *sliced_result {
                check.violations.push(format!(
                    "{} on {}: scalar {scalar:?} != sliced {sliced_result:?}",
                    spec,
                    trace.name()
                ));
                if check.violations.len() >= 5 {
                    return check;
                }
            }
        }
    }
    check
}

/// A spec's grammar name plus its named options (those whose value is
/// a word, like `index=skewed`): the key the coverage audit holds
/// sliceability constant over. Widths (`s`, `h`, `d`, …) never decide
/// the engine; a named policy may.
fn family_and_policies(spec: &PredictorSpec) -> String {
    let rendered = spec.to_string();
    let Some((name, options)) = rendered.split_once(':') else {
        return rendered;
    };
    let policies: Vec<&str> = options
        .split(',')
        .filter(|option| {
            option.split_once('=').is_some_and(|(_, value)| {
                !value.is_empty() && value.bytes().all(|b| b.is_ascii_alphabetic())
            })
        })
        .collect();
    if policies.is_empty() {
        name.to_owned()
    } else {
        format!("{name}[{}]", policies.join(","))
    }
}

/// Enumerates every shared-index bi-mode shape with `d, c <=
/// max_bits` and `h <= d`, under both choice-update and both
/// bank-initialisation policies, and proves each lane bit-identical to
/// the packed engine's run of [`BiMode`] on two pseudo-random traces,
/// one short and one `boundary_records` long.
#[must_use]
pub fn check_bimode_grid(max_bits: u32, boundary_records: usize) -> EngineCheck {
    let mut check = EngineCheck {
        traces: 0,
        comparisons: 0,
        violations: Vec::new(),
    };
    let mut configs: Vec<BiModeConfig> = Vec::new();
    for update in [ChoiceUpdate::Partial, ChoiceUpdate::Always] {
        for init in [BankInit::Split, BankInit::UniformWeaklyTaken] {
            for d in 0..=max_bits {
                for c in 0..=max_bits {
                    for h in 0..=d {
                        let mut config = BiModeConfig::new(d, c, h);
                        config.choice_update = update;
                        config.bank_init = init;
                        configs.push(config);
                    }
                }
            }
        }
    }
    let lanes: Vec<Lane> = configs
        .iter()
        .filter_map(|&config| Lane::of(&PredictorSpec::BiMode(config)))
        .collect();
    if lanes.len() != configs.len() {
        check
            .violations
            .push("a shared-index bi-mode spec failed to classify as a lane".to_owned());
        return check;
    }

    for trace in [
        boundary_trace(boundary_records, 37),
        boundary_trace(boundary_records / 3, 5),
    ] {
        check.traces += 1;
        let packed = match PackedTrace::build(&trace) {
            Ok(p) => p,
            Err(e) => {
                check
                    .violations
                    .push(format!("{}: packing failed: {e}", trace.name()));
                return check;
            }
        };
        let laned = measure_sliced_chunks(&packed, &lanes);
        for (config, lane_result) in configs.iter().zip(&laned) {
            check.comparisons += 1;
            let packed_result = measure_packed(&packed, &mut BiMode::new(*config));
            if packed_result != *lane_result {
                check.violations.push(format!(
                    "{} on {}: packed {packed_result:?} != lane {lane_result:?}",
                    PredictorSpec::BiMode(*config),
                    trace.name()
                ));
                if check.violations.len() >= 5 {
                    return check;
                }
            }
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(list: &[&str]) -> Vec<PredictorSpec> {
        list.iter()
            .map(|s| s.parse().expect("valid spec"))
            .collect()
    }

    #[test]
    fn enumeration_counts_are_exact() {
        // 4 + 16 + 64 micro-traces plus the boundary trace; bimodal is
        // sliceable, so each trace contributes a scalar/packed/batch
        // comparison plus a scalar/sliced one.
        let c = check_engines(&specs(&["bimodal:s=2"]), 3, 64);
        assert!(c.passed(), "{:?}", c.violations);
        assert_eq!(c.traces, 4 + 16 + 64 + 1);
        assert_eq!(c.comparisons, 2 * c.traces);
    }

    #[test]
    fn fallback_specs_skip_the_sliced_comparison() {
        // Skewed bi-mode is not a lane: one comparison per trace,
        // exactly as before the lane engine existed.
        let c = check_engines(&specs(&["bimode:d=2,c=2,h=2,index=skewed"]), 2, 64);
        assert!(c.passed(), "{:?}", c.violations);
        assert_eq!(c.comparisons, c.traces);
    }

    #[test]
    fn engines_agree_for_the_paper_pair_across_the_block_boundary() {
        let c = check_engines(&specs(&["gshare:s=4,h=4", "bimode:d=3,c=3,h=3"]), 2, 9000);
        assert!(c.passed(), "{:?}", c.violations);
    }

    #[test]
    fn coverage_audit_passes_on_the_verify_targets() {
        let coverage = sliced_coverage(&crate::engine_targets());
        assert!(coverage.passed(), "{:?}", coverage.violations);
        assert!(
            coverage.sliceable >= 3,
            "gshare, bimodal and bi-mode at least"
        );
        assert!(coverage.fallback >= 1, "skewed bi-mode at least");
    }

    #[test]
    fn coverage_audit_flags_one_sided_target_lists() {
        let only_sliceable = sliced_coverage(&specs(&["gshare:s=4,h=2"]));
        assert!(!only_sliceable.passed());
        assert!(
            only_sliceable.violations[0].contains("fallback"),
            "{:?}",
            only_sliceable.violations
        );
        let only_fallback = sliced_coverage(&specs(&["tage:t=2,h=8,tag=4,e=4"]));
        assert!(!only_fallback.passed());
        assert!(
            only_fallback.violations[0].contains("sliced engine is unreachable"),
            "{:?}",
            only_fallback.violations
        );
    }

    #[test]
    fn zoo_families_are_explicit_batch_fallbacks() {
        // The predictor-zoo families (tagged, neural, gated) must take
        // the batch path — tagged allocation, weight dot products, and
        // cross-stage gating all break the one-counter-per-lane shape —
        // and still agree across the scalar, packed, and batched
        // engines on every micro-trace and a long probe trace.
        let zoo = specs(&[
            "tage:t=3,h=8,tag=5,e=4",
            "perceptron:n=4,h=6,theta=25",
            "cascade:bimodal:s=4;gshare:s=5,h=5",
        ]);
        for spec in &zoo {
            assert!(
                Lane::of(spec).is_none(),
                "{spec} must fall back to the batch engine"
            );
        }
        let c = check_engines(&zoo, 2, 5000);
        assert!(c.passed(), "{:?}", c.violations);
        assert_eq!(
            c.comparisons,
            c.traces * zoo.len(),
            "fallbacks contribute no sliced comparisons"
        );
    }

    #[test]
    fn coverage_audit_keys_families_by_their_named_policies() {
        let key = |s: &str| family_and_policies(&s.parse().expect("valid spec"));
        assert_eq!(key("gshare:s=4,h=2"), "gshare");
        assert_eq!(key("always-taken"), "always-taken");
        assert_eq!(key("bimode:d=2,c=2,h=2"), "bimode");
        assert_eq!(key("cascade:bimodal:s=4;gshare:s=5,h=5"), "cascade");
        assert_eq!(
            key("bimode:d=2,c=2,h=2,init=uniform,index=skewed"),
            "bimode[init=uniform,index=skewed]"
        );
        // Shared and skewed bi-mode land on different sides, and the
        // audit accepts it; a width never splits a family.
        let mixed = sliced_coverage(&specs(&[
            "bimode:d=2,c=2,h=2",
            "bimode:d=3,c=1,h=0",
            "bimode:d=2,c=2,h=2,index=skewed",
        ]));
        assert!(mixed.passed(), "{:?}", mixed.violations);
        assert_eq!((mixed.sliceable, mixed.fallback), (2, 1));
    }

    #[test]
    fn bimode_grid_covers_every_shape_and_passes() {
        let c = check_bimode_grid(3, 3000);
        assert!(c.passed(), "{:?}", c.violations);
        // Per trace: 4 policies x 4 choice widths x sum_{d=0..=3}(d + 1).
        assert_eq!(c.traces, 2);
        assert_eq!(c.comparisons, 2 * 4 * 4 * 10);
    }

    #[test]
    fn sliced_grid_covers_every_shape_and_passes() {
        let c = check_sliced_grid(6, 5000);
        assert!(c.passed(), "{:?}", c.violations);
        // Per trace: sum_{s=1..=6}(s + 1) gshare pairs + 6 bimodal.
        let shapes = (1..=6u32).map(|s| s as usize + 1).sum::<usize>() + 6;
        assert_eq!(c.traces, 2);
        assert_eq!(c.comparisons, 2 * shapes);
    }
}
