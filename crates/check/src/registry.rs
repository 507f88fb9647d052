//! The verification registry: which configurations get model-checked,
//! the spec-grammar audit, and the structural cost audit.
//!
//! The registry is deliberately *textual* — every target is a spec
//! string fed through the same `FromStr` grammar the harness CLI uses —
//! so the grammar itself is exercised by every verify run, and a
//! predictor that silently falls out of the grammar fails the
//! completeness audit below.

use bpred_core::cost::Cost;
use bpred_core::spec::GRAMMAR;
use bpred_core::{
    BankInit, ChoiceUpdate, HistorySource, IndexShare, PredictorSpec, CASCADE_GATE_BITS,
    WEIGHT_BITS,
};

/// One model-checking target: a down-scaled configuration plus the
/// driving alphabet and state cap for its BFS walk.
#[derive(Debug, Clone, Copy)]
pub struct ModelTarget {
    /// The spec string (parsed through the public grammar).
    pub spec: &'static str,
    /// Branch addresses driving the exploration.
    pub pcs: &'static [u64],
    /// Maximum distinct states to enumerate before reporting `capped`.
    pub cap: usize,
}

/// Two word-aligned branch sites mapping to distinct table rows.
pub const PCS2: &[u64] = &[0x0, 0x4];
/// Three sites, the third aliasing the first in a 1-bit table.
pub const PCS3: &[u64] = &[0x0, 0x4, 0x8];

/// Every model-checking target: each `PredictorSpec` variant at two or
/// more down-scaled configurations (the parameterless static predictors
/// have a singleton config space and are run under two alphabets
/// instead).
pub const MODEL_TARGETS: &[ModelTarget] = &[
    ModelTarget {
        spec: "always-taken",
        pcs: PCS2,
        cap: 100,
    },
    ModelTarget {
        spec: "always-taken",
        pcs: PCS3,
        cap: 100,
    },
    ModelTarget {
        spec: "always-not-taken",
        pcs: PCS2,
        cap: 100,
    },
    ModelTarget {
        spec: "always-not-taken",
        pcs: PCS3,
        cap: 100,
    },
    ModelTarget {
        spec: "btfnt",
        pcs: PCS2,
        cap: 100,
    },
    ModelTarget {
        spec: "btfnt",
        pcs: PCS3,
        cap: 100,
    },
    ModelTarget {
        spec: "bimodal:s=1",
        pcs: PCS2,
        cap: 50,
    },
    ModelTarget {
        spec: "bimodal:s=2",
        pcs: PCS3,
        cap: 200,
    },
    ModelTarget {
        spec: "gshare:s=2,h=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gshare:s=3,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gselect:a=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gselect:a=2,h=1",
        pcs: PCS3,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gag:h=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gag:h=3",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gas:a=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gas:a=1,h=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "pag:i=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "pag:i=1,h=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "pas:i=1,a=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "pas:i=1,a=1,h=2",
        pcs: PCS3,
        cap: 25_000,
    },
    ModelTarget {
        spec: "sag:i=1,k=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "sag:i=2,k=1,h=1",
        pcs: PCS3,
        cap: 25_000,
    },
    ModelTarget {
        spec: "sas:i=1,k=1,a=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "sas:i=1,k=1,a=1,h=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "bimode:d=1,c=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "bimode:d=2,c=2,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "bimode:d=2,c=1,h=2,choice=always",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "bimode:d=2,c=2,h=2,init=uniform,index=skewed",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "agree:s=2,h=1,b=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "agree:s=2,h=2,b=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gskew:s=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "gskew:s=2,h=1,update=total",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "yags:c=1,e=1,h=1,t=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "yags:c=2,e=1,h=1,t=3",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "tournament:s=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "tournament:s=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "trimode:d=1,c=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "trimode:d=2,c=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "2bcgskew:s=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "2bcgskew:s=2,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "tage:t=1,h=1,tag=2,e=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "tage:t=2,h=2,tag=2,e=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "perceptron:n=1,h=1,theta=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "perceptron:n=1,h=2,theta=2",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "cascade:bimodal:s=1;gshare:s=1,h=1",
        pcs: PCS2,
        cap: 25_000,
    },
    ModelTarget {
        spec: "cascade:always-taken;bimodal:s=1",
        pcs: PCS2,
        cap: 25_000,
    },
    // A target-sensitive stage: the engine check's forward and backward
    // sites make a cascade that handed its stages the branch target
    // (they answer `predict(pc)`) diverge from the scalar loop.
    ModelTarget {
        spec: "cascade:btfnt;bimodal:s=1",
        pcs: PCS2,
        cap: 25_000,
    },
];

/// Paper-scale configurations whose reported cost is audited against the
/// structural formulas (the sizes behind Figures 2–4 and Table 5).
pub const COST_TARGETS: &[&str] = &[
    "bimodal:s=12",
    "gshare:s=14,h=14",
    "gselect:a=6,h=6",
    "gag:h=12",
    "pas:i=6,a=4,h=6",
    "bimode:d=13,c=13,h=13",
    "bimode:d=10,c=10,h=10",
    "agree:s=12,h=10,b=12",
    "gskew:s=12,h=10",
    "yags:c=12,e=10,h=10,t=6",
    "tournament:s=12",
    "trimode:d=12,c=12,h=12",
    "2bcgskew:s=12,h=12",
    "tage:t=4,h=32,tag=8,e=10",
    "perceptron:n=7,h=16,theta=44",
    "cascade:bimodal:s=10;tage:t=2,h=8,tag=6,e=8",
];

/// The prediction-state bits a configuration must cost, derived
/// structurally from its parameters (2 bits per counter, 1 bit per
/// agree bias entry, 3 bits per tri-mode conflict entry) — independent
/// of the `cost()` implementations it audits.
#[must_use]
pub fn structural_state_bits(spec: &PredictorSpec) -> u64 {
    let pow = |bits: u32| 1u64 << bits;
    match *spec {
        PredictorSpec::AlwaysTaken | PredictorSpec::AlwaysNotTaken | PredictorSpec::Btfnt => 0,
        PredictorSpec::Bimodal { table_bits } => 2 * pow(table_bits),
        PredictorSpec::Gshare { table_bits, .. } => 2 * pow(table_bits),
        PredictorSpec::Gselect {
            address_bits,
            history_bits,
        } => 2 * pow(address_bits + history_bits),
        PredictorSpec::TwoLevel {
            address_bits,
            history_bits,
            ..
        } => 2 * pow(address_bits + history_bits),
        PredictorSpec::BiMode(c) => 2 * pow(c.choice_bits) + 2 * 2 * pow(c.direction_bits),
        PredictorSpec::Agree {
            table_bits,
            bias_bits,
            ..
        } => 2 * pow(table_bits) + pow(bias_bits),
        PredictorSpec::Gskew { bank_bits, .. } => 3 * 2 * pow(bank_bits),
        PredictorSpec::Yags {
            choice_bits,
            cache_bits,
            ..
        } => 2 * pow(choice_bits) + 2 * 2 * pow(cache_bits),
        PredictorSpec::Tournament { table_bits } => 3 * 2 * pow(table_bits),
        PredictorSpec::TriMode {
            direction_bits,
            choice_bits,
            ..
        } => 2 * pow(choice_bits) + 3 * pow(choice_bits) + 3 * 2 * pow(direction_bits),
        PredictorSpec::TwoBcGskew { bank_bits, .. } => 4 * 2 * pow(bank_bits),
        // Base bimodal (2-bit) plus one 3-bit counter per tagged entry;
        // tags, useful bits, and the history register are metadata.
        PredictorSpec::Tage {
            tables, entry_bits, ..
        } => (2 + 3 * u64::from(tables)) * pow(entry_bits),
        PredictorSpec::Perceptron {
            rows_bits,
            history_bits,
            ..
        } => u64::from(history_bits) * u64::from(WEIGHT_BITS) * pow(rows_bits),
        // Stage state plus one 2-bit gate table per stage boundary.
        PredictorSpec::Cascade(ref stages) => {
            stages.iter().map(structural_state_bits).sum::<u64>()
                + (stages.len() as u64 - 1) * 2 * pow(CASCADE_GATE_BITS)
        }
    }
}

/// Audits that every registry and paper-scale config reports exactly the
/// structurally-derived state bits through [`bpred_core::Predictor::cost`].
#[must_use]
pub fn cost_audit() -> Vec<String> {
    let mut violations = Vec::new();
    let all = MODEL_TARGETS
        .iter()
        .map(|t| t.spec)
        .chain(COST_TARGETS.iter().copied());
    for s in all {
        let spec: PredictorSpec = match s.parse() {
            Ok(spec) => spec,
            Err(e) => {
                violations.push(format!("`{s}` does not parse: {e}"));
                continue;
            }
        };
        let reported: Cost = spec.build().cost();
        let expected = structural_state_bits(&spec);
        if reported.state_bits != expected {
            violations.push(format!(
                "`{s}` reports {} state bits, structure derives {expected}",
                reported.state_bits
            ));
        }
    }
    violations
}

/// Audits the spec grammar: every grammar name must be covered by a
/// model target, every model target must use a grammar name, unknown
/// names/keys must be rejected, and every target must round-trip
/// `parse → Display → parse` losslessly with a stable rendering.
#[must_use]
pub fn grammar_audit() -> Vec<String> {
    let mut violations = Vec::new();

    // Name completeness, both directions.
    for (name, _) in GRAMMAR {
        if !MODEL_TARGETS
            .iter()
            .any(|t| t.spec == *name || t.spec.starts_with(&format!("{name}:")))
        {
            violations.push(format!("grammar name `{name}` has no model target"));
        }
    }
    for t in MODEL_TARGETS {
        let name = t.spec.split(':').next().unwrap_or(t.spec);
        if !GRAMMAR.iter().any(|(n, _)| *n == name) {
            violations.push(format!("target `{}` uses unlisted name `{name}`", t.spec));
        }
    }

    // Rejection of unknown names and keys.
    if "marsaglia:s=4".parse::<PredictorSpec>().is_ok() {
        violations.push("unknown predictor name was accepted".to_owned());
    }
    if "gshare:s=4,h=2,z=9".parse::<PredictorSpec>().is_ok() {
        violations.push("unknown key `z` was accepted for gshare".to_owned());
    }

    // Lossless round-trip through Display.
    for t in MODEL_TARGETS {
        let parsed: PredictorSpec = match t.spec.parse() {
            Ok(p) => p,
            Err(e) => {
                violations.push(format!("`{}` does not parse: {e}", t.spec));
                continue;
            }
        };
        let rendered = parsed.to_string();
        match rendered.parse::<PredictorSpec>() {
            Ok(again) => {
                if again != parsed {
                    violations.push(format!("`{}` -> `{rendered}` -> different spec", t.spec));
                } else if again.to_string() != rendered {
                    violations.push(format!("`{rendered}` does not render stably"));
                }
            }
            Err(e) => violations.push(format!(
                "`{}` renders as unparseable `{rendered}`: {e}",
                t.spec
            )),
        }
    }

    violations
}

/// Every single-field variation of `spec`, labelled by the field
/// changed. Fingerprints never build predictors, so the mutated values
/// need not satisfy constructor constraints — only differ.
#[must_use]
pub fn spec_perturbations(spec: &PredictorSpec) -> Vec<(&'static str, PredictorSpec)> {
    use PredictorSpec as P;
    match *spec {
        P::AlwaysTaken | P::AlwaysNotTaken | P::Btfnt => Vec::new(),
        P::Bimodal { table_bits } => vec![(
            "table_bits",
            P::Bimodal {
                table_bits: table_bits + 1,
            },
        )],
        P::Gshare {
            table_bits,
            history_bits,
        } => vec![
            (
                "table_bits",
                P::Gshare {
                    table_bits: table_bits + 1,
                    history_bits,
                },
            ),
            (
                "history_bits",
                P::Gshare {
                    table_bits,
                    history_bits: history_bits + 1,
                },
            ),
        ],
        P::Gselect {
            address_bits,
            history_bits,
        } => vec![
            (
                "address_bits",
                P::Gselect {
                    address_bits: address_bits + 1,
                    history_bits,
                },
            ),
            (
                "history_bits",
                P::Gselect {
                    address_bits,
                    history_bits: history_bits + 1,
                },
            ),
        ],
        P::TwoLevel {
            source,
            address_bits,
            history_bits,
        } => {
            let mut out = vec![
                (
                    "address_bits",
                    P::TwoLevel {
                        source,
                        address_bits: address_bits + 1,
                        history_bits,
                    },
                ),
                (
                    "history_bits",
                    P::TwoLevel {
                        source,
                        address_bits,
                        history_bits: history_bits + 1,
                    },
                ),
            ];
            let other_sources: Vec<(&'static str, HistorySource)> = match source {
                HistorySource::Global => {
                    vec![("source", HistorySource::PerAddress { index_bits: 1 })]
                }
                HistorySource::PerAddress { index_bits } => vec![
                    (
                        "source.index_bits",
                        HistorySource::PerAddress {
                            index_bits: index_bits + 1,
                        },
                    ),
                    ("source", HistorySource::Global),
                ],
                HistorySource::PerSet { index_bits, shift } => vec![
                    (
                        "source.index_bits",
                        HistorySource::PerSet {
                            index_bits: index_bits + 1,
                            shift,
                        },
                    ),
                    (
                        "source.shift",
                        HistorySource::PerSet {
                            index_bits,
                            shift: shift + 1,
                        },
                    ),
                ],
            };
            for (field, s) in other_sources {
                out.push((
                    field,
                    P::TwoLevel {
                        source: s,
                        address_bits,
                        history_bits,
                    },
                ));
            }
            out
        }
        P::BiMode(c) => {
            let mut variants = Vec::new();
            let mut v = c;
            v.direction_bits += 1;
            variants.push(("direction_bits", v));
            let mut v = c;
            v.choice_bits += 1;
            variants.push(("choice_bits", v));
            let mut v = c;
            v.history_bits += 1;
            variants.push(("history_bits", v));
            let mut v = c;
            v.choice_update = match c.choice_update {
                ChoiceUpdate::Partial => ChoiceUpdate::Always,
                ChoiceUpdate::Always => ChoiceUpdate::Partial,
            };
            variants.push(("choice_update", v));
            let mut v = c;
            v.bank_init = match c.bank_init {
                BankInit::Split => BankInit::UniformWeaklyTaken,
                BankInit::UniformWeaklyTaken => BankInit::Split,
            };
            variants.push(("bank_init", v));
            let mut v = c;
            v.index_share = match c.index_share {
                IndexShare::Shared => IndexShare::SkewedPerBank,
                IndexShare::SkewedPerBank => IndexShare::Shared,
            };
            variants.push(("index_share", v));
            variants
                .into_iter()
                .map(|(field, v)| (field, P::BiMode(v)))
                .collect()
        }
        P::Agree {
            table_bits,
            history_bits,
            bias_bits,
        } => vec![
            (
                "table_bits",
                P::Agree {
                    table_bits: table_bits + 1,
                    history_bits,
                    bias_bits,
                },
            ),
            (
                "history_bits",
                P::Agree {
                    table_bits,
                    history_bits: history_bits + 1,
                    bias_bits,
                },
            ),
            (
                "bias_bits",
                P::Agree {
                    table_bits,
                    history_bits,
                    bias_bits: bias_bits + 1,
                },
            ),
        ],
        P::Gskew {
            bank_bits,
            history_bits,
            total_update,
        } => vec![
            (
                "bank_bits",
                P::Gskew {
                    bank_bits: bank_bits + 1,
                    history_bits,
                    total_update,
                },
            ),
            (
                "history_bits",
                P::Gskew {
                    bank_bits,
                    history_bits: history_bits + 1,
                    total_update,
                },
            ),
            (
                "total_update",
                P::Gskew {
                    bank_bits,
                    history_bits,
                    total_update: !total_update,
                },
            ),
        ],
        P::Yags {
            choice_bits,
            cache_bits,
            history_bits,
            tag_bits,
        } => vec![
            (
                "choice_bits",
                P::Yags {
                    choice_bits: choice_bits + 1,
                    cache_bits,
                    history_bits,
                    tag_bits,
                },
            ),
            (
                "cache_bits",
                P::Yags {
                    choice_bits,
                    cache_bits: cache_bits + 1,
                    history_bits,
                    tag_bits,
                },
            ),
            (
                "history_bits",
                P::Yags {
                    choice_bits,
                    cache_bits,
                    history_bits: history_bits + 1,
                    tag_bits,
                },
            ),
            (
                "tag_bits",
                P::Yags {
                    choice_bits,
                    cache_bits,
                    history_bits,
                    tag_bits: tag_bits + 1,
                },
            ),
        ],
        P::Tournament { table_bits } => vec![(
            "table_bits",
            P::Tournament {
                table_bits: table_bits + 1,
            },
        )],
        P::TriMode {
            direction_bits,
            choice_bits,
            history_bits,
        } => vec![
            (
                "direction_bits",
                P::TriMode {
                    direction_bits: direction_bits + 1,
                    choice_bits,
                    history_bits,
                },
            ),
            (
                "choice_bits",
                P::TriMode {
                    direction_bits,
                    choice_bits: choice_bits + 1,
                    history_bits,
                },
            ),
            (
                "history_bits",
                P::TriMode {
                    direction_bits,
                    choice_bits,
                    history_bits: history_bits + 1,
                },
            ),
        ],
        P::TwoBcGskew {
            bank_bits,
            history_bits,
        } => vec![
            (
                "bank_bits",
                P::TwoBcGskew {
                    bank_bits: bank_bits + 1,
                    history_bits,
                },
            ),
            (
                "history_bits",
                P::TwoBcGskew {
                    bank_bits,
                    history_bits: history_bits + 1,
                },
            ),
        ],
        P::Tage {
            tables,
            max_history,
            tag_bits,
            entry_bits,
        } => vec![
            (
                "tables",
                P::Tage {
                    tables: tables + 1,
                    max_history,
                    tag_bits,
                    entry_bits,
                },
            ),
            (
                "max_history",
                P::Tage {
                    tables,
                    max_history: max_history + 1,
                    tag_bits,
                    entry_bits,
                },
            ),
            (
                "tag_bits",
                P::Tage {
                    tables,
                    max_history,
                    tag_bits: tag_bits + 1,
                    entry_bits,
                },
            ),
            (
                "entry_bits",
                P::Tage {
                    tables,
                    max_history,
                    tag_bits,
                    entry_bits: entry_bits + 1,
                },
            ),
        ],
        P::Perceptron {
            rows_bits,
            history_bits,
            theta,
        } => vec![
            (
                "rows_bits",
                P::Perceptron {
                    rows_bits: rows_bits + 1,
                    history_bits,
                    theta,
                },
            ),
            (
                "history_bits",
                P::Perceptron {
                    rows_bits,
                    history_bits: history_bits + 1,
                    theta,
                },
            ),
            (
                "theta",
                P::Perceptron {
                    rows_bits,
                    history_bits,
                    theta: theta + 1,
                },
            ),
        ],
        P::Cascade(ref stages) => {
            let mut out = Vec::new();
            // Perturb the first stage through its own variant's
            // perturbations, so stage fields stay fingerprint-sensitive
            // inside a cascade (static first stages have none to lift).
            if let Some((_, varied)) = spec_perturbations(&stages[0]).into_iter().next() {
                let mut perturbed = stages.clone();
                perturbed[0] = varied;
                out.push(("stage0", P::Cascade(perturbed)));
            }
            let mut grown = stages.clone();
            grown.push(P::Bimodal { table_bits: 1 });
            out.push(("stages", P::Cascade(grown)));
            out
        }
    }
}

/// Fingerprints whose exact values are pinned: a silent change to the
/// spec rendering or the hash would re-key (or worse, mis-serve) every
/// stored result, so drift here must fail verification loudly and force
/// a deliberate engine-epoch decision.
pub const PINNED_FINGERPRINTS: &[(&str, u64)] = &[
    ("gshare:s=8,h=8", 0xe48e_b26c_0780_b396),
    ("bimode:d=7,c=7,h=7", 0xcb1d_a322_72f6_48b8),
    ("tage:t=4,h=32,tag=8,e=10", 0x5248_d55f_75d5_20bf),
    ("perceptron:n=7,h=16,theta=44", 0xeae3_5c6a_2e37_1b0c),
    (
        "cascade:bimodal:s=10;tage:t=2,h=8,tag=6,e=8",
        0xfdfc_f38f_be97_25eb,
    ),
];

/// Audits result-store key stability: every registry spec's
/// [`PredictorSpec::fingerprint`] must be deterministic across a
/// render round-trip, collision-free across the whole registry,
/// sensitive to every cost-bearing field, and equal to the pinned
/// values above.
#[must_use]
pub fn key_audit() -> Vec<String> {
    let mut violations = Vec::new();
    let mut specs: Vec<PredictorSpec> = Vec::new();
    for s in MODEL_TARGETS
        .iter()
        .map(|t| t.spec)
        .chain(COST_TARGETS.iter().copied())
    {
        match s.parse::<PredictorSpec>() {
            Ok(spec) => {
                if !specs.contains(&spec) {
                    specs.push(spec);
                }
            }
            Err(e) => violations.push(format!("`{s}` does not parse: {e}")),
        }
    }

    // Deterministic across the parse → Display → parse round-trip.
    for spec in &specs {
        let fp = spec.fingerprint();
        match spec.to_string().parse::<PredictorSpec>() {
            Ok(again) if again.fingerprint() != fp => violations.push(format!(
                "`{spec}`: fingerprint changes across a render round-trip"
            )),
            Ok(_) => {}
            Err(e) => violations.push(format!("`{spec}` renders unparseably: {e}")),
        }
    }

    // Collision-free across every distinct registry spec.
    for (i, a) in specs.iter().enumerate() {
        for b in &specs[i + 1..] {
            if a.fingerprint() == b.fingerprint() {
                violations.push(format!("`{a}` and `{b}` share a fingerprint"));
            }
        }
    }

    // Sensitive to every cost-bearing field: flipping any one field of
    // any registry spec must move the key.
    for spec in &specs {
        let fp = spec.fingerprint();
        for (field, mutated) in spec_perturbations(spec) {
            if mutated.fingerprint() == fp {
                violations.push(format!(
                    "`{spec}`: changing `{field}` does not change the fingerprint"
                ));
            }
        }
    }

    // Pinned values: cross-release stability.
    for &(s, want) in PINNED_FINGERPRINTS {
        match s.parse::<PredictorSpec>() {
            Ok(spec) => {
                let got = spec.fingerprint();
                if got != want {
                    violations.push(format!(
                        "`{s}` fingerprints as {got:#018x}, pinned {want:#018x} \
                         (rendering or hash drift: stored results would go stale)"
                    ));
                }
            }
            Err(e) => violations.push(format!("pinned `{s}` does not parse: {e}")),
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_at_least_two_targets() {
        for (name, _) in GRAMMAR {
            let n = MODEL_TARGETS
                .iter()
                .filter(|t| t.spec == *name || t.spec.starts_with(&format!("{name}:")))
                .count();
            assert!(n >= 2, "`{name}` has {n} model targets, needs >= 2");
        }
    }

    #[test]
    fn grammar_audit_is_clean() {
        assert_eq!(grammar_audit(), Vec::<String>::new());
    }

    #[test]
    fn cost_audit_is_clean() {
        assert_eq!(cost_audit(), Vec::<String>::new());
    }

    #[test]
    fn key_audit_is_clean() {
        assert_eq!(key_audit(), Vec::<String>::new());
    }

    #[test]
    fn every_parameterised_variant_has_perturbations() {
        // Every registry spec with parameters must expose at least one
        // single-field mutation, or the sensitivity audit is vacuous.
        for t in MODEL_TARGETS {
            let spec: PredictorSpec = t.spec.parse().expect("registry specs parse");
            let perturbed = spec_perturbations(&spec);
            if t.spec.contains(':') {
                assert!(!perturbed.is_empty(), "`{}` has no perturbations", t.spec);
            }
            for (field, mutated) in &perturbed {
                assert_ne!(
                    &spec, mutated,
                    "`{}`: `{field}` mutation is a no-op",
                    t.spec
                );
            }
        }
    }

    #[test]
    fn key_audit_detects_a_broken_pin() {
        // The audit must actually compare against the pinned constants.
        let (s, want) = PINNED_FINGERPRINTS[0];
        let spec: PredictorSpec = s.parse().expect("pinned specs parse");
        assert_eq!(spec.fingerprint(), want, "pin drifted — bump deliberately");
    }

    #[test]
    fn structural_formula_matches_the_paper_ratio() {
        // Bi-mode must cost 1.5x the next-smaller gshare (paper §3.3).
        let bimode: PredictorSpec = "bimode:d=10,c=10,h=10".parse().expect("valid");
        let gshare: PredictorSpec = "gshare:s=11,h=11".parse().expect("valid");
        let ratio = structural_state_bits(&bimode) as f64 / structural_state_bits(&gshare) as f64;
        assert!((ratio - 1.5).abs() < 1e-12);
    }
}
