//! Property tests: every buildable [`PredictorSpec`] variant
//! round-trips `parse → Display → parse` losslessly, for arbitrary
//! parameter values, not just the hand-picked configs the unit tests
//! cover; and the parser accepts exactly the specs that build.
//!
//! The spec grammar is the only interface between the harness CLI, the
//! sweep registry, and the predictors themselves; a variant whose
//! rendering drops a parameter (or renders one unparseably) would make
//! sweep results unreproducible from their own labels.

use bpred_core::spec::GRAMMAR;
use bpred_core::{BankInit, BiModeConfig, ChoiceUpdate, HistorySource, IndexShare, PredictorSpec};
use proptest::prelude::*;

/// Table/history sizing bits: `1..=14` spans smoke scale to beyond the
/// paper's largest (8K-entry) configurations.
fn bits() -> impl Strategy<Value = u32> {
    1u32..15
}

/// A strategy generating every `PredictorSpec` variant, with each
/// enum-valued knob (choice update, bank init, index sharing, history
/// source, total-update flag) drawn independently. History lengths are
/// capped at the index width where a constructor requires it, so every
/// generated spec builds.
fn spec() -> impl Strategy<Value = PredictorSpec> {
    let two_level = (
        prop_oneof![
            Just(HistorySource::Global),
            bits().prop_map(|index_bits| HistorySource::PerAddress { index_bits }),
            (bits(), 0u32..7)
                .prop_map(|(index_bits, shift)| HistorySource::PerSet { index_bits, shift }),
        ],
        0u32..7,
        bits(),
    )
        .prop_map(
            |(source, address_bits, history_bits)| PredictorSpec::TwoLevel {
                source,
                address_bits,
                history_bits,
            },
        );
    let bimode = (bits(), bits(), bits(), 0u8..2, 0u8..2, 0u8..2).prop_map(
        |(direction_bits, choice_bits, history_bits, update, init, share)| {
            let history_bits = if share == 1 {
                history_bits
            } else {
                history_bits.min(direction_bits)
            };
            let mut config = BiModeConfig::new(direction_bits, choice_bits, history_bits);
            if update == 1 {
                config.choice_update = ChoiceUpdate::Always;
            }
            if init == 1 {
                config.bank_init = BankInit::UniformWeaklyTaken;
            }
            if share == 1 {
                config.index_share = IndexShare::SkewedPerBank;
            }
            PredictorSpec::BiMode(config)
        },
    );
    let tage = (1u32..9, 1u32..64, 1u32..13, bits()).prop_map(
        |(tables, max_history, tag_bits, entry_bits)| PredictorSpec::Tage {
            tables,
            max_history,
            tag_bits,
            entry_bits,
        },
    );
    let perceptron = (bits(), 1u32..25, 1u32..200).prop_map(|(rows_bits, history_bits, theta)| {
        PredictorSpec::Perceptron {
            rows_bits,
            history_bits,
            theta,
        }
    });
    // Cascade stages draw from the non-cascade grammar (nesting is
    // rejected at parse time), so the stage pool here is a sample of
    // leaf families rather than a recursive strategy.
    let cascade = {
        let stage = prop_oneof![
            bits().prop_map(|table_bits| PredictorSpec::Bimodal { table_bits }),
            (bits(), bits()).prop_map(|(table_bits, history_bits)| PredictorSpec::Gshare {
                table_bits,
                history_bits: history_bits.min(table_bits)
            }),
            (1u32..5, 1u32..33, 1u32..13, bits()).prop_map(
                |(tables, max_history, tag_bits, entry_bits)| PredictorSpec::Tage {
                    tables,
                    max_history,
                    tag_bits,
                    entry_bits,
                }
            ),
            (bits(), 1u32..17, 1u32..100).prop_map(|(rows_bits, history_bits, theta)| {
                PredictorSpec::Perceptron {
                    rows_bits,
                    history_bits,
                    theta,
                }
            }),
        ];
        prop::collection::vec(stage, 2..5).prop_map(PredictorSpec::Cascade)
    };
    prop_oneof![
        Just(PredictorSpec::AlwaysTaken),
        Just(PredictorSpec::AlwaysNotTaken),
        Just(PredictorSpec::Btfnt),
        bits().prop_map(|table_bits| PredictorSpec::Bimodal { table_bits }),
        (bits(), bits()).prop_map(|(table_bits, history_bits)| PredictorSpec::Gshare {
            table_bits,
            history_bits: history_bits.min(table_bits)
        }),
        (bits(), bits()).prop_map(|(address_bits, history_bits)| PredictorSpec::Gselect {
            address_bits,
            history_bits
        }),
        two_level,
        bimode,
        (bits(), bits(), bits()).prop_map(|(table_bits, history_bits, bias_bits)| {
            PredictorSpec::Agree {
                table_bits,
                history_bits: history_bits.min(table_bits),
                bias_bits,
            }
        }),
        (bits(), bits(), 0u8..2).prop_map(|(bank_bits, history_bits, total)| {
            PredictorSpec::Gskew {
                bank_bits,
                history_bits,
                total_update: total == 1,
            }
        }),
        (bits(), bits(), bits(), 1u32..9).prop_map(
            |(choice_bits, cache_bits, history_bits, tag_bits)| PredictorSpec::Yags {
                choice_bits,
                cache_bits,
                history_bits,
                tag_bits,
            }
        ),
        bits().prop_map(|table_bits| PredictorSpec::Tournament { table_bits }),
        (bits(), bits(), bits()).prop_map(|(direction_bits, choice_bits, history_bits)| {
            PredictorSpec::TriMode {
                direction_bits,
                choice_bits,
                history_bits: history_bits.min(direction_bits),
            }
        }),
        (bits(), bits()).prop_map(|(bank_bits, history_bits)| PredictorSpec::TwoBcGskew {
            bank_bits,
            history_bits: history_bits.min(bank_bits)
        }),
        tage,
        perceptron,
        cascade,
    ]
}

/// A field value on either side of every constructor bound. Valid
/// tables stay at most `2^16` entries; 31–40 and 60–70 exceed the
/// 30-bit index and 63-bit history limits, which every constructor
/// rejects before allocating.
fn width() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..17, 31u32..41, 60u32..71]
}

/// An address width for the families that concatenate it with a
/// history (`a + h <= 30`): at most 8 bits when small, so a valid pair
/// never allocates more than `2^24` counters. Never 0, so `gas`, `pas`
/// and `sas` render under their own names rather than the `g`-less
/// forms.
fn address() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..9, 31u32..41, 60u32..71]
}

/// One spec per grammar name, its fields taken in turn from `w`,
/// address widths from `a`, and enum knobs from the bits of `flags`.
fn one_spec_per_name(w: &[u32], a: &[u32], flags: u8) -> Vec<PredictorSpec> {
    let mut w = w.iter().copied();
    let mut next = move || w.next().expect("enough widths drawn");
    let flag = |bit: u8| flags & (1 << bit) != 0;
    let two_level = |source, address_bits, history_bits| PredictorSpec::TwoLevel {
        source,
        address_bits,
        history_bits,
    };
    let mut bimode = BiModeConfig::new(next(), next(), next());
    if flag(0) {
        bimode.choice_update = ChoiceUpdate::Always;
    }
    if flag(1) {
        bimode.bank_init = BankInit::UniformWeaklyTaken;
    }
    if flag(2) {
        bimode.index_share = IndexShare::SkewedPerBank;
    }
    vec![
        PredictorSpec::AlwaysTaken,
        PredictorSpec::AlwaysNotTaken,
        PredictorSpec::Btfnt,
        PredictorSpec::Bimodal { table_bits: next() },
        PredictorSpec::Gshare {
            table_bits: next(),
            history_bits: next(),
        },
        PredictorSpec::Gselect {
            address_bits: a[0],
            history_bits: next(),
        },
        two_level(HistorySource::Global, 0, next()),
        two_level(HistorySource::Global, a[1], next()),
        two_level(HistorySource::PerAddress { index_bits: next() }, 0, next()),
        two_level(
            HistorySource::PerAddress { index_bits: next() },
            a[2],
            next(),
        ),
        two_level(
            HistorySource::PerSet {
                index_bits: next(),
                shift: next(),
            },
            0,
            next(),
        ),
        two_level(
            HistorySource::PerSet {
                index_bits: next(),
                shift: next(),
            },
            a[3],
            next(),
        ),
        PredictorSpec::BiMode(bimode),
        PredictorSpec::Agree {
            table_bits: next(),
            history_bits: next(),
            bias_bits: next(),
        },
        PredictorSpec::Gskew {
            bank_bits: next(),
            history_bits: next(),
            total_update: flag(3),
        },
        PredictorSpec::Yags {
            choice_bits: next(),
            cache_bits: next(),
            history_bits: next(),
            tag_bits: next(),
        },
        PredictorSpec::Tournament { table_bits: next() },
        PredictorSpec::TwoBcGskew {
            bank_bits: next(),
            history_bits: next(),
        },
        PredictorSpec::TriMode {
            direction_bits: next(),
            choice_bits: next(),
            history_bits: next(),
        },
        PredictorSpec::Tage {
            tables: next(),
            max_history: next(),
            tag_bits: next(),
            entry_bits: next(),
        },
        PredictorSpec::Perceptron {
            rows_bits: next(),
            history_bits: next(),
            theta: next(),
        },
        PredictorSpec::Cascade(vec![
            PredictorSpec::Gshare {
                table_bits: next(),
                history_bits: next(),
            },
            PredictorSpec::Perceptron {
                rows_bits: next(),
                history_bits: next(),
                theta: next(),
            },
        ]),
    ]
}

proptest! {
    /// The parser accepts a spec exactly when it builds: every field
    /// combination a constructor asserts on is a parse error, and
    /// nothing else is. Each case draws one spec of every grammar name.
    #[test]
    fn specs_parse_exactly_when_they_build(
        w in prop::collection::vec(width(), 64..65),
        a in prop::collection::vec(address(), 4..5),
        flags in any::<u8>(),
    ) {
        let specs = one_spec_per_name(&w, &a, flags);
        let mut names: Vec<String> = specs
            .iter()
            .map(|s| s.to_string().split(':').next().unwrap_or_default().to_owned())
            .collect();
        names.sort_unstable();
        let mut grammar: Vec<&str> = GRAMMAR.iter().map(|(n, _)| *n).collect();
        grammar.sort_unstable();
        prop_assert_eq!(names, grammar, "one spec per grammar name");
        for spec in specs {
            let parsed = spec.to_string().parse::<PredictorSpec>();
            let built = std::panic::catch_unwind(|| drop(spec.build()));
            prop_assert_eq!(
                parsed.is_ok(),
                built.is_ok(),
                "`{}`: parse gave {:?}",
                spec,
                parsed
            );
        }
    }

    /// `Display` must render every generated spec to a string the
    /// grammar parses back to an equal spec, and the rendering must be
    /// a fixed point (render → parse → render is stable).
    #[test]
    fn every_variant_roundtrips_losslessly(generated in spec()) {
        let rendered = generated.to_string();
        let reparsed: PredictorSpec = rendered
            .parse()
            .unwrap_or_else(|e| panic!("`{rendered}` does not re-parse: {e}"));
        prop_assert_eq!(&reparsed, &generated, "round-trip through `{}`", rendered);
        prop_assert_eq!(reparsed.to_string(), rendered, "rendering must be stable");
    }

    /// The grammar ignores incidental whitespace around names, keys,
    /// and values, so hand-written sweep files stay robust.
    #[test]
    fn rendered_specs_survive_added_whitespace(generated in spec()) {
        let spaced: String = generated
            .to_string()
            .replace(':', " : ")
            .replace(',', " , ")
            .replace('=', " = ");
        let reparsed: PredictorSpec = spaced
            .parse()
            .unwrap_or_else(|e| panic!("`{spaced}` does not parse: {e}"));
        prop_assert_eq!(reparsed, generated);
    }
}
