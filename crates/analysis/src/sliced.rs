//! The lane engine: up to 64 counter-table configurations advanced
//! together over one pass of a packed trace.
//!
//! "Sliced" is a historical name (DESIGN.md §13), kept because the
//! benchmark reports `engine.sliced.*` and `drive.sliced*`.
//!
//! # Lanes
//!
//! A *lane* is one configuration whose whole state is two-bit counter
//! tables indexed by the branch address and the global history. There
//! are two kinds, and [`Lane::of`] is the single classification point:
//!
//! * **gshare** ([`LaneSpec`]): table index width `s` and history
//!   length `m <= s`, one weakly-taken
//!   [`CounterTable`](bpred_core::table::CounterTable). Bimodal is the
//!   `m = 0` member of the family (the equivalence
//!   `bimodal(s) == gshare(s, 0)` is a `bpred-core` invariant).
//! * **shared-index bi-mode** ([`BiModeConfig`] with
//!   [`IndexShare::Shared`]): a weakly-taken choice table of `2^c`
//!   counters and the two direction banks of `2^d` counters interleaved
//!   in one table, for any `d`, `c`, `h <= d` and both choice-update
//!   and bank-initialisation policies.
//!
//! Specs [`Lane::of`] returns `None` for (skewed bi-mode, the tagged
//! and combining schemes, the statics, …) **must fall back** to the
//! batch engine. The harness dispatch does so explicitly, and
//! `bpred-check` audits the classification so a spec can never
//! silently take the wrong path.
//!
//! # Why it is fast
//!
//! The loop is record-outer ([`SlicedSession::feed`]): each record is
//! decoded once and retired by every lane of the group before the next,
//! and each lane kind's inner loop is monomorphic, with no virtual
//! dispatch. A gshare lane does two masked XOR index ops, one
//! [`CounterTable::retire`](bpred_core::table::CounterTable::retire)
//! (one bounds check, a load, the branchless saturating select of
//! [`Counter2::update`](bpred_core::Counter2::update), a store) and a
//! branchless mispredict accumulate. A bi-mode lane adds the choice
//! lookup and the partial choice update, written as a select. A single
//! *unmasked* 64-bit shift register serves every lane: lane `m`'s
//! masked read `shared & ((1 << m) - 1)` equals the per-predictor
//! `m`-bit register, so one history push per record covers the whole
//! group.
//!
//! Results are bit-identical to the scalar loop per configuration
//! (proven by `bpred-check`'s engine-equivalence and lane-grid passes
//! and property-tested here): same pre-update indices, same saturating
//! transitions, same initialisation.

use bpred_core::{BiModeConfig, IndexShare, PredictorSpec};
use bpred_trace::PackedTrace;

use crate::session::SlicedSession;
use crate::simulate::RunResult;

/// Maximum lanes per group, and so the configurations one pass over a
/// trace retires together.
pub const MAX_LANES: usize = 64;

/// One gshare-family lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneSpec {
    /// Table index width `s` (the lane's table holds `2^s` counters).
    pub table_bits: u32,
    /// History length `m <= s`; `0` is exactly bimodal.
    pub history_bits: u32,
}

/// One lane of the lane engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A gshare-family lane (bimodal is `m = 0`).
    Gshare(LaneSpec),
    /// A shared-index bi-mode lane; its `index_share` is always
    /// [`IndexShare::Shared`].
    BiMode(BiModeConfig),
}

impl Lane {
    /// Classifies a spec for the lane engine: `Some` for the gshare
    /// family (gshare and bimodal) and for shared-index bi-mode, `None`
    /// for every spec that must fall back to the batch engine.
    ///
    /// This is the *only* lane classification point. The harness rate
    /// front door, the streaming service's tenant engine and
    /// `bpred-check`'s coverage audit all consult it, so widening the
    /// engine to a new family is a one-site change that the
    /// equivalence pass immediately covers.
    #[must_use]
    pub fn of(spec: &PredictorSpec) -> Option<Lane> {
        // Every grammar name is classified explicitly — no wildcard —
        // so a new family cannot be silently mis-laned: the compiler
        // forces a decision here and the coverage audit probes it.
        match *spec {
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => Some(Lane::Gshare(LaneSpec {
                table_bits,
                history_bits,
            })),
            PredictorSpec::Bimodal { table_bits } => Some(Lane::Gshare(LaneSpec {
                table_bits,
                history_bits: 0,
            })),
            // Both banks read one gshare index, so they interleave in
            // one table; skewed banks hash apart and stay on the batch
            // engine.
            PredictorSpec::BiMode(config) => match config.index_share {
                IndexShare::Shared => Some(Lane::BiMode(config)),
                IndexShare::SkewedPerBank => None,
            },
            // Statics and every other multi-table/choice scheme fall
            // back to the batch engine.
            PredictorSpec::AlwaysTaken
            | PredictorSpec::AlwaysNotTaken
            | PredictorSpec::Btfnt
            | PredictorSpec::Gselect { .. }
            | PredictorSpec::TwoLevel { .. }
            | PredictorSpec::Agree { .. }
            | PredictorSpec::Gskew { .. }
            | PredictorSpec::Yags { .. }
            | PredictorSpec::Tournament { .. }
            | PredictorSpec::TriMode { .. }
            | PredictorSpec::TwoBcGskew { .. } => None,
            // The zoo: tagged lookups, dot products and stage gating
            // are not counter tables on a shared history — explicitly
            // batch-fallback (cascades stay so even when every stage is
            // a lane, because the gates couple the lanes).
            PredictorSpec::Tage { .. }
            | PredictorSpec::Perceptron { .. }
            | PredictorSpec::Cascade(_) => None,
        }
    }

    /// Bytes of counter state the lane's tables hold, one per counter:
    /// `2^s` for a gshare lane, `2^c + 2 * 2^d` for a bi-mode lane.
    /// The harness balances lane groups by it.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        match *self {
            Lane::Gshare(lane) => 1 << lane.table_bits,
            Lane::BiMode(config) => (1 << config.choice_bits) + (2 << config.direction_bits),
        }
    }
}

impl From<LaneSpec> for Lane {
    fn from(lane: LaneSpec) -> Lane {
        Lane::Gshare(lane)
    }
}

/// Drives up to [`MAX_LANES`] lanes over `packed` in one pass,
/// returning one [`RunResult`] per lane in input order — bit-identical
/// to running the scalar loop per configuration. Accepts gshare
/// [`LaneSpec`]s or [`Lane`]s of either kind, mixed freely.
///
/// Thin wrapper over [`SlicedSession`]: open, feed the whole trace,
/// finish. The retire loop itself lives in [`SlicedSession::feed`].
///
/// # Panics
///
/// Panics if `lanes` exceeds [`MAX_LANES`] entries, or a lane breaks
/// its predictor constructor's own invariants (`history_bits` above
/// the gshare or direction index width, a table wider than 30 bits, a
/// skewed bi-mode configuration).
#[must_use]
pub fn measure_sliced<L: Copy + Into<Lane>>(packed: &PackedTrace, lanes: &[L]) -> Vec<RunResult> {
    let lanes: Vec<Lane> = lanes.iter().map(|&lane| lane.into()).collect();
    let mut session = SlicedSession::new(&lanes);
    session.feed(packed.records());
    session.finish()
}

/// Like [`measure_sliced`], but accepts any number of lanes and runs
/// them in [`MAX_LANES`]-sized groups sequentially. Convenience for
/// checks and benches; the harness plans its own groups so it can
/// shard them across threads.
#[must_use]
pub fn measure_sliced_chunks<L: Copy + Into<Lane>>(
    packed: &PackedTrace,
    lanes: &[L],
) -> Vec<RunResult> {
    lanes
        .chunks(MAX_LANES)
        .flat_map(|group| measure_sliced(packed, group))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::measure_packed;
    use crate::metrics::{self, Engine};
    use bpred_core::{BankInit, BiMode, Bimodal, ChoiceUpdate, Gshare};
    use bpred_trace::{BranchRecord, Trace};
    use proptest::prelude::*;

    fn lcg_trace(len: u64, sites: u64) -> PackedTrace {
        let mut t = Trace::new("sliced");
        let mut x = 3u64;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1000 + (x % sites) * 4;
            t.push(BranchRecord::conditional(pc, 0, (x >> 17) & 3 != 0));
        }
        PackedTrace::build(&t).expect("site table fits")
    }

    fn parse(spec: &str) -> PredictorSpec {
        spec.parse().expect("parses")
    }

    fn bimode(d: u32, c: u32, h: u32, update: ChoiceUpdate, init: BankInit) -> BiModeConfig {
        let mut config = BiModeConfig::new(d, c, h);
        config.choice_update = update;
        config.bank_init = init;
        config
    }

    #[test]
    fn classification_covers_exactly_the_gshare_family() {
        assert_eq!(
            Lane::of(&parse("gshare:s=10,h=6")),
            Some(Lane::Gshare(LaneSpec {
                table_bits: 10,
                history_bits: 6
            }))
        );
        assert_eq!(
            Lane::of(&parse("bimodal:s=9")),
            Some(Lane::Gshare(LaneSpec {
                table_bits: 9,
                history_bits: 0
            }))
        );
        for spec in [
            "bimode:d=7,index=skewed",
            "always-taken",
            "gselect:a=4,h=4",
            "trimode:d=6",
            // The zoo families are explicitly batch-fallback — a
            // cascade of lane-able stages included.
            "tage:t=4,h=16,tag=8,e=7",
            "perceptron:n=6,h=12,theta=37",
            "cascade:bimodal:s=8;gshare:s=8,h=8",
        ] {
            let spec = parse(spec);
            assert_eq!(Lane::of(&spec), None, "{spec} must fall back");
        }
    }

    #[test]
    fn shared_index_bimode_is_a_lane_under_every_policy() {
        for spec in [
            "bimode:d=7",
            "bimode:d=9,c=4,h=3",
            "bimode:d=0,c=0,h=0",
            "bimode:d=6,choice=always",
            "bimode:d=6,init=uniform",
            "bimode:d=5,c=7,h=5,choice=always,init=uniform",
        ] {
            let spec = parse(spec);
            let PredictorSpec::BiMode(config) = spec else {
                panic!("{spec} is a bi-mode spec");
            };
            assert_eq!(Lane::of(&spec), Some(Lane::BiMode(config)), "{spec}");
        }
    }

    #[test]
    fn table_bytes_count_one_byte_per_counter() {
        let gshare = Lane::of(&parse("gshare:s=12,h=3")).expect("lane");
        assert_eq!(gshare.table_bytes(), 4096);
        let bimode = Lane::of(&parse("bimode:d=10,c=8")).expect("lane");
        assert_eq!(bimode.table_bytes(), 256 + 2 * 1024);
    }

    #[test]
    fn sliced_matches_scalar_gshare_lane_by_lane() {
        let packed = lcg_trace(6000, 37);
        let lanes: Vec<LaneSpec> = (0..=10u32)
            .map(|m| LaneSpec {
                table_bits: 10,
                history_bits: m,
            })
            .collect();
        let got = measure_sliced(&packed, &lanes);
        for (lane, got) in lanes.iter().zip(&got) {
            let want = measure_packed(
                &packed,
                &mut Gshare::new(lane.table_bits, lane.history_bits),
            );
            assert_eq!(*got, want, "lane {lane:?}");
        }
    }

    #[test]
    fn bimode_lanes_match_the_predictor_under_every_policy() {
        let packed = lcg_trace(6000, 37);
        let mut configs = Vec::new();
        for update in [ChoiceUpdate::Partial, ChoiceUpdate::Always] {
            for init in [BankInit::Split, BankInit::UniformWeaklyTaken] {
                for (d, c, h) in [(7, 7, 7), (8, 5, 2), (3, 9, 0), (0, 0, 0)] {
                    configs.push(bimode(d, c, h, update, init));
                }
            }
        }
        let lanes: Vec<Lane> = configs.iter().map(|&c| Lane::BiMode(c)).collect();
        let got = measure_sliced(&packed, &lanes);
        for (config, got) in configs.iter().zip(&got) {
            let want = measure_packed(&packed, &mut BiMode::new(*config));
            assert_eq!(*got, want, "{config:?}");
        }
    }

    #[test]
    fn mixed_groups_keep_input_order() {
        let packed = lcg_trace(3000, 29);
        let specs = [
            "bimode:d=6",
            "gshare:s=7,h=7",
            "bimodal:s=5",
            "bimode:d=4,c=6,h=2,choice=always",
            "gshare:s=6,h=2",
        ]
        .map(parse);
        let lanes: Vec<Lane> = specs.iter().filter_map(Lane::of).collect();
        assert_eq!(lanes.len(), specs.len());
        let got = measure_sliced(&packed, &lanes);
        for (spec, got) in specs.iter().zip(&got) {
            assert_eq!(
                *got,
                measure_packed(&packed, spec.build().as_mut()),
                "{spec}"
            );
        }
    }

    #[test]
    fn zero_history_lane_matches_bimodal() {
        let packed = lcg_trace(4000, 60);
        let got = measure_sliced(
            &packed,
            &[LaneSpec {
                table_bits: 5,
                history_bits: 0,
            }],
        );
        let want = measure_packed(&packed, &mut Bimodal::new(5));
        assert_eq!(got, [want]);
    }

    #[test]
    fn a_full_64_lane_group_matches_scalar_everywhere() {
        let packed = lcg_trace(3000, 11);
        // 64 distinct (s, m) shapes spanning tiny to multi-word tables.
        let lanes: Vec<LaneSpec> = (0..64u32)
            .map(|i| {
                let s = 2 + i % 9;
                LaneSpec {
                    table_bits: s,
                    history_bits: (i / 9) % (s + 1),
                }
            })
            .collect();
        let got = measure_sliced(&packed, &lanes);
        assert_eq!(got.len(), 64);
        for (lane, got) in lanes.iter().zip(&got) {
            let want = measure_packed(
                &packed,
                &mut Gshare::new(lane.table_bits, lane.history_bits),
            );
            assert_eq!(*got, want, "lane {lane:?}");
        }
    }

    #[test]
    fn chunked_driver_splits_groups_transparently() {
        let packed = lcg_trace(1500, 7);
        let lanes: Vec<LaneSpec> = (0..70u32)
            .map(|i| LaneSpec {
                table_bits: 4 + i % 5,
                history_bits: i % 3,
            })
            .collect();
        let chunked = measure_sliced_chunks(&packed, &lanes);
        assert_eq!(chunked.len(), 70);
        let grouped: Vec<RunResult> = measure_sliced(&packed, &lanes[..64])
            .into_iter()
            .chain(measure_sliced(&packed, &lanes[64..]))
            .collect();
        assert_eq!(chunked, grouped);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let packed = lcg_trace(100, 5);
        assert!(measure_sliced::<Lane>(&packed, &[]).is_empty());
        let empty = PackedTrace::build(&Trace::new("empty")).expect("builds");
        let results = measure_sliced(
            &empty,
            &[
                Lane::Gshare(LaneSpec {
                    table_bits: 4,
                    history_bits: 2,
                }),
                Lane::BiMode(BiModeConfig::paper_default(3)),
            ],
        );
        assert_eq!(results, [RunResult::default(); 2]);
    }

    #[test]
    fn drives_are_recorded_per_lane_retired() {
        let packed = lcg_trace(500, 5);
        let before = metrics::engine_snapshot();
        let _ = measure_sliced(
            &packed,
            &[
                Lane::Gshare(LaneSpec {
                    table_bits: 4,
                    history_bits: 0,
                }),
                Lane::BiMode(BiModeConfig::paper_default(5)),
            ],
        );
        let delta = metrics::engine_snapshot().since(&before);
        let sliced = delta.get(Engine::Sliced);
        assert!(sliced.branches >= 1000, "got {sliced:?}");
        assert!(sliced.lanes >= 2, "got {sliced:?}");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_groups_are_rejected() {
        let packed = lcg_trace(10, 3);
        let lanes = vec![
            LaneSpec {
                table_bits: 4,
                history_bits: 0
            };
            65
        ];
        let _ = measure_sliced(&packed, &lanes);
    }

    proptest! {
        /// Every gshare lane shape agrees with the scalar engine on
        /// arbitrary traces: random (s, m <= s) pairs over random
        /// outcome streams.
        #[test]
        fn arbitrary_lanes_match_scalar_on_arbitrary_traces(
            seed in any::<u64>(),
            len in 1u64..800,
            sites in 1u64..40,
            shapes in prop::collection::vec((0u32..11, 0u32..11), 1..6),
        ) {
            let packed = random_trace(seed, len, sites);
            let lanes: Vec<LaneSpec> = shapes
                .into_iter()
                .map(|(s, m)| LaneSpec { table_bits: s, history_bits: m.min(s) })
                .collect();
            let got = measure_sliced(&packed, &lanes);
            for (lane, got) in lanes.iter().zip(&got) {
                let want = measure_packed(
                    &packed,
                    &mut Gshare::new(lane.table_bits, lane.history_bits),
                );
                prop_assert_eq!(*got, want, "lane {:?}", lane);
            }
        }

        /// Every bi-mode lane shape agrees with the predictor on
        /// arbitrary traces: random (d, c, h <= d) under random choice
        /// and initialisation policies.
        #[test]
        fn arbitrary_bimode_lanes_match_the_predictor(
            seed in any::<u64>(),
            len in 1u64..800,
            sites in 1u64..40,
            shapes in prop::collection::vec(
                (0u32..10, 0u32..10, 0u32..10, any::<bool>(), any::<bool>()),
                1..6,
            ),
        ) {
            let packed = random_trace(seed, len, sites);
            let configs: Vec<BiModeConfig> = shapes
                .into_iter()
                .map(|(d, c, h, always, uniform)| {
                    bimode(
                        d,
                        c,
                        h.min(d),
                        if always { ChoiceUpdate::Always } else { ChoiceUpdate::Partial },
                        if uniform { BankInit::UniformWeaklyTaken } else { BankInit::Split },
                    )
                })
                .collect();
            let lanes: Vec<Lane> = configs.iter().map(|&c| Lane::BiMode(c)).collect();
            let got = measure_sliced(&packed, &lanes);
            for (config, got) in configs.iter().zip(&got) {
                let want = measure_packed(&packed, &mut BiMode::new(*config));
                prop_assert_eq!(*got, want, "{:?}", config);
            }
        }
    }

    fn random_trace(seed: u64, len: u64, sites: u64) -> PackedTrace {
        let mut t = Trace::new("prop");
        let mut x = seed | 1;
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.push(BranchRecord::conditional(
                0x4000 + (x % sites) * 4,
                0,
                x & (1 << 23) != 0,
            ));
        }
        PackedTrace::build(&t).expect("sites fit")
    }
}
