//! The sliced execution engine: up to 64 gshare-family lanes advanced
//! together over one pass of a packed trace.
//!
//! Each lane is a plain byte-per-counter
//! [`CounterTable`](bpred_core::table::CounterTable). "Sliced" is a
//! historical name (DESIGN.md §13), kept because the benchmark reports
//! `engine.sliced.*` and `drive.sliced*`.
//!
//! # Lanes
//!
//! A *lane* is one gshare-family configuration — table index width `s`
//! and history length `m <= s` — running against its own weakly-taken
//! counter table. Bimodal is the `m = 0`
//! member of the family (the equivalence `bimodal(s) == gshare(s, 0)`
//! is a `bpred-core` invariant), so a lane group can mix sweep sizes
//! and history lengths freely. [`LaneSpec::of`] is the single
//! classification point: specs it returns `None` for (bi-mode's
//! cross-bank choice update, tagged and combining schemes, …) **must
//! fall back** to the batch engine — the harness dispatch does so
//! explicitly, and `bpred-check` audits the classification so a spec
//! can never silently take the wrong path.
//!
//! # Why it is fast
//!
//! Per retired (lane, branch) pair the loop does: two masked XOR index
//! ops, one [`CounterTable::retire`](bpred_core::table::CounterTable::retire)
//! (one bounds check, a load, the branchless saturating select of
//! [`Counter2::update`](bpred_core::Counter2::update), a store), and a
//! branchless mispredict accumulate, all monomorphised with no virtual
//! dispatch. A single *unmasked* 64-bit shift register serves
//! every lane: lane `m`'s masked read `shared & ((1 << m) - 1)` equals
//! the per-predictor `m`-bit register, so one history push per record
//! covers the whole group.
//!
//! Results are bit-identical to the scalar loop per configuration
//! (proven by `bpred-check`'s engine-equivalence pass and
//! property-tested here): same pre-update index, same saturating
//! transition, same weakly-taken initialisation.

use bpred_core::PredictorSpec;
use bpred_trace::PackedTrace;

use crate::session::SlicedSession;
use crate::simulate::RunResult;

/// Maximum lanes per sliced group, and so the configurations one
/// pass over a trace retires together.
pub const MAX_LANES: usize = 64;

/// One sliceable lane: a gshare-family configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneSpec {
    /// Table index width `s` (the lane's table holds `2^s` counters).
    pub table_bits: u32,
    /// History length `m <= s`; `0` is exactly bimodal.
    pub history_bits: u32,
}

impl LaneSpec {
    /// Classifies a spec for the sliced engine: `Some` for the
    /// gshare family (gshare and bimodal), `None` for every spec that
    /// must fall back to the batch engine.
    ///
    /// This is the *only* sliceability decision point — the harness
    /// dispatch and `bpred-check`'s coverage audit both consult it, so
    /// widening the engine to a new family is a one-site change that
    /// the equivalence pass immediately covers.
    #[must_use]
    pub fn of(spec: &PredictorSpec) -> Option<LaneSpec> {
        // Every grammar name is classified explicitly — no wildcard —
        // so a new family cannot be silently mis-sliced: the compiler
        // forces a decision here and the coverage audit probes it.
        match *spec {
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => Some(LaneSpec {
                table_bits,
                history_bits,
            }),
            PredictorSpec::Bimodal { table_bits } => Some(LaneSpec {
                table_bits,
                history_bits: 0,
            }),
            // Statics and every multi-table/choice scheme fall back to
            // the batch engine.
            PredictorSpec::AlwaysTaken
            | PredictorSpec::AlwaysNotTaken
            | PredictorSpec::Btfnt
            | PredictorSpec::Gselect { .. }
            | PredictorSpec::TwoLevel { .. }
            | PredictorSpec::BiMode(_)
            | PredictorSpec::Agree { .. }
            | PredictorSpec::Gskew { .. }
            | PredictorSpec::Yags { .. }
            | PredictorSpec::Tournament { .. }
            | PredictorSpec::TriMode { .. }
            | PredictorSpec::TwoBcGskew { .. } => None,
            // The zoo: tagged lookups, dot products and stage gating
            // are not one counter per lane — explicitly batch-fallback
            // (cascades stay so even when every stage is sliceable,
            // because the gates couple the lanes).
            PredictorSpec::Tage { .. }
            | PredictorSpec::Perceptron { .. }
            | PredictorSpec::Cascade(_) => None,
        }
    }
}

/// Drives up to [`MAX_LANES`] lanes over `packed` in one pass,
/// returning one [`RunResult`] per lane in input order — bit-identical
/// to running the scalar loop per configuration.
///
/// Thin wrapper over [`SlicedSession`]: open, feed the whole trace,
/// finish. The retire loop itself lives in [`SlicedSession::feed`].
///
/// # Panics
///
/// Panics if `lanes` exceeds [`MAX_LANES`] entries, or a lane has
/// `history_bits > table_bits` or `table_bits > 30` (the gshare
/// constructor's own invariants).
#[must_use]
pub fn measure_sliced(packed: &PackedTrace, lanes: &[LaneSpec]) -> Vec<RunResult> {
    let mut session = SlicedSession::new(lanes);
    session.feed(packed.records());
    session.finish()
}

/// Like [`measure_sliced`], but accepts any number of lanes and runs
/// them in [`MAX_LANES`]-sized groups sequentially. Convenience for
/// checks and benches; the harness plans its own groups so it can
/// shard them across threads.
#[must_use]
pub fn measure_sliced_chunks(packed: &PackedTrace, lanes: &[LaneSpec]) -> Vec<RunResult> {
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
    use bpred_core::{Bimodal, Gshare};
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

    #[test]
    fn classification_covers_exactly_the_gshare_family() {
        let gshare = "gshare:s=10,h=6".parse::<PredictorSpec>().expect("parses");
        assert_eq!(
            LaneSpec::of(&gshare),
            Some(LaneSpec {
                table_bits: 10,
                history_bits: 6
            })
        );
        let bimodal = "bimodal:s=9".parse::<PredictorSpec>().expect("parses");
        assert_eq!(
            LaneSpec::of(&bimodal),
            Some(LaneSpec {
                table_bits: 9,
                history_bits: 0
            })
        );
        for spec in [
            "bimode:d=7",
            "always-taken",
            "gselect:a=4,h=4",
            // The zoo families are explicitly batch-fallback — a
            // cascade of sliceable stages included.
            "tage:t=4,h=16,tag=8,e=7",
            "perceptron:n=6,h=12,theta=37",
            "cascade:bimodal:s=8;gshare:s=8,h=8",
        ] {
            let spec = spec.parse::<PredictorSpec>().expect("parses");
            assert_eq!(LaneSpec::of(&spec), None, "{spec} must fall back");
        }
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
        assert!(measure_sliced(&packed, &[]).is_empty());
        let empty = PackedTrace::build(&Trace::new("empty")).expect("builds");
        let results = measure_sliced(
            &empty,
            &[LaneSpec {
                table_bits: 4,
                history_bits: 2,
            }],
        );
        assert_eq!(results, [RunResult::default()]);
    }

    #[test]
    fn drives_are_recorded_per_lane_retired() {
        let packed = lcg_trace(500, 5);
        let before = metrics::engine_snapshot();
        let _ = measure_sliced(
            &packed,
            &[
                LaneSpec {
                    table_bits: 4,
                    history_bits: 0,
                },
                LaneSpec {
                    table_bits: 5,
                    history_bits: 5,
                },
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
        /// Every sliceable shape agrees with the scalar engine on
        /// arbitrary traces: random (s, m <= s) pairs over random
        /// outcome streams.
        #[test]
        fn arbitrary_lanes_match_scalar_on_arbitrary_traces(
            seed in any::<u64>(),
            len in 1u64..800,
            sites in 1u64..40,
            shapes in prop::collection::vec((0u32..11, 0u32..11), 1..6),
        ) {
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
            let packed = PackedTrace::build(&t).expect("sites fit");
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
    }
}
