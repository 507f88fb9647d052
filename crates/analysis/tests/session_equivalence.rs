//! Property test: chunked [`EngineSession`](bpred_analysis::session)
//! feeding is bit-identical to the one-shot `measure_*` engines for
//! **every** grammar spec, at every chunk geometry that has bitten a
//! streaming engine before — size 1 (every boundary), 63/64/65 (either
//! side of the 64-bit shared-history register), and uneven tails.
//!
//! This is the contract that lets the `repro serve` streaming service
//! share one store key space with the whole-trace engines: a chunk
//! boundary must never be observable in a result, so a digest computed
//! from streamed chunks addresses exactly the result a whole-trace run
//! would produce.

use bpred_analysis::session::{PackedSession, SlicedSession};
use bpred_analysis::sliced::Lane;
use bpred_analysis::{measure_batch, measure_packed, measure_sliced, RunResult};
use bpred_core::spec::GRAMMAR;
use bpred_core::{Predictor, PredictorSpec};
use bpred_trace::{BranchRecord, PackedTrace, Trace};
use proptest::prelude::*;

/// One representative configuration per grammar name, with parameters
/// small enough that counters saturate and histories wrap inside the
/// test trace (the regimes where off-by-one chunk bugs would show).
const SPECS: &[&str] = &[
    "always-taken",
    "always-not-taken",
    "btfnt",
    "bimodal:s=5",
    "gshare:s=6,h=6",
    "gselect:a=3,h=3",
    "gag:h=6",
    "gas:a=3,h=4",
    "pag:i=4,h=5",
    "pas:i=4,a=3,h=4",
    "sag:i=4,k=2,h=5",
    "sas:i=4,k=2,a=3,h=4",
    "bimode:d=5",
    "agree:s=6,h=5,b=6",
    "gskew:s=6,h=5",
    "yags:c=6,e=4,h=5,t=4",
    "tournament:s=6",
    "2bcgskew:s=6,h=5",
    "trimode:d=5",
    "tage:t=3,h=8,tag=5,e=4",
    "perceptron:n=4,h=6,theta=25",
    "cascade:bimodal:s=4;gshare:s=5,h=5",
];

/// The chunk sizes every spec is replayed at: every boundary, either
/// side of the 64-bit shared-history register, and sizes that leave
/// uneven tails on the test trace length.
const CHUNKS: &[usize] = &[1, 63, 64, 65, 1000];

fn test_trace(seed: u64, len: u64) -> (Trace, PackedTrace) {
    let mut t = Trace::new("session-equivalence");
    let mut x = seed | 1;
    for i in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pc = 0x8000 + (x % 29) * 4;
        let target = if x.is_multiple_of(4) {
            pc - 0x40
        } else {
            pc + 0x40
        };
        t.push(BranchRecord::conditional(pc, target, (x >> 23) & 1 == 1));
        if i % 13 == 0 {
            t.push(BranchRecord::unconditional(pc + 4, 0x8000));
        }
    }
    let packed = PackedTrace::build(&t).expect("site table fits");
    (t, packed)
}

fn feed_in_chunks<F: FnMut(usize, usize)>(len: usize, chunk: usize, mut feed: F) {
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        feed(start, end);
        start = end;
    }
}

#[test]
fn the_spec_list_covers_every_grammar_name() {
    let mut names: Vec<&str> = SPECS
        .iter()
        .map(|s| s.split(':').next().unwrap_or(s))
        .collect();
    names.sort_unstable();
    let mut grammar: Vec<&str> = GRAMMAR.iter().map(|(n, _)| *n).collect();
    grammar.sort_unstable();
    assert_eq!(names, grammar, "one session spec per grammar name");
}

#[test]
fn chunked_packed_sessions_match_one_shots_for_every_grammar_spec() {
    // 2477 records: prime, so every CHUNKS size leaves an uneven tail.
    let (_, packed) = test_trace(41, 2477);
    for spec in SPECS {
        let spec: PredictorSpec = spec.parse().expect("grammar spec parses");
        let want = measure_packed(&packed, spec.build().as_mut());
        for &chunk in CHUNKS {
            let mut session = PackedSession::<_, dyn Predictor>::new(spec.build());
            feed_in_chunks(packed.len(), chunk, |s, e| {
                session.feed((s..e).map(|i| packed.record(i)));
            });
            assert_eq!(session.finish(), want, "spec {spec} chunk {chunk}");
        }
    }
}

#[test]
fn chunked_batch_sessions_match_the_one_shot_batch_for_the_whole_grammar() {
    // The streaming service's per-spec sessions against one batch pass
    // over every grammar spec at once.
    let (_, packed) = test_trace(43, 2477);
    let specs: Vec<PredictorSpec> = SPECS.iter().map(|s| s.parse().expect("parses")).collect();
    let mut batch: Vec<Box<dyn Predictor>> = specs.iter().map(|s| s.build()).collect();
    let want = measure_batch(&packed, &mut batch);
    for &chunk in CHUNKS {
        let got: Vec<RunResult> = specs
            .iter()
            .map(|spec| {
                let mut session = PackedSession::<_, dyn Predictor>::new(spec.build());
                feed_in_chunks(packed.len(), chunk, |s, e| {
                    session.feed((s..e).map(|i| packed.record(i)));
                });
                session.finish()
            })
            .collect();
        assert_eq!(got, want, "chunk {chunk}");
    }
}

#[test]
fn chunked_sliced_sessions_match_the_one_shot_for_every_sliceable_spec() {
    let (_, packed) = test_trace(47, 2477);
    let lanes: Vec<Lane> = SPECS
        .iter()
        .filter_map(|s| Lane::of(&s.parse::<PredictorSpec>().expect("parses")))
        .collect();
    assert!(!lanes.is_empty(), "grammar has sliceable members");
    let want = measure_sliced(&packed, &lanes);
    for &chunk in CHUNKS {
        let mut session = SlicedSession::new(&lanes);
        feed_in_chunks(packed.len(), chunk, |s, e| {
            session.feed((s..e).map(|i| packed.record(i)));
        });
        assert_eq!(session.finish(), want, "chunk {chunk}");
    }
}

#[test]
fn site_tallies_sum_to_the_aggregate_for_every_grammar_spec() {
    let (t, packed) = test_trace(59, 2477);
    let sites = bpred_trace::stats::site_table(&t);
    // For every grammar spec the tally must cover exactly the trace's
    // site table, sum exactly to the aggregate result, and be invisible
    // to chunk boundaries.
    for spec in SPECS {
        let spec: PredictorSpec = spec.parse().expect("parses");
        let mut whole = PackedSession::<_, dyn Predictor>::new(spec.build());
        whole.track_sites();
        whole.feed((0..packed.len()).map(|i| packed.record(i)));
        let reference = whole.site_tally().expect("tracking is on").clone();
        let aggregate = whole.finish();
        assert_eq!(
            reference.totals(),
            (aggregate.branches, aggregate.mispredictions),
            "spec {spec}: per-site counts must sum to the aggregate"
        );
        let rows = reference.rows();
        assert_eq!(
            rows.iter()
                .map(|r| (r.pc, r.executions))
                .collect::<Vec<_>>(),
            sites
                .iter()
                .map(|s| (s.pc, s.executions))
                .collect::<Vec<_>>(),
            "spec {spec}: tally rows line up with trace::stats::site_table"
        );
        for &chunk in CHUNKS {
            let mut session = PackedSession::<_, dyn Predictor>::new(spec.build());
            session.track_sites();
            feed_in_chunks(packed.len(), chunk, |s, e| {
                session.feed((s..e).map(|i| packed.record(i)));
            });
            assert_eq!(
                session.site_tally(),
                Some(&reference),
                "spec {spec} chunk {chunk}: tallies see no chunk boundaries"
            );
        }
    }
}

proptest! {
    /// Arbitrary chunkings of arbitrary traces are invisible: a random
    /// split list drives every engine to the same result as one shot.
    #[test]
    fn random_chunkings_are_bit_identical(
        seed in any::<u64>(),
        len in 1u64..600,
        splits in prop::collection::vec(1usize..97, 1..8),
        spec_index in 0usize..SPECS.len(),
    ) {
        let (_, packed) = test_trace(seed, len);
        let spec: PredictorSpec = SPECS[spec_index].parse().expect("parses");

        // Packed session under the random chunking.
        let want = measure_packed(&packed, spec.build().as_mut());
        let mut session = PackedSession::<_, dyn Predictor>::new(spec.build());
        let mut start = 0;
        let mut split = splits.iter().cycle();
        while start < packed.len() {
            let step = *split.next().expect("cycle never ends");
            let end = (start + step).min(packed.len());
            session.feed((start..end).map(|i| packed.record(i)));
            start = end;
        }
        prop_assert_eq!(session.finish(), want);

        // Sliced session under the same chunking, when sliceable.
        if let Some(lane) = Lane::of(&spec) {
            let lanes = [lane];
            let mut session = SlicedSession::new(&lanes);
            let mut start = 0;
            let mut split = splits.iter().cycle();
            while start < packed.len() {
                let step = *split.next().expect("cycle never ends");
                let end = (start + step).min(packed.len());
                session.feed((start..end).map(|i| packed.record(i)));
                start = end;
            }
            let got: Vec<RunResult> = session.finish();
            prop_assert_eq!(got, measure_sliced(&packed, &lanes));
        }
    }
}
