//! Incremental engine sessions: the `feed(chunk)` / `finish()` seam
//! under the packed and sliced engines and the streaming service.
//!
//! A *session* is an engine with its state made explicit and resumable
//! between chunks:
//!
//! * [`PackedSession`] — one predictor ([`crate::measure_packed`]'s
//!   loop); the resumable state is the predictor itself (its history
//!   register and counter tables) plus the running mispredict tally.
//! * [`SlicedSession`] — up to [`MAX_LANES`]
//!   gshare-family lanes, each a weakly-taken [`CounterTable`]
//!   ([`crate::measure_sliced`]'s loop); state is the per-lane tables
//!   and masks, the per-lane tallies, and the single **shared unmasked
//!   history register** that must survive chunk boundaries for results
//!   to stay bit-identical.
//!
//! The packed session retires each branch with one
//! [`Predictor::retire`] call (predict with the record's target, then
//! train, on a single lookup where the family supports it), which the
//! trait contract makes equal to the scalar loop's `predict_with_target`
//! followed by `update`.
//!
//! `feed` accepts any chunk of replayed [`PackedRecord`]s — a slice of
//! a packed trace or the records of one `repro serve` `FEED` — and
//! chunk boundaries are *not observable*: feeding a trace in chunks of
//! 1, 63, 64, 65, or all at once produces bit-identical results (the
//! session property test drives every grammar spec through exactly
//! those splits). [`crate::measure_packed`] and
//! [`crate::measure_sliced`] open a session, feed the whole trace, and
//! finish; the streaming service feeds one chunk per `FEED`.
//!
//! `finish` consumes the session, records the engine drive in
//! [`crate::metrics`] (busy time is the sum of `feed` times, so
//! throughput accounting matches the one-shot paths), and returns the
//! final results.
//!
//! Sessions deliberately do **not** change what is measured — the
//! result store's `ENGINE_EPOCH` stays at 1 because every stored
//! result is reproduced bit-for-bit by the chunked paths.

use std::borrow::BorrowMut;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use bpred_core::index::{low_bits, pc_word, to_index};
use bpred_core::table::CounterTable;
use bpred_core::{Counter2, Predictor};
use bpred_trace::PackedRecord;

use crate::metrics::{self, Engine};
use crate::simulate::RunResult;
use crate::sites::SiteTally;
use crate::sliced::{LaneSpec, MAX_LANES};

/// Incremental form of the packed single-predictor engine.
///
/// Generic over predictor ownership: `B` may be `&mut P` (the one-shot
/// wrapper borrows the caller's predictor) or an owning handle like
/// `Box<dyn Predictor>` (a long-lived tenant session).
///
/// ```
/// use bpred_analysis::session::PackedSession;
/// use bpred_core::{Gshare, Predictor};
/// use bpred_trace::{BranchRecord, PackedTrace, Trace};
///
/// let mut t = Trace::new("s");
/// for i in 0..100u64 {
///     t.push(BranchRecord::conditional(0x40 + (i % 3) * 4, 0, i % 2 == 0));
/// }
/// let packed = PackedTrace::build(&t).unwrap();
/// let mut session =
///     PackedSession::<_, dyn Predictor>::new(Box::new(Gshare::new(6, 6)) as Box<dyn Predictor>);
/// for start in (0..packed.len()).step_by(7) {
///     let end = (start + 7).min(packed.len());
///     session.feed((start..end).map(|i| packed.record(i)));
/// }
/// let chunked = session.finish();
/// let whole = bpred_analysis::measure_packed(&packed, &mut Gshare::new(6, 6));
/// assert_eq!(chunked, whole);
/// ```
#[derive(Debug)]
pub struct PackedSession<B, P: ?Sized> {
    predictor: B,
    branches: u64,
    mispredictions: u64,
    tally: Option<SiteTally>,
    busy: Duration,
    _predictor: PhantomData<fn() -> *const P>,
}

impl<P, B> PackedSession<B, P>
where
    P: Predictor + ?Sized,
    B: BorrowMut<P>,
{
    /// Opens a session over a predictor in whatever state the caller
    /// wants to resume from (normally power-on fresh).
    pub fn new(predictor: B) -> Self {
        Self {
            predictor,
            branches: 0,
            mispredictions: 0,
            tally: None,
            busy: Duration::ZERO,
            _predictor: PhantomData,
        }
    }

    /// Turns on per-site misprediction attribution for every record
    /// fed from here on. Off by default — the aggregate hot path pays
    /// nothing for the feature when unused.
    pub fn track_sites(&mut self) {
        self.tally.get_or_insert_with(SiteTally::new);
    }

    /// The per-site tally accumulated so far, when [`Self::track_sites`]
    /// was called.
    #[must_use]
    pub fn site_tally(&self) -> Option<&SiteTally> {
        self.tally.as_ref()
    }

    /// Feeds one chunk of replayed records, in program order.
    pub fn feed<I>(&mut self, chunk: I)
    where
        I: IntoIterator<Item = PackedRecord>,
    {
        let started = Instant::now();
        let predictor = self.predictor.borrow_mut();
        for r in chunk {
            self.branches += 1;
            let miss = predictor.retire(r.pc, Some(r.target()), r.taken) != r.taken;
            self.mispredictions += u64::from(miss);
            if let Some(tally) = self.tally.as_mut() {
                tally.record(r.pc, miss);
            }
        }
        self.busy += started.elapsed();
    }

    /// Closes the session: records the engine drive (one lane, busy
    /// time summed over every `feed`) and returns the final result.
    #[must_use]
    pub fn finish(self) -> RunResult {
        metrics::record_engine_drive(Engine::Packed, self.branches, 1, self.busy);
        RunResult {
            branches: self.branches,
            mispredictions: self.mispredictions,
        }
    }
}

/// Incremental form of the sliced engine: the per-lane
/// [`CounterTable`]s, index masks, and mispredict tallies, plus the one
/// **shared unmasked history register** every lane reads through its
/// own mask — made explicit here so it survives chunk boundaries.
#[derive(Debug)]
pub struct SlicedSession {
    tables: Vec<CounterTable>,
    pc_masks: Vec<u64>,
    hist_masks: Vec<u64>,
    missed: Vec<u64>,
    shared: u64,
    branches: u64,
    busy: Duration,
}

impl SlicedSession {
    /// Opens a session over a lane group, every lane's table
    /// initialised weakly taken and the shared history register empty.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds [`MAX_LANES`] entries, or a lane has
    /// `history_bits > table_bits` or `table_bits > 30` — the same
    /// contract as [`crate::measure_sliced`].
    #[must_use]
    pub fn new(lanes: &[LaneSpec]) -> Self {
        assert!(
            lanes.len() <= MAX_LANES,
            "a sliced group holds at most {MAX_LANES} lanes, got {}",
            lanes.len()
        );
        for lane in lanes {
            assert!(
                lane.history_bits <= lane.table_bits,
                "history length {} exceeds index width {}",
                lane.history_bits,
                lane.table_bits
            );
        }
        Self {
            tables: lanes
                .iter()
                .map(|l| CounterTable::new(l.table_bits, Counter2::WEAKLY_TAKEN))
                .collect(),
            pc_masks: lanes
                .iter()
                .map(|l| low_bits(u64::MAX, l.table_bits))
                .collect(),
            hist_masks: lanes
                .iter()
                .map(|l| low_bits(u64::MAX, l.history_bits))
                .collect(),
            missed: vec![0; lanes.len()],
            shared: 0,
            branches: 0,
            busy: Duration::ZERO,
        }
    }

    /// Feeds one chunk of replayed records to every lane, in program
    /// order. The shared history register advances once per record and
    /// carries over to the next chunk unchanged.
    pub fn feed<I>(&mut self, chunk: I)
    where
        I: IntoIterator<Item = PackedRecord>,
    {
        let started = Instant::now();
        for r in chunk {
            let pcw = pc_word(r.pc);
            let taken = r.taken;
            for (((table, &pc_mask), &hist_mask), missed) in self
                .tables
                .iter_mut()
                .zip(&self.pc_masks)
                .zip(&self.hist_masks)
                .zip(&mut self.missed)
            {
                let index = to_index((pcw & pc_mask) ^ (self.shared & hist_mask));
                *missed += u64::from(table.retire(index, taken) != taken);
            }
            self.shared = (self.shared << 1) | u64::from(taken);
            self.branches += 1;
        }
        self.busy += started.elapsed();
    }

    /// Closes the session: records the engine drive (branches × lanes
    /// retired, busy time summed over every `feed`) and returns the
    /// final per-lane results in input order.
    #[must_use]
    pub fn finish(self) -> Vec<RunResult> {
        let lanes = self.tables.len() as u64;
        metrics::record_engine_drive(Engine::Sliced, self.branches * lanes, lanes, self.busy);
        self.missed
            .into_iter()
            .map(|mispredictions| RunResult {
                branches: self.branches,
                mispredictions,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::measure_packed;
    use crate::sliced::measure_sliced;
    use bpred_core::{Gshare, PredictorSpec};
    use bpred_trace::{BranchRecord, PackedTrace, Trace};

    fn lcg_packed(seed: u64, len: u64, sites: u64) -> PackedTrace {
        let mut t = Trace::new("session");
        let mut x = seed | 1;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x2000 + (x % sites) * 4;
            let target = if x.is_multiple_of(5) {
                pc - 0x80
            } else {
                pc + 0x80
            };
            t.push(BranchRecord::conditional(pc, target, (x >> 19) & 1 == 1));
        }
        PackedTrace::build(&t).expect("sites fit")
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
    fn packed_session_is_chunking_invariant() {
        let packed = lcg_packed(9, 3000, 23);
        let spec: PredictorSpec = "bimode:d=6".parse().expect("parses");
        let want = measure_packed(&packed, spec.build().as_mut());
        for chunk in [1usize, 63, 64, 65, 700] {
            let mut session = PackedSession::<_, dyn bpred_core::Predictor>::new(spec.build());
            feed_in_chunks(packed.len(), chunk, |s, e| {
                session.feed((s..e).map(|i| packed.record(i)));
            });
            assert_eq!(session.finish(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn sliced_session_history_survives_chunk_boundaries() {
        let packed = lcg_packed(13, 2000, 17);
        let lanes: Vec<LaneSpec> = (0..8u32)
            .map(|m| LaneSpec {
                table_bits: 8,
                history_bits: m,
            })
            .collect();
        let want = measure_sliced(&packed, &lanes);
        for chunk in [1usize, 63, 64, 65] {
            let mut session = SlicedSession::new(&lanes);
            feed_in_chunks(packed.len(), chunk, |s, e| {
                session.feed((s..e).map(|i| packed.record(i)));
            });
            // The shared register carries across chunks: an n-record
            // prefix leaves its low bits holding the last outcomes,
            // exactly like a per-predictor register would.
            assert_eq!(session.finish(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn sessions_record_engine_drives_on_finish() {
        let packed = lcg_packed(23, 600, 7);
        let lanes = [5, 0].map(|history_bits| LaneSpec {
            table_bits: 5,
            history_bits,
        });
        let before = metrics::engine_snapshot();
        let mut s = SlicedSession::new(&lanes);
        s.feed(packed.records());
        let _ = s.finish();
        let mut s = PackedSession::new(Gshare::new(5, 5));
        s.feed(packed.records());
        let _ = s.finish();
        let delta = metrics::engine_snapshot().since(&before);
        let sliced = delta.get(Engine::Sliced);
        assert!(sliced.branches >= 1200, "got {delta:?}");
        assert!(sliced.lanes >= 2, "got {delta:?}");
        let packed = delta.get(Engine::Packed);
        assert!(packed.branches >= 600, "got {delta:?}");
        assert!(packed.lanes >= 1, "got {delta:?}");
    }

    #[test]
    fn empty_sessions_finish_cleanly() {
        let session = SlicedSession::new(&[]);
        assert!(session.finish().is_empty());
        let mut session = PackedSession::new(Gshare::new(4, 4));
        session.feed(std::iter::empty());
        assert_eq!(session.finish(), RunResult::default());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn sliced_session_rejects_oversized_groups() {
        let lanes = vec![
            LaneSpec {
                table_bits: 4,
                history_bits: 0
            };
            MAX_LANES + 1
        ];
        let _ = SlicedSession::new(&lanes);
    }
}
