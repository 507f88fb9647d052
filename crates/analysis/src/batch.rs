//! Batched single-pass measurement over packed traces: the execution
//! engine behind the harness's fallback batches (every rate point the
//! sliced engine cannot run, wrapped measurements included).
//!
//! The scalar [`measure`](crate::simulate::measure) loop walks the full
//! trace once per predictor configuration; an N-configuration sweep
//! therefore streams the trace N times. [`measure_batch`] instead
//! drives *all* configurations over a single pass of one
//! [`PackedTrace`]: records are the outer loop, predictors the inner,
//! so each record is decoded from the packed columns once and retired
//! by every predictor before the next.
//!
//! Results are bit-identical to running the scalar loop per
//! configuration (property-tested in `tests/packed_engine.rs`): the
//! schedule never reorders the per-predictor view of the stream, and
//! [`PackedRecord`](bpred_trace::PackedRecord) replays exactly the
//! (pc, backwardness, outcome) information the scalar loop feeds each
//! predictor.

use bpred_core::Predictor;
use bpred_trace::PackedTrace;

use crate::session::{BatchSession, PackedSession};
use crate::simulate::RunResult;

/// Drives `predictor` over a packed trace in program order, one
/// [`Predictor::retire`] per branch, with the same results as the
/// scalar [`measure`](crate::simulate::measure)'s predict-then-update
/// loop over the source trace.
///
/// Thin wrapper over [`PackedSession`]: open, feed the whole trace,
/// finish.
pub fn measure_packed<P: Predictor + ?Sized>(packed: &PackedTrace, predictor: &mut P) -> RunResult {
    let mut session = PackedSession::<_, P>::new(predictor);
    session.feed(packed.records());
    session.finish()
}

/// Drives every predictor in `predictors` over `packed` in one pass,
/// returning one [`RunResult`] per predictor in input order.
///
/// Each predictor sees the identical program-order stream the scalar
/// loop would feed it; predictors are assumed to start in the state the
/// caller wants measured (normally power-on fresh).
///
/// Loop nesting is records outer, predictors inner: each record is
/// decoded from the bit-packed columns exactly once (not once per
/// predictor), and because the N predictors' retire chains are
/// mutually independent, the inner loop gives the core N overlapping
/// dependency chains instead of the scalar loop's single serial one.
/// (Further tiling the predictor axis to keep a few tables L1-resident
/// was measured slower here: the wide interleave's extra independent
/// chains beat the locality win while the tables fit outer cache
/// levels anyway.) Homogeneous batches (`&mut [Gshare]`,
/// `&mut [BiMode]`, …) monomorphise the inner loop with no virtual
/// dispatch; mixed batches work through `Box<dyn Predictor>`.
///
/// Thin wrapper over [`BatchSession`]: open, feed the whole trace,
/// finish.
pub fn measure_batch<P: Predictor>(packed: &PackedTrace, predictors: &mut [P]) -> Vec<RunResult> {
    let mut session = BatchSession::new(predictors);
    session.feed(packed.records());
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{measure, measure_with_flushes};
    use bpred_core::{BiMode, BiModeConfig, Bimodal, Flushed, Gshare, PredictorSpec};
    use bpred_trace::{BranchRecord, Trace};

    fn mixed_trace(len: u64) -> Trace {
        let mut t = Trace::new("mixed");
        let mut x = 7u64;
        for i in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x4000 + (x % 37) * 4;
            let target = if x.is_multiple_of(3) {
                pc - 0x100
            } else {
                pc + 0x100
            };
            t.push(BranchRecord::conditional(pc, target, (x >> 20) & 1 == 1));
            if i % 11 == 0 {
                t.push(BranchRecord::unconditional(pc + 4, 0x4000));
            }
        }
        t
    }

    #[test]
    fn packed_measure_matches_scalar() {
        let t = mixed_trace(5000);
        let packed = PackedTrace::build(&t).unwrap();
        for spec in [
            "always-taken",
            "btfnt",
            "bimodal:s=6",
            "gshare:s=8,h=8",
            "bimode:d=7",
        ] {
            let spec: PredictorSpec = spec.parse().unwrap();
            let scalar = measure(&t, &mut spec.build());
            let fast = measure_packed(&packed, &mut spec.build());
            assert_eq!(scalar, fast, "spec {spec}");
        }
    }

    #[test]
    fn batch_matches_per_config_scalar_runs() {
        let t = mixed_trace(9000);
        let packed = PackedTrace::build(&t).unwrap();
        let specs = [
            "bimodal:s=6",
            "gshare:s=8,h=8",
            "gshare:s=8,h=2",
            "bimode:d=6",
            "btfnt",
        ];
        let mut batch: Vec<Box<dyn bpred_core::Predictor>> = specs
            .iter()
            .map(|s| s.parse::<PredictorSpec>().unwrap().build())
            .collect();
        let results = measure_batch(&packed, &mut batch);
        for (spec, got) in specs.iter().zip(&results) {
            let want = measure(&t, &mut spec.parse::<PredictorSpec>().unwrap().build());
            assert_eq!(want, *got, "spec {spec}");
        }
    }

    #[test]
    fn batch_handles_empty_inputs() {
        let packed = PackedTrace::build(&Trace::new("empty")).unwrap();
        let mut ps = [Gshare::new(6, 6), Gshare::new(6, 2)];
        let results = measure_batch(&packed, &mut ps);
        assert_eq!(results, [RunResult::default(), RunResult::default()]);

        let packed = PackedTrace::build(&mixed_trace(100)).unwrap();
        let results = measure_batch::<Bimodal>(&packed, &mut []);
        assert!(results.is_empty());
    }

    #[test]
    fn block_boundary_exactness() {
        // Lengths one under, at and one over a 4096-record sealed block
        // of the packed columns.
        for len in [4095u64, 4096, 4097] {
            let t: Trace = (0..len)
                .map(|i| BranchRecord::conditional(0x1000 + (i % 5) * 4, 0, i % 7 < 3))
                .collect();
            let packed = PackedTrace::build(&t).unwrap();
            let mut batch = [Gshare::new(7, 7)];
            let got = measure_batch(&packed, &mut batch);
            let want = measure(&t, &mut Gshare::new(7, 7));
            assert_eq!(got, [want], "len {len}");
        }
    }

    #[test]
    fn packed_flushes_match_scalar_flushes() {
        let t = mixed_trace(3000);
        let packed = PackedTrace::build(&t).unwrap();
        for interval in [1u64, 10, 997] {
            let want = measure_with_flushes(
                &t,
                &mut BiMode::new(BiModeConfig::paper_default(7)),
                interval,
            );
            let got = measure_packed(
                &packed,
                &mut Flushed::new(BiMode::new(BiModeConfig::paper_default(7)), interval),
            );
            assert_eq!(want, got, "interval {interval}");
        }
    }
}
