//! The harness side of the packed execution engines: fan predictor
//! configurations over packed traces, parallelising over traces, with
//! every (configuration, trace) point planned as a result-store job.
//!
//! The sweeps and ablations all reduce to the same shape: N
//! configurations measured over T traces. [`cached_spec_rates`] drives
//! grammar-spec grids through the bit-sliced engine where it can and
//! the batch engine otherwise; [`cached_batch_rates`] fuses a
//! monomorphised predictor grid into one
//! [`bpred_analysis::measure_batch`] pass per trace, so each trace is
//! streamed once and its cache-resident blocks are reused across all N
//! configurations.
//!
//! Work accounting (branches simulated, configurations driven) is
//! recorded process-wide by the measurement loops themselves (see
//! [`bpred_analysis::metrics`]) and attributed to stages by
//! [`crate::observe::Observer`]; the engine carries no throughput
//! plumbing of its own.

use bpred_analysis::session::{BatchSession, PackedSession, SlicedSession};
use bpred_analysis::sliced::LaneSpec;
use bpred_analysis::SiteMisses;
use bpred_core::{Predictor, PredictorSpec};
use bpred_trace::{PackedTrace, SEAL_RECORDS};

use crate::parallel;
use crate::store::{self, JobSpec};

/// Records fed per session chunk on the sweep path: one sealed block
/// of a chunk-built [`PackedTrace`], so the sweep engine exercises the
/// exact chunk geometry the streaming service replays and the
/// bit-identity property tests pin.
pub const SESSION_CHUNK: usize = SEAL_RECORDS;

/// Feeds `len` records to a session in [`SESSION_CHUNK`]-sized ranges.
fn feed_chunked<F: FnMut(std::ops::Range<usize>)>(len: usize, mut feed: F) {
    let mut start = 0;
    while start < len {
        let end = (start + SESSION_CHUNK).min(len);
        feed(start..end);
        start = end;
    }
}

/// Per-site misprediction table of `spec` over one packed trace,
/// driven through a chunk-fed [`PackedSession`] with site tracking on
/// — the same session geometry the sweep and streaming paths use, so
/// the rows are reproducible from any chunking of the same records.
#[must_use]
pub fn site_miss_table(trace: &PackedTrace, spec: &PredictorSpec) -> Vec<SiteMisses> {
    let mut session = PackedSession::<_, dyn Predictor>::new(spec.build());
    session.track_sites();
    feed_chunked(trace.len(), |range| {
        session.feed(range.map(|i| trace.record(i)));
    });
    let rows = session
        .site_tally()
        .map(bpred_analysis::SiteTally::rows)
        .unwrap_or_default();
    let _ = session.finish();
    rows
}

/// The average of one configuration's per-trace rates (0 for none).
#[must_use]
pub fn average(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        0.0
    } else {
        rates.iter().sum::<f64>() / rates.len() as f64
    }
}

/// Drives a predictor grid over every packed trace in a single batched
/// pass each — traces in parallel (bounded by `jobs`), configurations
/// batched within each pass. Plans one [`crate::store::Job`] per
/// (configuration, trace) point, serves hits from the result store,
/// and fans only the cache-missing configurations of each trace into
/// the pass. Returns `rates[config][trace]`, bit-identical to an
/// uncached run — hits replay stored branch/misprediction counts
/// through the same rate expression the live path evaluates.
///
/// `specs[i]` is the store identity of configuration `i`; `build`
/// receives the *indices* of the configurations that missed for the
/// trace at hand (in ascending order) and must return exactly those
/// predictors, power-on fresh, in that order. On a warm store `build`
/// is never called and the traces are never streamed. Homogeneous
/// builders (`Vec<BiMode>`) get a fully monomorphised measurement loop.
pub fn cached_batch_rates<P, F>(
    traces: &[&PackedTrace],
    jobs: Option<usize>,
    specs: &[JobSpec],
    build: F,
) -> Vec<Vec<f64>>
where
    P: Predictor,
    F: Fn(&[usize]) -> Vec<P> + Sync,
{
    let per_trace: Vec<Vec<f64>> = parallel::map(traces.to_vec(), jobs, |t| {
        let digest = t.digest();
        let mut trace_rates: Vec<Option<f64>> = specs
            .iter()
            .map(|s| store::lookup_run(s.job(digest)).map(|r| r.misprediction_rate()))
            .collect();
        let missing: Vec<usize> = trace_rates
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| i)
            .collect();
        if !missing.is_empty() {
            let mut batch = build(&missing);
            debug_assert_eq!(
                batch.len(),
                missing.len(),
                "builder must produce exactly the missing configurations"
            );
            let results = bpred_analysis::measure_batch(t, &mut batch);
            for (&i, r) in missing.iter().zip(&results) {
                store::insert_run(specs[i].job(digest), r);
                trace_rates[i] = Some(r.misprediction_rate());
            }
        }
        trace_rates
            .into_iter()
            .map(|r| r.expect("every configuration is either a hit or freshly measured")) // panic-audited: the missing set is exactly the None slots, all filled above
            .collect()
    });
    let mut rates = vec![Vec::with_capacity(traces.len()); specs.len()];
    for trace_rates in &per_trace {
        for (config, rate) in trace_rates.iter().enumerate() {
            rates[config].push(*rate);
        }
    }
    rates
}

/// Spec-aware, store-aware engine dispatch: the sweep front door.
///
/// Plans one store job per (configuration, trace) point — the *same*
/// `Kind::Rate` keys the scalar and batch paths use, so warm caches
/// from either engine serve this one and vice versa (results are
/// proven bit-identical by `bpred-check`, which is what keeps a shared
/// key space sound). Missing points are partitioned by
/// [`LaneSpec::of`]:
///
/// - **Sliceable** specs (the gshare family, bimodal included) are
///   packed into [`bpred_analysis::MAX_LANES`]-wide lane groups and
///   driven by the bit-sliced engine, one pass per group.
/// - Everything else **falls back explicitly** to the batch engine in
///   one mixed `Box<dyn Predictor>` pass per trace.
///
/// Every (trace, lane-group) pass is one independent work item
/// sharded across threads by the lock-free [`parallel::map`] — so a
/// sweep over many configurations parallelises even over a single
/// trace. Returns `rates[config][trace]`.
#[must_use]
pub fn cached_spec_rates(
    traces: &[&PackedTrace],
    jobs: Option<usize>,
    specs: &[PredictorSpec],
) -> Vec<Vec<f64>> {
    let job_specs: Vec<JobSpec> = specs.iter().map(JobSpec::rate).collect();
    let lanes: Vec<Option<LaneSpec>> = specs.iter().map(LaneSpec::of).collect();

    // Phase A: probe the store for every point, in parallel over
    // traces; collect the missing config indices per trace, split by
    // engine eligibility.
    struct Probe {
        rates: Vec<Option<f64>>,
        sliceable: Vec<usize>,
        fallback: Vec<usize>,
    }
    let probes: Vec<Probe> = parallel::map(traces.to_vec(), jobs, |t| {
        let digest = t.digest();
        let rates: Vec<Option<f64>> = job_specs
            .iter()
            .map(|s| store::lookup_run(s.job(digest)).map(|r| r.misprediction_rate()))
            .collect();
        let mut sliceable = Vec::new();
        let mut fallback = Vec::new();
        for (i, rate) in rates.iter().enumerate() {
            if rate.is_none() {
                if lanes[i].is_some() {
                    sliceable.push(i);
                } else {
                    fallback.push(i);
                }
            }
        }
        Probe {
            rates,
            sliceable,
            fallback,
        }
    });

    // Phase B: flatten the missing points into (trace, group) work
    // items — lane groups for the sliced engine, one mixed batch per
    // trace for the fallbacks — and measure them in parallel.
    struct Item {
        trace: usize,
        indices: Vec<usize>,
        sliced: bool,
    }
    let mut items = Vec::new();
    for (trace, probe) in probes.iter().enumerate() {
        for group in probe.sliceable.chunks(bpred_analysis::MAX_LANES) {
            items.push(Item {
                trace,
                indices: group.to_vec(),
                sliced: true,
            });
        }
        if !probe.fallback.is_empty() {
            items.push(Item {
                trace,
                indices: probe.fallback.clone(),
                sliced: false,
            });
        }
    }
    let measured: Vec<(usize, Vec<(usize, f64)>)> = parallel::map(items, jobs, |item| {
        let t = traces[item.trace];
        let digest = t.digest();
        // Both engines run as chunked sessions fed one sealed block at
        // a time — the same incremental path the streaming service
        // drives, bit-identical to the one-shot wrappers by the session
        // equivalence property tests.
        let results = if item.sliced {
            let group: Vec<LaneSpec> = item
                .indices
                .iter()
                .map(|&i| lanes[i].expect("sliceable items hold classified configs")) // panic-audited: phase A put only LaneSpec-classified indices in sliceable groups
                .collect();
            let mut session = SlicedSession::new(&group);
            feed_chunked(t.len(), |range| session.feed(range.map(|i| t.record(i))));
            session.finish()
        } else {
            let batch: Vec<Box<dyn Predictor>> =
                item.indices.iter().map(|&i| specs[i].build()).collect();
            let mut session = BatchSession::new(batch);
            feed_chunked(t.len(), |range| session.feed(range.map(|i| t.record(i))));
            session.finish()
        };
        let rates = item
            .indices
            .iter()
            .zip(&results)
            .map(|(&i, r)| {
                store::insert_run(job_specs[i].job(digest), r);
                (i, r.misprediction_rate())
            })
            .collect();
        (item.trace, rates)
    });

    // Phase C: merge measured points into the probed grid and
    // transpose to rates[config][trace].
    let mut per_trace: Vec<Vec<Option<f64>>> = probes.into_iter().map(|p| p.rates).collect();
    for (trace, results) in measured {
        for (config, rate) in results {
            per_trace[trace][config] = Some(rate);
        }
    }
    let mut rates = vec![Vec::with_capacity(traces.len()); specs.len()];
    for trace_rates in &per_trace {
        for (config, rate) in trace_rates.iter().enumerate() {
            rates[config]
                .push(rate.expect("every configuration is either a hit or freshly measured"));
            // panic-audited: phase B measured exactly the None slots phase A collected
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Trace};

    fn trace(seed: u64, len: u64) -> Trace {
        let mut t = Trace::new("t");
        let mut x = seed | 1;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.push(BranchRecord::conditional(
                0x1000 + (x % 40) * 4,
                0,
                (x >> 21) & 1 == 0,
            ));
        }
        t
    }

    fn parse(specs: &[&str]) -> Vec<PredictorSpec> {
        specs.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// `rates[config][trace]` of the two-call reference loop over the
    /// source traces, one fresh predictor per (spec, trace).
    fn reference_rates(traces: &[&Trace], specs: &[PredictorSpec]) -> Vec<Vec<f64>> {
        specs
            .iter()
            .map(|s| {
                traces
                    .iter()
                    .map(|t| bpred_analysis::measure(t, s.build().as_mut()).misprediction_rate())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn average_handles_empty_and_values() {
        assert_eq!(average(&[]), 0.0);
        assert!((average(&[0.1, 0.3]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cached_rates_match_the_reference_and_hit_on_rerun() {
        // Traces no other test shares, so first-run miss accounting
        // and second-run hits are attributable to this test alone.
        let pid = u64::from(std::process::id());
        let (a, b) = (trace(0xC0FFEE ^ pid, 6000), trace(0xD00D ^ pid, 2000));
        let packed = [
            PackedTrace::build(&a).unwrap(),
            PackedTrace::build(&b).unwrap(),
        ];
        let traces: Vec<&PackedTrace> = packed.iter().collect();
        let specs = parse(&["gshare:s=7,h=7", "gshare:s=7,h=3", "bimode:d=6"]);
        let job_specs: Vec<JobSpec> = specs.iter().map(JobSpec::rate).collect();
        let build = |idx: &[usize]| -> Vec<Box<dyn Predictor>> {
            idx.iter().map(|&i| specs[i].build()).collect()
        };
        let want = reference_rates(&[&a, &b], &specs);
        let first = cached_batch_rates(&traces, Some(2), &job_specs, build);
        assert_eq!(first, want, "cached path must be bit-identical");
        let before = store::counters();
        let second = cached_batch_rates(
            &traces,
            Some(2),
            &job_specs,
            |_: &[usize]| -> Vec<Box<dyn Predictor>> { panic!("warm store must not rebuild") },
        );
        assert_eq!(second, want);
        let delta = store::counters().since(&before);
        assert!(delta.hits >= 6, "every point must hit: {delta:?}");
    }

    #[test]
    fn spec_rates_match_the_scalar_reference_bit_for_bit() {
        // A gshare-family grid plus explicit-fallback specs in one
        // call: the sliced and batch paths land in the same grid and
        // must equal per-spec reference runs exactly.
        let t = trace(0xBEEF ^ u64::from(std::process::id()), 5000);
        let p = PackedTrace::build(&t).unwrap();
        let specs = parse(&[
            "gshare:s=8,h=8",
            "gshare:s=8,h=3",
            "bimodal:s=7",
            "bimode:d=6",
            "always-taken",
        ]);
        let got = cached_spec_rates(&[&p], Some(2), &specs);
        assert_eq!(
            got,
            reference_rates(&[&t], &specs),
            "sliced dispatch must be bit-identical"
        );
    }

    #[test]
    fn spec_rates_use_the_sliced_engine_and_share_store_keys() {
        use bpred_analysis::metrics::{engine_snapshot, Engine};
        let t = trace(0xACE5 ^ u64::from(std::process::id()), 4000);
        let p = PackedTrace::build(&t).unwrap();
        let specs: Vec<PredictorSpec> = (0..=6u32)
            .map(|m| PredictorSpec::Gshare {
                table_bits: 6,
                history_bits: m,
            })
            .collect();
        let before = engine_snapshot();
        let first = cached_spec_rates(&[&p], Some(2), &specs);
        let delta = engine_snapshot().since(&before);
        assert!(
            delta.get(Engine::Sliced).lanes >= 7,
            "gshare grid must ride the sliced engine: {delta:?}"
        );
        // The same points must now be warm for the batch-keyed path.
        let job_specs: Vec<JobSpec> = specs.iter().map(JobSpec::rate).collect();
        let store_before = store::counters();
        let second = cached_batch_rates(
            &[&p],
            Some(1),
            &job_specs,
            |_: &[usize]| -> Vec<Box<dyn Predictor>> { panic!("warm store must not rebuild") },
        );
        assert_eq!(second, first);
        let hits = store::counters().since(&store_before).hits;
        assert!(hits >= 7, "sliced results must serve batch keys: {hits}");
    }

    #[test]
    fn rates_handle_empty_inputs() {
        let rates = cached_spec_rates(&[], Some(1), &["bimodal:s=4".parse().unwrap()]);
        assert_eq!(rates, [Vec::<f64>::new()]);
        // No traces, no batch construction.
        let job_specs = [JobSpec::rate(&"bimodal:s=4".parse().unwrap())];
        let rates = cached_batch_rates::<Box<dyn Predictor>, _>(&[], None, &job_specs, |_| {
            unreachable!("no traces, no batch construction")
        });
        assert_eq!(rates, [Vec::<f64>::new()]);
        let t = trace(11, 200);
        let p = PackedTrace::build(&t).unwrap();
        assert!(cached_spec_rates(&[&p], Some(1), &[]).is_empty());
    }
}
