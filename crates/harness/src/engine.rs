//! The harness side of the packed execution engines: the one front
//! door through which every misprediction-rate measurement is planned,
//! served from the result store, and measured.
//!
//! Every sweep, search, ablation and scoreboard point is the same
//! measurement: one [`Rate`] — a configuration, bare or behind a
//! training wrapper — over one packed trace, stored under one key.
//! [`cached_rates`] plans each (point, trace) pair as a store job,
//! serves the hits, and measures the misses: plain gshare-family
//! points on the sliced engine ([`bpred_analysis::measure_sliced`]),
//! every other point in one boxed [`bpred_analysis::measure_batch`]
//! pass per trace, so each trace is streamed once for all of its
//! fallback points.
//!
//! Work accounting (branches simulated, configurations driven) is
//! recorded process-wide by the measurement loops themselves (see
//! [`bpred_analysis::metrics`]) and attributed to stages by
//! [`crate::observe::Observer`]; the engine carries no throughput
//! plumbing of its own.

use bpred_analysis::session::PackedSession;
use bpred_analysis::sliced::LaneSpec;
use bpred_analysis::SiteMisses;
use bpred_core::{DelayedUpdate, Flushed, Predictor, PredictorSpec};
use bpred_trace::PackedTrace;

use crate::parallel;
use crate::store::{self, JobSpec};

/// Per-site misprediction table of `spec` over one packed trace,
/// driven through a [`PackedSession`] with site tracking on. Sessions
/// do not observe chunk boundaries, so the rows equal those of the
/// streaming service's chunked feeds of the same records.
#[must_use]
pub fn site_miss_table(trace: &PackedTrace, spec: &PredictorSpec) -> Vec<SiteMisses> {
    let mut session = PackedSession::<_, dyn Predictor>::new(spec.build());
    session.track_sites();
    session.feed(trace.records());
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

/// One misprediction-rate measurement of a configuration over a trace.
#[derive(Debug, Clone)]
pub enum Rate {
    /// The configuration as specified, keyed by [`JobSpec::rate`].
    Plain(PredictorSpec),
    /// The configuration reset to power-on every `interval` branches
    /// ([`Flushed`]), keyed by [`JobSpec::flushed_rate`].
    Flushed(PredictorSpec, u64),
    /// The configuration trained `delay` branches late
    /// ([`DelayedUpdate`]), keyed by [`JobSpec::delayed_rate`].
    Delayed(PredictorSpec, usize),
}

impl Rate {
    /// The store identity of this measurement.
    fn job_spec(&self) -> JobSpec {
        match self {
            Rate::Plain(spec) => JobSpec::rate(spec),
            Rate::Flushed(spec, interval) => JobSpec::flushed_rate(spec, *interval),
            Rate::Delayed(spec, delay) => JobSpec::delayed_rate(spec, *delay as u64),
        }
    }

    /// The sliced-engine lane, for plain gshare-family points only.
    fn lane(&self) -> Option<LaneSpec> {
        match self {
            Rate::Plain(spec) => LaneSpec::of(spec),
            Rate::Flushed(..) | Rate::Delayed(..) => None,
        }
    }

    /// A power-on predictor whose plain drive is this measurement.
    fn build(&self) -> Box<dyn Predictor> {
        match self {
            Rate::Plain(spec) => spec.build(),
            Rate::Flushed(spec, interval) => Box::new(Flushed::new(spec.build(), *interval)),
            Rate::Delayed(spec, delay) => Box::new(DelayedUpdate::new(spec.build(), *delay)),
        }
    }
}

/// Measures every point over every trace through the result store:
/// the one rate front door. Returns `rates[point][trace]`,
/// bit-identical to an uncached run — hits replay stored
/// branch/misprediction counts through the same rate expression the
/// live path evaluates.
///
/// Each (point, trace) pair is one store job. The store is probed in
/// parallel over traces, and the missing points are split by
/// [`LaneSpec::of`]:
///
/// - **plain gshare-family** points (bimodal included) are packed into
///   [`bpred_analysis::MAX_LANES`]-wide lane groups for the sliced
///   engine, one pass per group;
/// - **every other** point — other families, flushed and delayed
///   measurements — goes into one boxed batch pass per trace.
///
/// Every (trace, group) pass is one work item sharded across threads
/// by [`parallel::map`] (bounded by `jobs`), so a grid of many points
/// parallelises even over a single trace. On a warm store no trace is
/// streamed.
#[must_use]
pub fn cached_rates(
    traces: &[&PackedTrace],
    jobs: Option<usize>,
    points: &[Rate],
) -> Vec<Vec<f64>> {
    let job_specs: Vec<JobSpec> = points.iter().map(Rate::job_spec).collect();
    let lanes: Vec<Option<LaneSpec>> = points.iter().map(Rate::lane).collect();

    // Probe the store for every point of every trace.
    let mut per_trace: Vec<Vec<Option<f64>>> = parallel::map(traces.to_vec(), jobs, |t| {
        let digest = t.digest();
        job_specs
            .iter()
            .map(|s| store::lookup_run(s.job(digest)).map(|r| r.misprediction_rate()))
            .collect()
    });

    // Group each trace's missing points into work items: lane groups
    // for the sliced engine, one batch for the rest.
    struct Item {
        trace: usize,
        indices: Vec<usize>,
        sliced: bool,
    }
    let mut items = Vec::new();
    for (trace, rates) in per_trace.iter().enumerate() {
        let missing = (0..points.len()).filter(|&i| rates[i].is_none());
        let (sliceable, fallback): (Vec<usize>, Vec<usize>) =
            missing.partition(|&i| lanes[i].is_some());
        for group in sliceable.chunks(bpred_analysis::MAX_LANES) {
            items.push(Item {
                trace,
                indices: group.to_vec(),
                sliced: true,
            });
        }
        if !fallback.is_empty() {
            items.push(Item {
                trace,
                indices: fallback,
                sliced: false,
            });
        }
    }
    let measured = parallel::map(items.iter().collect(), jobs, |item: &&Item| {
        let t = traces[item.trace];
        let results = if item.sliced {
            let group: Vec<LaneSpec> = item.indices.iter().filter_map(|&i| lanes[i]).collect();
            bpred_analysis::measure_sliced(t, &group)
        } else {
            let mut batch: Vec<Box<dyn Predictor>> =
                item.indices.iter().map(|&i| points[i].build()).collect();
            bpred_analysis::measure_batch(t, &mut batch)
        };
        for (&i, r) in item.indices.iter().zip(&results) {
            store::insert_run(job_specs[i].job(t.digest()), r);
        }
        results
    });

    // Merge the measured points into the probed grid and transpose.
    for (item, results) in items.iter().zip(measured) {
        for (&i, r) in item.indices.iter().zip(&results) {
            per_trace[item.trace][i] = Some(r.misprediction_rate());
        }
    }
    let mut rates = vec![Vec::with_capacity(traces.len()); points.len()];
    for trace_rates in per_trace {
        for (point, rate) in trace_rates.into_iter().enumerate() {
            rates[point].push(rate.expect("every point is either a hit or freshly measured"));
            // panic-audited: the work items measured exactly the points the probe missed
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_analysis::metrics::{engine_snapshot, Engine};
    use bpred_analysis::{measure, measure_with_flushes};
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

    fn spec(text: &str) -> PredictorSpec {
        text.parse().unwrap()
    }

    /// The independent reference for one point over a source trace: the
    /// two-call scalar loops, one fresh predictor per (point, trace).
    fn reference(t: &Trace, point: &Rate) -> f64 {
        let r = match point {
            Rate::Plain(s) => measure(t, s.build().as_mut()),
            Rate::Flushed(s, interval) => measure_with_flushes(t, s.build().as_mut(), *interval),
            Rate::Delayed(s, delay) => measure(t, &mut DelayedUpdate::new(s.build(), *delay)),
        };
        r.misprediction_rate()
    }

    #[test]
    fn average_handles_empty_and_values() {
        assert_eq!(average(&[]), 0.0);
        assert!((average(&[0.1, 0.3]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cached_rates_match_the_reference_and_hit_on_rerun() {
        // Traces no other test shares, seeded by the process id.
        let pid = u64::from(std::process::id());
        let (a, b) = (trace(0xC0FFEE ^ pid, 6000), trace(0xD00D ^ pid, 2000));
        let packed = [
            PackedTrace::build(&a).unwrap(),
            PackedTrace::build(&b).unwrap(),
        ];
        let traces: Vec<&PackedTrace> = packed.iter().collect();
        let points = [
            Rate::Plain(spec("gshare:s=7,h=7")),
            Rate::Flushed(spec("bimode:d=6"), 1),
            Rate::Plain(spec("bimode:d=6")),
            Rate::Delayed(spec("gshare:s=7,h=7"), 0),
            Rate::Plain(spec("bimodal:s=7")),
            Rate::Flushed(spec("gshare:s=7,h=3"), 997),
            Rate::Plain(spec("always-taken")),
            Rate::Delayed(spec("bimode:d=6"), 3),
            Rate::Flushed(spec("gshare:s=7,h=7"), 6000),
            Rate::Plain(spec("gshare:s=7,h=3")),
            Rate::Plain(spec("tage:t=2,h=12,tag=4,e=5")),
        ];
        let want: Vec<Vec<f64>> = points
            .iter()
            .map(|p| [&a, &b].iter().map(|t| reference(t, p)).collect())
            .collect();
        assert_eq!(cached_rates(&traces, Some(2), &points), want);
        // Engine counters are process-wide and other tests drive engines
        // concurrently, so retry until one warm call is observed alone:
        // a call that measures anything can never read zero lanes.
        let quiet = (0..1000).any(|_| {
            let before = engine_snapshot();
            assert_eq!(cached_rates(&traces, Some(2), &points), want);
            let delta = engine_snapshot().since(&before);
            Engine::ALL.iter().all(|&e| delta.get(e).lanes == 0)
        });
        assert!(quiet, "a warm call must retire no engine lanes");
    }

    #[test]
    fn spec_rates_match_the_scalar_reference_bit_for_bit() {
        // A gshare-family grid plus explicit-fallback specs in one
        // call: the sliced and batch paths land in the same grid and
        // must equal per-spec reference runs exactly.
        let t = trace(0xBEEF ^ u64::from(std::process::id()), 5000);
        let p = PackedTrace::build(&t).unwrap();
        let points: Vec<Rate> = [
            "gshare:s=8,h=8",
            "gshare:s=8,h=3",
            "bimodal:s=7",
            "bimode:d=6",
            "always-taken",
        ]
        .into_iter()
        .map(|s| Rate::Plain(spec(s)))
        .collect();
        let want: Vec<Vec<f64>> = points.iter().map(|p| vec![reference(&t, p)]).collect();
        assert_eq!(
            cached_rates(&[&p], Some(2), &points),
            want,
            "sliced dispatch must be bit-identical"
        );
    }

    #[test]
    fn spec_rates_use_the_sliced_engine_and_share_store_keys() {
        let t = trace(0xACE5 ^ u64::from(std::process::id()), 4000);
        let p = PackedTrace::build(&t).unwrap();
        let specs: Vec<PredictorSpec> = (0..=6u32)
            .map(|m| PredictorSpec::Gshare {
                table_bits: 6,
                history_bits: m,
            })
            .collect();
        let points: Vec<Rate> = specs.iter().cloned().map(Rate::Plain).collect();
        let before = engine_snapshot();
        let rates = cached_rates(&[&p], Some(2), &points);
        let delta = engine_snapshot().since(&before);
        assert!(
            delta.get(Engine::Sliced).lanes >= 7,
            "gshare grid must ride the sliced engine: {delta:?}"
        );
        // Sliced results land under the plain rate keys every other
        // engine and the streaming service read.
        for (s, rate) in specs.iter().zip(&rates) {
            let stored = store::lookup_run(JobSpec::rate(s).job(p.digest()));
            assert_eq!(stored.map(|r| r.misprediction_rate()), Some(rate[0]), "{s}");
        }
    }

    #[test]
    fn rates_handle_empty_inputs() {
        let rates = cached_rates(&[], Some(1), &[Rate::Plain(spec("bimodal:s=4"))]);
        assert_eq!(rates, [Vec::<f64>::new()]);
        let t = trace(11, 200);
        let p = PackedTrace::build(&t).unwrap();
        assert!(cached_rates(&[&p], Some(1), &[]).is_empty());
    }
}
