//! The harness side of the packed execution engines: the one front
//! door through which every misprediction-rate measurement is planned,
//! served from the result store, and measured.
//!
//! Every sweep, search, ablation and scoreboard point is the same
//! measurement: one [`Rate`] — a configuration, bare or behind a
//! training wrapper — over one packed trace, stored under one key.
//! [`cached_rates`] plans each (point, trace) pair as a store job,
//! serves the hits, and measures the misses: plain gshare-family and
//! shared-index bi-mode points in byte-balanced lane groups on the lane
//! engine ([`bpred_analysis::measure_sliced`]), every other point in
//! one boxed [`bpred_analysis::measure_batch`] pass per trace, so each
//! trace is streamed once for all of its fallback points. The work
//! items run longest first.
//!
//! Work accounting (branches simulated, configurations driven) is
//! recorded process-wide by the measurement loops themselves (see
//! [`bpred_analysis::metrics`]) and attributed to stages by
//! [`crate::observe::Observer`]; the engine carries no throughput
//! plumbing of its own.

use bpred_analysis::session::PackedSession;
use bpred_analysis::sliced::Lane;
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

    /// The lane-engine lane, for plain lane points only.
    fn lane(&self) -> Option<Lane> {
        match self {
            Rate::Plain(spec) => Lane::of(spec),
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
/// parallel over traces, and each trace's missing points are split by
/// [`Lane::of`]:
///
/// - **plain lane points** (the gshare family, bimodal included, and
///   shared-index bi-mode) are dealt into lane groups for the lane
///   engine, one pass per group: each kind separately, `⌈n/16⌉` groups
///   of its `n` lanes, largest table first, each lane to the group
///   holding the fewest table bytes so far (at most
///   [`bpred_analysis::MAX_LANES`] lanes each), so concurrent groups
///   hold about equal memory;
/// - **every other** point — other families, flushed and delayed
///   measurements — goes into one boxed batch pass per trace.
///
/// Every (trace, group) pass is one work item sharded across threads
/// by [`parallel::map`] (bounded by `jobs`), longest first by its
/// estimated cost: records × lanes × a per-lane cost of 1 for a gshare
/// lane, 2 for a bi-mode lane and 8 for a batch predictor, so the
/// largest groups never start last. A grid of many points parallelises
/// even over a single trace. On a warm store no trace is streamed.
#[must_use]
pub fn cached_rates(
    traces: &[&PackedTrace],
    jobs: Option<usize>,
    points: &[Rate],
) -> Vec<Vec<f64>> {
    let job_specs: Vec<JobSpec> = points.iter().map(Rate::job_spec).collect();
    let lanes: Vec<Option<Lane>> = points.iter().map(Rate::lane).collect();

    // Probe the store for every point of every trace.
    let mut per_trace: Vec<Vec<Option<f64>>> = parallel::map(traces.to_vec(), jobs, |t| {
        let digest = t.digest();
        job_specs
            .iter()
            .map(|s| store::lookup_run(s.job(digest)).map(|r| r.misprediction_rate()))
            .collect()
    });

    // Plan each trace's missing points into work items: lane groups
    // per kind for the lane engine, one batch for the rest.
    let mut items = Vec::new();
    for (trace, rates) in per_trace.iter().enumerate() {
        let missing: Vec<usize> = (0..points.len()).filter(|&i| rates[i].is_none()).collect();
        for kind in [Kind::Gshare, Kind::BiMode] {
            let of_kind: Vec<(usize, Lane)> = missing
                .iter()
                .filter_map(|&i| lanes[i].map(|lane| (i, lane)))
                .filter(|&(_, lane)| Kind::of(lane) == kind)
                .collect();
            for indices in balanced_groups(&of_kind) {
                items.push(Item {
                    trace,
                    indices,
                    kind,
                });
            }
        }
        let fallback: Vec<usize> = missing
            .into_iter()
            .filter(|&i| lanes[i].is_none())
            .collect();
        if !fallback.is_empty() {
            items.push(Item {
                trace,
                indices: fallback,
                kind: Kind::Batch,
            });
        }
    }
    // Longest first; the sort is stable, so equal costs keep plan order.
    items.sort_by_key(|item| std::cmp::Reverse(item.cost(traces)));

    let measured = parallel::map(items.iter().collect(), jobs, |item: &&Item| {
        let t = traces[item.trace];
        let results = if item.kind == Kind::Batch {
            let mut batch: Vec<Box<dyn Predictor>> =
                item.indices.iter().map(|&i| points[i].build()).collect();
            bpred_analysis::measure_batch(t, &mut batch)
        } else {
            let group: Vec<Lane> = item.indices.iter().filter_map(|&i| lanes[i]).collect();
            bpred_analysis::measure_sliced(t, &group)
        };
        for (&i, r) in item.indices.iter().zip(&results) {
            store::insert_run(job_specs[i].job(t.digest()), r);
        }
        results
    });

    // Merge the measured points into the probed grid by their point
    // indices, and transpose.
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

/// Lanes per group the planner aims for: a kind's `n` lanes on one
/// trace are dealt into `⌈n / GROUP_LANES⌉` groups.
const GROUP_LANES: usize = 16;

/// The engine a work item runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A group of gshare-family lanes.
    Gshare,
    /// A group of shared-index bi-mode lanes.
    BiMode,
    /// One boxed batch pass.
    Batch,
}

impl Kind {
    fn of(lane: Lane) -> Kind {
        match lane {
            Lane::Gshare(_) => Kind::Gshare,
            Lane::BiMode(_) => Kind::BiMode,
        }
    }

    /// The relative cost of retiring one branch on one lane, from the
    /// engines' per-lane throughputs: gshare lanes run about twice as
    /// fast as bi-mode lanes and eight times as fast as boxed batch
    /// predictors.
    fn lane_cost(self) -> u64 {
        match self {
            Kind::Gshare => 1,
            Kind::BiMode => 2,
            Kind::Batch => 8,
        }
    }
}

/// One planned pass: some of one trace's points, on one engine.
struct Item {
    trace: usize,
    indices: Vec<usize>,
    kind: Kind,
}

impl Item {
    /// Estimated cost: records × lanes × the kind's per-lane cost.
    fn cost(&self, traces: &[&PackedTrace]) -> u64 {
        traces[self.trace].len() as u64 * self.indices.len() as u64 * self.kind.lane_cost()
    }
}

/// Deals `lanes` (point index, lane) into `⌈n / GROUP_LANES⌉` groups of
/// point indices: largest table first, each to the group holding the
/// fewest table bytes so far among those with room, so the groups hold
/// about equal bytes.
fn balanced_groups(lanes: &[(usize, Lane)]) -> Vec<Vec<usize>> {
    let mut by_size = lanes.to_vec();
    by_size.sort_by_key(|&(_, lane)| std::cmp::Reverse(lane.table_bytes()));
    let mut groups: Vec<(u64, Vec<usize>)> =
        vec![(0, Vec::new()); lanes.len().div_ceil(GROUP_LANES)];
    for (i, lane) in by_size {
        if let Some(group) = groups
            .iter_mut()
            .filter(|(_, indices)| indices.len() < bpred_analysis::MAX_LANES)
            .min_by_key(|(bytes, _)| *bytes)
        {
            group.0 += lane.table_bytes();
            group.1.push(i);
        }
    }
    groups.into_iter().map(|(_, indices)| indices).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_analysis::metrics::{engine_snapshot, Engine};
    use bpred_analysis::LaneSpec;
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
    fn bimode_ablation_shapes_ride_lanes_and_skewed_falls_back() {
        // The ablations' bi-mode shapes (always-choice, uniform init,
        // a choice table narrower and wider than the banks) beside a
        // skewed bi-mode fallback and a gshare point, in one call.
        let t = trace(0xB1B0 ^ u64::from(std::process::id()), 5000);
        let p = PackedTrace::build(&t).unwrap();
        let points: Vec<Rate> = [
            "bimode:d=6,choice=always",
            "bimode:d=6,init=uniform",
            "bimode:d=7,c=5,h=7",
            "bimode:d=5,c=8,h=3,choice=always,init=uniform",
            "bimode:d=6,index=skewed",
            "gshare:s=7,h=4",
        ]
        .into_iter()
        .map(|s| Rate::Plain(spec(s)))
        .collect();
        let laned = points.iter().filter(|p| p.lane().is_some()).count();
        assert_eq!(laned, 5, "only the skewed point falls back");
        let want: Vec<Vec<f64>> = points.iter().map(|p| vec![reference(&t, p)]).collect();
        assert_eq!(cached_rates(&[&p], Some(2), &points), want);
    }

    #[test]
    fn groups_balance_table_bytes_and_respect_the_lane_bound() {
        // 116 Figure 2 candidates: 8 groups, each within a few percent
        // of the mean table bytes.
        let lanes: Vec<(usize, Lane)> = crate::search::candidates(&(10..=17).collect::<Vec<_>>())
            .into_iter()
            .enumerate()
            .map(|(i, (table_bits, history_bits))| {
                let spec = PredictorSpec::Gshare {
                    table_bits,
                    history_bits,
                };
                (i, Lane::of(&spec).expect("gshare is a lane"))
            })
            .collect();
        let groups = balanced_groups(&lanes);
        assert_eq!(groups.len(), 8);
        let bytes: Vec<u64> = groups
            .iter()
            .map(|g| g.iter().map(|&i| lanes[i].1.table_bytes()).sum())
            .collect();
        let mean = bytes.iter().sum::<u64>() / 8;
        assert!(
            bytes.iter().all(|&b| b.abs_diff(mean) * 10 <= mean),
            "{bytes:?}"
        );
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..lanes.len()).collect::<Vec<_>>(), "every lane once");
        // Many tiny lanes beside a few huge ones never overfill a group.
        let skewed: Vec<(usize, Lane)> = (0..80)
            .map(|i| {
                let table_bits = if i < 4 { 20 } else { 0 };
                (
                    i,
                    Lane::Gshare(LaneSpec {
                        table_bits,
                        history_bits: 0,
                    }),
                )
            })
            .collect();
        assert!(balanced_groups(&skewed)
            .iter()
            .all(|g| g.len() <= bpred_analysis::MAX_LANES));
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
