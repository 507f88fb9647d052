//! The observability layer: per-stage wall time and work counters.
//!
//! An [`Observer`] wraps each pipeline stage (trace generation, one
//! experiment, ...) in a closure, snapshots the process-wide counters
//! — branches simulated and configurations driven from
//! [`bpred_analysis::metrics`], trace-cache hits/misses and packs
//! built from [`crate::traces`], result-store job hits/misses/inserts
//! from [`crate::store`] — on either side, and attributes the
//! delta plus the measured wall time to that stage as a
//! [`StageStats`]. Stages run sequentially within one orchestrated
//! run, so snapshot differencing is a sound attribution.
//!
//! The stats feed both the terminal notes under each experiment report
//! and the structured run manifest (see [`crate::manifest`]).

use std::time::{Duration, Instant};

use bpred_analysis::metrics::{self, EngineSnapshot};

use crate::store::{self, StoreCounters};
use crate::traces::{self, CacheCounters};

/// A combined reading of every process-wide counter the harness
/// observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Branches-simulated / lanes-retired counters, per execution
    /// engine ([`EngineSnapshot::total`] aggregates them).
    pub engines: EngineSnapshot,
    /// Trace-cache hit/miss/pack counters.
    pub cache: CacheCounters,
    /// Result-store job hit/miss/insert counters.
    pub store: StoreCounters,
}

/// Reads all observable counters at once.
#[must_use]
pub fn counters() -> Counters {
    Counters {
        engines: metrics::engine_snapshot(),
        cache: traces::cache_counters(),
        store: store::counters(),
    }
}

/// Wall time and attributed work of one named pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name (an experiment name, or `traces`).
    pub name: String,
    /// Wall time of the stage.
    pub wall: Duration,
    /// (Configuration, branch) pairs simulated during the stage.
    pub branches: u64,
    /// Predictor lanes retired during the stage (one per configuration
    /// per trace pass, however many rode a shared pass).
    pub configs: u64,
    /// Per-engine breakdown of the stage's drive work, including each
    /// engine's busy time for per-engine Mbranches/s.
    pub engines: EngineSnapshot,
    /// Trace-cache activity during the stage.
    pub cache: CacheCounters,
    /// Result-store activity during the stage: jobs served (hits),
    /// jobs computed (misses), and results persisted.
    pub store: StoreCounters,
}

impl StageStats {
    /// Simulated branches per second, in millions (0 for a zero-wall
    /// stage).
    #[must_use]
    pub fn mbranches_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.branches as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// The one-line report emitted under each stage.
    #[must_use]
    pub fn note(&self) -> String {
        format!(
            "Stage {}: {} branches simulated ({} configs) in {:.3}s = {:.1} Mbranches/s.",
            self.name,
            self.branches,
            self.configs,
            self.wall.as_secs_f64(),
            self.mbranches_per_sec()
        )
    }

    /// The one-line per-engine throughput summary for the stage: only
    /// engines that did work appear; empty when nothing was driven
    /// (for example a fully store-served stage).
    #[must_use]
    pub fn engine_note(&self) -> String {
        let parts: Vec<String> = self
            .engines
            .iter()
            .filter(|(_, d)| d.lanes > 0)
            .map(|(engine, d)| {
                format!(
                    "{} {:.1} Mb/s ({} branches, {} lanes)",
                    engine.label(),
                    d.mbranches_per_sec(),
                    d.branches,
                    d.lanes
                )
            })
            .collect();
        if parts.is_empty() {
            String::new()
        } else {
            format!("Engines: {}.", parts.join(", "))
        }
    }

    /// The one-line trace-cache summary for the stage.
    #[must_use]
    pub fn cache_note(&self) -> String {
        format!(
            "Trace cache: {} hits, {} misses, {} packs built.",
            self.cache.hits, self.cache.misses, self.cache.packs_built
        )
    }

    /// The one-line result-store summary for the stage: of the jobs
    /// planned, how many were served cached vs computed fresh.
    #[must_use]
    pub fn store_note(&self) -> String {
        format!(
            "Result store: {} jobs planned, {} cached, {} computed, {} inserted.",
            self.store.total(),
            self.store.hits,
            self.store.misses,
            self.store.inserts
        )
    }
}

/// Records a sequence of named stages by snapshot-differencing the
/// process-wide counters around each one.
#[derive(Debug, Default)]
pub struct Observer {
    stages: Vec<StageStats>,
}

impl Observer {
    /// Creates an observer with no recorded stages.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` as the stage called `name`, recording its wall time
    /// and counter deltas, and passes its return value through.
    pub fn stage<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let before = counters();
        let started = Instant::now();
        let result = f();
        let wall = started.elapsed();
        let after = counters();
        let engines = after.engines.since(&before.engines);
        let drive = engines.total();
        self.stages.push(StageStats {
            name: name.to_owned(),
            wall,
            branches: drive.branches,
            configs: drive.lanes,
            engines,
            cache: after.cache.since(&before.cache),
            store: after.store.since(&before.store),
        });
        result
    }

    /// Every recorded stage, in execution order.
    #[must_use]
    pub fn stages(&self) -> &[StageStats] {
        &self.stages
    }

    /// The most recently recorded stage.
    #[must_use]
    pub fn last(&self) -> Option<&StageStats> {
        self.stages.last()
    }

    /// Aggregates every recorded stage into one `total` line: work and
    /// wall times add up (stages run sequentially).
    #[must_use]
    pub fn total(&self) -> StageStats {
        let mut total = StageStats {
            name: "total".to_owned(),
            wall: Duration::ZERO,
            branches: 0,
            configs: 0,
            engines: EngineSnapshot::default(),
            cache: CacheCounters::default(),
            store: StoreCounters::default(),
        };
        for s in &self.stages {
            total.wall += s.wall;
            total.branches += s.branches;
            total.configs += s.configs;
            total.engines = total.engines.plus(&s.engines);
            total.cache.hits += s.cache.hits;
            total.cache.misses += s.cache.misses;
            total.cache.packs_built += s.cache.packs_built;
            total.store.hits += s.store.hits;
            total.store.misses += s.store.misses;
            total.store.inserts += s.store.inserts;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_workloads::{Scale, Workload};

    // The underlying counters are process-global and other tests drive
    // them in parallel, so stage attributions here are lower bounds.

    #[test]
    fn stage_attributes_drive_work_and_passes_results_through() {
        let mut obs = Observer::new();
        let set = obs.stage("traces", || {
            crate::traces::TraceSet::of(
                vec![Workload::by_name("compress").expect("registered")],
                Scale::Smoke,
                Some(1),
            )
        });
        let results = obs.stage("drive", || {
            let mut batch = [bpred_core::Gshare::new(6, 6), bpred_core::Gshare::new(6, 0)];
            bpred_analysis::measure_batch(set.all_packed()[0], &mut batch)
        });
        assert_eq!(results.len(), 2);
        assert_eq!(obs.stages().len(), 2);
        let traces = &obs.stages()[0];
        assert_eq!(traces.name, "traces");
        assert!(traces.cache.hits + traces.cache.misses >= 1);
        let drive = obs.last().expect("two stages recorded");
        assert_eq!(drive.name, "drive");
        assert!(drive.configs >= 2, "batch drive must record: {drive:?}");
        assert!(drive.branches > 0);
        assert!(drive.note().contains("Mbranches/s"));
        assert!(drive.cache_note().starts_with("Trace cache:"));
    }

    #[test]
    fn total_sums_the_stages() {
        use bpred_analysis::metrics::{record_engine_drive, Engine};
        let mut obs = Observer::new();
        obs.stage("a", || {
            record_engine_drive(Engine::Scalar, 100, 1, Duration::ZERO);
        });
        obs.stage("b", || {
            record_engine_drive(Engine::Scalar, 50, 2, Duration::ZERO);
        });
        let total = obs.total();
        assert_eq!(total.name, "total");
        assert!(total.branches >= 150);
        assert!(total.configs >= 3);
        assert_eq!(
            total.wall,
            obs.stages().iter().map(|s| s.wall).sum::<Duration>()
        );
    }

    #[test]
    fn zero_wall_stage_reports_zero_throughput() {
        let s = StageStats {
            name: "x".to_owned(),
            wall: Duration::ZERO,
            branches: 10,
            configs: 1,
            engines: EngineSnapshot::default(),
            cache: CacheCounters::default(),
            store: StoreCounters::default(),
        };
        assert_eq!(s.mbranches_per_sec(), 0.0);
        assert!(s.store_note().starts_with("Result store: 0 jobs planned"));
        assert_eq!(s.engine_note(), "", "idle engines print nothing");
    }

    #[test]
    fn engine_breakdown_sums_to_the_stage_totals() {
        use bpred_analysis::metrics::{record_engine_drive, Engine};
        let mut obs = Observer::new();
        obs.stage("mixed", || {
            record_engine_drive(Engine::Batch, 4000, 4, Duration::from_micros(20));
            record_engine_drive(Engine::Sliced, 6400, 64, Duration::from_micros(10));
        });
        let stage = obs.last().expect("one stage recorded");
        let summed = stage.engines.total();
        assert_eq!(stage.branches, summed.branches);
        assert_eq!(stage.configs, summed.lanes);
        assert!(stage.engines.get(Engine::Sliced).lanes >= 64);
        let note = stage.engine_note();
        assert!(note.contains("sliced"), "{note}");
        assert!(note.contains("batch"), "{note}");
    }
}
