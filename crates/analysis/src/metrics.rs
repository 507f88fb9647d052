//! Process-wide drive counters for the observability layer, broken
//! down by execution engine.
//!
//! Every measurement loop in this crate ([`measure`](crate::measure),
//! [`measure_with_flushes`](crate::measure_with_flushes), the analysis
//! loops, and the engine sessions behind
//! [`measure_packed`](crate::measure_packed),
//! [`measure_batch`](crate::measure_batch) and
//! [`measure_sliced`](crate::measure_sliced)) records, against its
//! [`Engine`]: how many (lane, branch) pairs it simulated, how many
//! predictor lanes it retired, and how long the loop itself ran (busy
//! time). The counters are global, monotone, and lock-free; callers
//! attribute work to a stage by taking an [`engine_snapshot`] before
//! and after and differencing with [`EngineSnapshot::since`].
//!
//! Accounting is **per lane retired, not per pass**: a batch pass
//! driving 24 configurations records 24 lanes, a sliced pass over a
//! 64-lane group records 64, and a scalar pass records 1 — so
//! `branches / busy` (see [`EngineDrive::mbranches_per_sec`]) is
//! comparable across scalar, packed, batch and sliced engines. Busy
//! time is summed across threads, making the figure a per-core
//! throughput independent of `--jobs`.
//!
//! Relaxed atomics suffice: the counters are statistics, not
//! synchronisation, and each is independently monotone. The aggregate
//! [`snapshot`] is *derived* from the per-engine slots (never stored
//! separately), so engine totals always sum exactly to the global
//! totals — an invariant the manifest validator checks per stage.

use std::time::Duration;

// `bpred-analysis` sits below the harness in the dependency graph, so
// it imports the sync facade from `bpred_race` directly (the harness's
// `crate::sync` re-exports the same module).
use bpred_race::sync::{AtomicU64, Ordering};

/// The measurement loops that can drive predictors, in the order they
/// were introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Single-config loops outside the session engines: the two-call
    /// reference loops [`measure`](crate::measure) and
    /// [`measure_with_flushes`](crate::measure_with_flushes) over an
    /// unpacked [`Trace`](bpred_trace::Trace), and the warm-up, alias
    /// and two-pass analysis loops over a
    /// [`PackedTrace`](bpred_trace::PackedTrace).
    Scalar,
    /// Single-predictor [`PackedSession`](crate::PackedSession) walks
    /// of a [`PackedTrace`](bpred_trace::PackedTrace):
    /// [`measure_packed`](crate::measure_packed), per-site miss tables,
    /// and the streaming service's tenant sessions.
    Packed,
    /// The all-configs-in-one-pass loop
    /// [`measure_batch`](crate::measure_batch).
    Batch,
    /// The gshare-family lane-group engine
    /// [`measure_sliced`](crate::measure_sliced): up to 64 counter
    /// tables sharing one history register.
    Sliced,
}

impl Engine {
    /// All engines, in display order.
    pub const ALL: [Engine; 4] = [
        Engine::Scalar,
        Engine::Packed,
        Engine::Batch,
        Engine::Sliced,
    ];

    /// The engine's lower-case label, used in notes and manifests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Packed => "packed",
            Engine::Batch => "batch",
            Engine::Sliced => "sliced",
        }
    }

    fn slot(self) -> usize {
        match self {
            Engine::Scalar => 0,
            Engine::Packed => 1,
            Engine::Batch => 2,
            Engine::Sliced => 3,
        }
    }
}

struct Slot {
    branches: AtomicU64,
    lanes: AtomicU64,
    busy_nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // const is an array seed, not shared state
const EMPTY_SLOT: Slot = Slot {
    branches: AtomicU64::new(0),
    lanes: AtomicU64::new(0),
    busy_nanos: AtomicU64::new(0),
};

static SLOTS: [Slot; 4] = [EMPTY_SLOT; 4];

/// One engine's cumulative (or differenced) drive counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineDrive {
    /// (lane, branch) pairs simulated.
    pub branches: u64,
    /// Predictor lanes retired — one per configuration per trace pass,
    /// regardless of how many rode a shared pass.
    pub lanes: u64,
    /// Nanoseconds the measurement loops spent, summed across threads.
    pub busy_nanos: u64,
}

impl EngineDrive {
    /// The work recorded between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &EngineDrive) -> EngineDrive {
        EngineDrive {
            branches: self.branches.saturating_sub(earlier.branches),
            lanes: self.lanes.saturating_sub(earlier.lanes),
            busy_nanos: self.busy_nanos.saturating_sub(earlier.busy_nanos),
        }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(&self, other: &EngineDrive) -> EngineDrive {
        EngineDrive {
            branches: self.branches + other.branches,
            lanes: self.lanes + other.lanes,
            busy_nanos: self.busy_nanos + other.busy_nanos,
        }
    }

    /// Busy time in seconds.
    #[must_use]
    pub fn busy_seconds(&self) -> f64 {
        self.busy_nanos as f64 / 1e9
    }

    /// Millions of (lane, branch) pairs retired per busy second — the
    /// per-core throughput figure, comparable across engines. Zero when
    /// the engine did no timed work.
    #[must_use]
    pub fn mbranches_per_sec(&self) -> f64 {
        if self.busy_nanos == 0 {
            0.0
        } else {
            self.branches as f64 * 1e3 / self.busy_nanos as f64
        }
    }
}

/// A point-in-time (or differenced) reading of every engine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSnapshot {
    per: [EngineDrive; 4],
}

impl EngineSnapshot {
    /// A snapshot with `drive` attributed to `engine` and every other
    /// engine idle (fixtures and tests).
    #[must_use]
    pub fn of(engine: Engine, drive: EngineDrive) -> EngineSnapshot {
        let mut out = EngineSnapshot::default();
        out.per[engine.slot()] = drive;
        out
    }

    /// One engine's counters.
    #[must_use]
    pub fn get(&self, engine: Engine) -> EngineDrive {
        self.per[engine.slot()]
    }

    /// The work recorded between `earlier` and `self`, per engine.
    #[must_use]
    pub fn since(&self, earlier: &EngineSnapshot) -> EngineSnapshot {
        let mut out = EngineSnapshot::default();
        for engine in Engine::ALL {
            out.per[engine.slot()] = self.get(engine).since(&earlier.get(engine));
        }
        out
    }

    /// Component-wise sum, for totalling stages.
    #[must_use]
    pub fn plus(&self, other: &EngineSnapshot) -> EngineSnapshot {
        let mut out = EngineSnapshot::default();
        for engine in Engine::ALL {
            out.per[engine.slot()] = self.get(engine).plus(&other.get(engine));
        }
        out
    }

    /// Iterates engines with their counters, in display order.
    pub fn iter(&self) -> impl Iterator<Item = (Engine, EngineDrive)> + '_ {
        Engine::ALL.into_iter().map(|e| (e, self.get(e)))
    }

    /// The aggregate view: engine branches and lanes summed into the
    /// legacy [`DriveSnapshot`] shape.
    #[must_use]
    pub fn total(&self) -> DriveSnapshot {
        let mut total = DriveSnapshot::default();
        for drive in self.per {
            total.branches += drive.branches;
            total.configs += drive.lanes;
        }
        total
    }
}

/// A point-in-time reading of the aggregate drive counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriveSnapshot {
    /// Total (lane, branch) pairs simulated so far.
    pub branches: u64,
    /// Total predictor lanes retired so far (historically "configs").
    pub configs: u64,
}

impl DriveSnapshot {
    /// The work recorded between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &DriveSnapshot) -> DriveSnapshot {
        DriveSnapshot {
            branches: self.branches.saturating_sub(earlier.branches),
            configs: self.configs.saturating_sub(earlier.configs),
        }
    }
}

/// Records one drive against `engine`: `branches` (lane, branch) pairs
/// across `lanes` retired predictor lanes, taking `busy` of loop time.
pub fn record_engine_drive(engine: Engine, branches: u64, lanes: u64, busy: Duration) {
    // Each counter is an independently monotone statistic: readers
    // difference snapshots and never use one counter to synchronize
    // access to another, so Relaxed suffices on every access — the
    // race/metrics model checks exactly this no-lost-updates /
    // no-negative-deltas contract under all schedules.
    let slot = &SLOTS[engine.slot()];
    slot.branches.fetch_add(branches, Ordering::Relaxed); // ordering-audited: monotone statistic, see above
    slot.lanes.fetch_add(lanes, Ordering::Relaxed); // ordering-audited: monotone statistic, see above
    let nanos = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
    slot.busy_nanos.fetch_add(nanos, Ordering::Relaxed); // ordering-audited: monotone statistic, see above
}

/// Records one untimed scalar drive. Kept for analysis loops whose
/// per-iteration work is not a plain measurement pass; their busy time
/// is attributed by the caller when it matters.
pub fn record_drive(branches: u64, configs: u64) {
    record_engine_drive(Engine::Scalar, branches, configs, Duration::ZERO);
}

/// Reads the current per-engine counter values.
#[must_use]
pub fn engine_snapshot() -> EngineSnapshot {
    let mut out = EngineSnapshot::default();
    for engine in Engine::ALL {
        let slot = &SLOTS[engine.slot()];
        out.per[engine.slot()] = EngineDrive {
            // A snapshot is three independent reads, not an atomic
            // triple: deltas of each component stay non-negative
            // because each counter is monotone (race/metrics checks
            // the snapshot contract under all schedules).
            branches: slot.branches.load(Ordering::Relaxed), // ordering-audited: monotone statistic, see `record_engine_drive`
            lanes: slot.lanes.load(Ordering::Relaxed), // ordering-audited: monotone statistic, see `record_engine_drive`
            busy_nanos: slot.busy_nanos.load(Ordering::Relaxed), // ordering-audited: monotone statistic, see `record_engine_drive`
        };
    }
    out
}

/// Reads the aggregate counter values (derived from the per-engine
/// slots, so engine breakdowns always sum to this total).
#[must_use]
pub fn snapshot() -> DriveSnapshot {
    engine_snapshot().total()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global and other tests drive them
    // concurrently, so assertions are on deltas and monotonicity only.

    #[test]
    fn record_advances_both_counters() {
        let before = snapshot();
        record_drive(1000, 3);
        let delta = snapshot().since(&before);
        assert!(delta.branches >= 1000);
        assert!(delta.configs >= 3);
    }

    #[test]
    fn engine_drives_land_in_their_own_slot() {
        let before = engine_snapshot();
        record_engine_drive(Engine::Sliced, 640, 64, Duration::from_micros(5));
        let delta = engine_snapshot().since(&before);
        let sliced = delta.get(Engine::Sliced);
        assert!(sliced.branches >= 640);
        assert!(sliced.lanes >= 64);
        assert!(sliced.busy_nanos >= 5000);
    }

    #[test]
    fn totals_are_the_sum_of_engines() {
        let snap = engine_snapshot();
        let total = snap.total();
        let branches: u64 = Engine::ALL.iter().map(|&e| snap.get(e).branches).sum();
        let lanes: u64 = Engine::ALL.iter().map(|&e| snap.get(e).lanes).sum();
        assert_eq!(total.branches, branches);
        assert_eq!(total.configs, lanes);
    }

    #[test]
    fn equal_work_records_equal_lane_totals_across_engines() {
        // Regression: lanes are counted per lane retired, not per pass.
        // Three configurations over one 1000-branch trace must account
        // identically whether driven one-at-a-time or fused.
        let before = engine_snapshot();
        for _ in 0..3 {
            record_engine_drive(Engine::Packed, 1000, 1, Duration::from_micros(1));
        }
        record_engine_drive(Engine::Batch, 3000, 3, Duration::from_micros(1));
        record_engine_drive(Engine::Sliced, 3000, 3, Duration::from_micros(1));
        let delta = engine_snapshot().since(&before);
        let packed = delta.get(Engine::Packed);
        let batch = delta.get(Engine::Batch);
        let sliced = delta.get(Engine::Sliced);
        assert!(packed.branches >= 3000 && packed.lanes >= 3);
        assert!(batch.branches >= 3000 && batch.lanes >= 3);
        assert!(sliced.branches >= 3000 && sliced.lanes >= 3);
    }

    #[test]
    fn throughput_is_branches_over_busy_time() {
        let drive = EngineDrive {
            branches: 100_000_000,
            lanes: 10,
            busy_nanos: 1_000_000_000,
        };
        assert!((drive.mbranches_per_sec() - 100.0).abs() < 1e-9);
        assert_eq!(EngineDrive::default().mbranches_per_sec(), 0.0);
    }

    #[test]
    fn since_saturates_rather_than_wrapping() {
        let newer = DriveSnapshot {
            branches: 5,
            configs: 1,
        };
        let older = DriveSnapshot {
            branches: 9,
            configs: 4,
        };
        assert_eq!(newer.since(&older), DriveSnapshot::default());
        assert_eq!(
            older.since(&newer),
            DriveSnapshot {
                branches: 4,
                configs: 3
            }
        );
    }

    #[test]
    fn measurement_loops_feed_the_counters() {
        use bpred_core::Gshare;
        use bpred_trace::{BranchRecord, PackedTrace, Trace};
        let t: Trace = (0..500u64)
            .map(|i| BranchRecord::conditional(0x1000 + (i % 7) * 4, 0, i % 3 == 0))
            .collect();
        let packed = PackedTrace::build(&t).expect("7 sites fit");

        let before = engine_snapshot();
        let _ = crate::measure(&t, &mut Gshare::new(6, 6));
        let _ = crate::measure_packed(&packed, &mut Gshare::new(6, 6));
        let _ = crate::measure_batch(&packed, &mut [Gshare::new(6, 6), Gshare::new(6, 2)]);
        let delta = engine_snapshot().since(&before);
        assert!(delta.get(Engine::Scalar).branches >= 500, "got {delta:?}");
        assert!(delta.get(Engine::Packed).branches >= 500, "got {delta:?}");
        assert!(delta.get(Engine::Batch).branches >= 1000, "got {delta:?}");
        assert!(delta.get(Engine::Batch).lanes >= 2, "got {delta:?}");
        let total = snapshot().since(&before.total());
        assert!(total.branches >= 500 * 4, "got {total:?}");
        assert!(total.configs >= 4, "got {total:?}");
    }
}
