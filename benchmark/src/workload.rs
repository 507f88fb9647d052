//! The four workloads and the two kinds of run.
//!
//! An untraced run ([`measure`]) repeats the workload's unit of work,
//! each repetition in a fresh worker process, for the run's seconds,
//! checks every output, and reports the end-to-end metrics as medians
//! over the repetitions. A traced run ([`profile`]) reports the
//! per-layer metrics: the workload's own unit of work once, traced; for
//! the layers it does not reach, a traced cold smoke pass of every
//! experiment and one serve repetition; then the micro-phases of
//! [`crate::layers`] at the workload's trace scale.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bpred_workloads::Scale;

use crate::host::{remove_tree, WorkDir};
use crate::layers;
use crate::repro::{self, PlanSpec, PAPER_FIG2, SMOKE_ALL};
use crate::serve::{self, Load, Reply, REQUESTS_PER_REP};
use crate::stats::{median, percentile, tail_percentile};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every experiment at smoke scale from an empty trace cache and
    /// result store: every layer runs, the batch engine most of all.
    ReproSmokeCold,
    /// The same plan against a store filled in set-up: the engines idle,
    /// and trace decode, store hits, analysis and rendering carry it.
    ReproSmokeWarm,
    /// A closed loop of streamed and store-served requests against
    /// `repro serve`.
    ServeStream,
    /// Figure 2 at paper scale, cold: traces larger than the processor's
    /// caches, so generation, packing and memory show.
    PaperFig2Cold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReproSmokeCold,
        Workload::ReproSmokeWarm,
        Workload::ServeStream,
        Workload::PaperFig2Cold,
    ];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproSmokeCold => "repro-smoke-cold",
            Workload::ReproSmokeWarm => "repro-smoke-warm",
            Workload::ServeStream => "serve-stream",
            Workload::PaperFig2Cold => "paper-fig2-cold",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace scale of the traced run's micro-phases.
    fn scale(self) -> Scale {
        match self {
            Workload::PaperFig2Cold => Scale::Paper,
            _ => Scale::Smoke,
        }
    }
}

/// Operations attempted and failed in a run; every correctness check
/// is one operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations that completed.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one check, reporting it on standard error if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts `checked` checks of which `failures` failed.
    fn checks(&mut self, (checked, failures): (u64, Vec<String>)) {
        self.ops(checked - failures.len() as u64);
        for failure in failures {
            self.check(false, || failure);
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations and checks.
    pub tally: Tally,
    /// Human-readable remarks: repetition and sample counts.
    pub notes: Vec<String>,
}

/// The benchmark binary (workers are this executable) and the process's
/// scratch directory.
#[derive(Debug)]
pub struct Bench {
    /// The executable workers are started from.
    pub exe: PathBuf,
    /// Scratch space for caches, stores and outputs.
    pub work: WorkDir,
}

/// Plan workers a repro run starts, and tells to quit at once, to time
/// their set-up.
const SETUP_SAMPLES: usize = 31;

/// The pause after each of those start-ups.
const SETUP_PACE: Duration = Duration::from_millis(40);

/// Times a serve run prepares its load.
const PREPARE_SAMPLES: usize = 5;

/// Serve repetitions a run makes at least: 1,050 latency samples, so
/// that ten lie beyond the 99th percentile however slow the host.
const SERVE_MIN_REPS: usize = 15;

/// Repeats `rep` (given its index) for `seconds`: at least `min_reps`
/// times, and again only while another repetition as long as the last
/// one still fits.
fn window<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(u64) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(rep(reps.len() as u64)?);
        if reps.len() >= min_reps && started.elapsed() + t.elapsed() > budget {
            return Ok(reps);
        }
    }
}

/// Runs `plan` once in a fresh worker, traced or not, and checks its
/// outputs and its trace-cache use: a cold run may not hit the cache, a
/// warm one may not miss it nor compute a single job.
fn plan_rep(
    bench: &Bench,
    plan: &PlanSpec,
    cache: &Path,
    warm: bool,
    traced: bool,
    tally: &mut Tally,
) -> io::Result<repro::Rep> {
    let out = bench.work.fresh("out");
    let rep = repro::run(&bench.exe, plan, cache, &out, traced)?;
    tally.ops(plan.experiments() as u64);
    let outputs = crate::outputs::check(&out, plan.reference);
    tally.check(outputs.is_ok(), || {
        // Traces name branch sites by source path, so a build that does
        // not strip the checkout prefix generates different traces.
        format!(
            "{} (was the benchmark built by benchmark/run.sh?)",
            outputs.err().unwrap_or_default()
        )
    });
    tally.check(rep.cache_dir.starts_with(bench.work.path()), || {
        format!("worker used the trace cache {}", rep.cache_dir.display())
    });
    if warm {
        let (computed, misses) = (rep.get("store.misses"), rep.get("traces.cache_misses"));
        tally.check(computed == 0.0 && misses == 0.0, || {
            format!("warm run computed {computed} jobs and missed {misses} traces")
        });
    } else {
        let hits = rep.get("traces.cache_hits");
        tally.check(hits == 0.0, || {
            format!("cold run hit the trace cache {hits} times")
        });
    }
    remove_tree(&out)?;
    Ok(rep)
}

/// An untraced run: the end-to-end metrics.
///
/// # Errors
///
/// Fails when a worker process fails; wrong answers are counted in the
/// outcome's tally instead.
pub fn measure(bench: &Bench, workload: Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    match workload {
        Workload::ReproSmokeCold => measure_plan(bench, &SMOKE_ALL, false, seconds),
        Workload::ReproSmokeWarm => measure_plan(bench, &SMOKE_ALL, true, seconds),
        Workload::PaperFig2Cold => measure_plan(bench, &PAPER_FIG2, false, seconds),
        Workload::ServeStream => measure_serve(bench, seed, seconds),
    }
}

fn measure_plan(bench: &Bench, plan: &PlanSpec, warm: bool, seconds: f64) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    // A warm workload fills one store in set-up and reuses it.
    let mut fill_s = 0.0;
    let filled = if warm {
        let cache = bench.work.fresh("cache");
        let started = Instant::now();
        plan_rep(bench, plan, &cache, false, false, &mut tally)?;
        fill_s = started.elapsed().as_secs_f64();
        Some(cache)
    } else {
        None
    };
    let cache_for_rep = || filled.clone().unwrap_or_else(|| bench.work.fresh("cache"));
    // Worker start-ups take about a millisecond and follow the shared
    // host's load closely, so they are paced apart and taken on both
    // sides of the window: the median then spans the run, not one instant.
    let setup = |samples: &mut Vec<f64>, n: usize| -> io::Result<()> {
        for _ in 0..n {
            let (cache, out) = (cache_for_rep(), bench.work.fresh("out"));
            samples.push(repro::setup_only(&bench.exe, plan, &cache, &out)?);
            if !warm {
                remove_tree(&cache)?;
            }
            std::thread::sleep(SETUP_PACE);
        }
        Ok(())
    };
    let mut setups = Vec::new();
    setup(&mut setups, SETUP_SAMPLES / 2)?;
    let reps = window(seconds, 1, |_| {
        let cache = cache_for_rep();
        let rep = plan_rep(bench, plan, &cache, warm, false, &mut tally);
        if !warm {
            remove_tree(&cache)?;
        }
        rep
    })?;
    setup(&mut setups, SETUP_SAMPLES - SETUP_SAMPLES / 2)?;
    if let Some(cache) = &filled {
        remove_tree(cache)?;
    }
    let of = |name: &str| reps.iter().map(|r| r.get(name)).collect::<Vec<f64>>();
    let walls_ms: Vec<f64> = of("wall_s").iter().map(|w| w * 1e3).collect();
    let metrics = BTreeMap::from([
        ("wall_s".to_owned(), median(&of("wall_s"))),
        ("cpu_s".to_owned(), median(&of("cpu_s"))),
        ("peak_rss_mb".to_owned(), median(&of("rss_mb"))),
        ("setup_s".to_owned(), fill_s + median(&setups)),
        ("req_p50_ms".to_owned(), percentile(&walls_ms, 50.0)),
        ("req_p99_ms".to_owned(), percentile(&walls_ms, 99.0)),
    ]);
    let notes = vec![format!(
        "{} repetition(s); a request is one whole plan; {} set-up sample(s){}",
        reps.len(),
        setups.len(),
        if warm {
            format!(", store fill {fill_s:.3}s")
        } else {
            String::new()
        }
    )];
    Ok(Outcome {
        metrics,
        tally,
        notes,
    })
}

fn measure_serve(bench: &Bench, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    let mut prepares = Vec::new();
    let mut load = None;
    for _ in 0..PREPARE_SAMPLES {
        let started = Instant::now();
        load = Some(Load::prepare(seed));
        prepares.push(started.elapsed().as_secs_f64());
    }
    let load = load.expect("the load is prepared at least once");
    let reps = window(seconds, SERVE_MIN_REPS, |i| {
        let cache = bench.work.fresh("cache");
        let rep = serve::run(&bench.exe, &load, i, &cache);
        remove_tree(&cache)?;
        rep
    })?;
    tally.checks(serve::verify(&load, &reps));
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.samples.iter().flatten().map(|s| s.latency * 1e3))
        .collect();
    let of = |f: fn(&serve::Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let metrics = BTreeMap::from([
        ("wall_s".to_owned(), median(&of(|r| r.wall_s))),
        ("cpu_s".to_owned(), median(&of(|r| r.cpu_s))),
        ("peak_rss_mb".to_owned(), median(&of(|r| r.rss_mb))),
        (
            "setup_s".to_owned(),
            median(&prepares) + median(&of(|r| r.setup_s)),
        ),
        ("req_p50_ms".to_owned(), percentile(&latencies, 50.0)),
        ("req_p99_ms".to_owned(), percentile(&latencies, 99.0)),
    ]);
    let tail = tail_percentile(latencies.len()).map_or_else(
        || "no percentile has ten samples beyond it".to_owned(),
        |p| format!("p{p} is the highest percentile with ten samples beyond it"),
    );
    let notes = vec![format!(
        "{} repetition(s) of {REQUESTS_PER_REP} requests over {} connections; {} latency \
         samples; {tail}",
        reps.len(),
        serve::CONNECTIONS,
        latencies.len()
    )];
    Ok(Outcome {
        metrics,
        tally,
        notes,
    })
}

/// The traced unit of work's wall time, in a traced outcome: `run` sets
/// it against the untraced median to show the tracing overhead.
pub const TRACED_WALL: &str = "traced.wall_s";

/// Adds the metrics of `from` that `into` does not have yet: a later
/// pass only fills in the layers earlier ones did not reach.
fn fill(into: &mut BTreeMap<String, f64>, from: BTreeMap<String, f64>) {
    for (name, value) in from {
        into.entry(name).or_insert(value);
    }
}

/// A traced run: the per-layer metrics.
///
/// # Errors
///
/// Fails when a worker process fails.
pub fn profile(bench: &Bench, workload: Workload, seed: u64) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    let traced = |plan: &PlanSpec, cache: &Path, warm: bool, tally: &mut Tally| {
        plan_rep(bench, plan, cache, warm, true, tally).map(|rep| rep.values)
    };
    // Passes in order of precedence: the workload's own unit of work,
    // then a cold smoke pass and a serve repetition for the layers it
    // does not reach. The cold pass also fills the warm workload's store.
    let cache = bench.work.fresh("cache");
    let cold = traced(&SMOKE_ALL, &cache, false, &mut tally)?;
    let mut passes = Vec::new();
    let own_wall = match workload {
        Workload::ReproSmokeCold => cold["wall_s"],
        Workload::ReproSmokeWarm => {
            passes.push(traced(&SMOKE_ALL, &cache, true, &mut tally)?);
            passes[0]["wall_s"]
        }
        Workload::PaperFig2Cold => {
            let paper = bench.work.fresh("cache");
            passes.push(traced(&PAPER_FIG2, &paper, false, &mut tally)?);
            remove_tree(&paper)?;
            passes[0]["wall_s"]
        }
        Workload::ServeStream => {
            let (wall, serve) = traced_serve(bench, seed, &mut tally)?;
            passes.push(serve);
            wall
        }
    };
    remove_tree(&cache)?;
    passes.push(cold);
    if workload != Workload::ServeStream {
        passes.push(traced_serve(bench, seed, &mut tally)?.1);
    }
    let (trace_metrics, digests, matrix_trace) = layers::traces(workload.scale(), &mut tally);
    passes.extend([
        trace_metrics,
        layers::store(&digests, &mut tally),
        layers::drive(&matrix_trace, &mut tally),
    ]);
    let mut metrics = BTreeMap::new();
    for pass in passes {
        fill(&mut metrics, pass);
    }
    metrics.insert(TRACED_WALL.to_owned(), own_wall);
    let notes = vec![format!(
        "traced unit of work {own_wall:.3}s, micro-phases at {} scale",
        workload.scale()
    )];
    Ok(Outcome {
        metrics,
        tally,
        notes,
    })
}

/// One traced serve repetition: its wall time, the client-side phase
/// medians and the server's final stats.
fn traced_serve(
    bench: &Bench,
    seed: u64,
    tally: &mut Tally,
) -> io::Result<(f64, BTreeMap<String, f64>)> {
    let load = Load::prepare(seed);
    let cache = bench.work.fresh("cache");
    let rep = serve::run(&bench.exe, &load, 0, &cache)?;
    remove_tree(&cache)?;
    tally.checks(serve::verify(&load, std::slice::from_ref(&rep)));
    let samples: Vec<&serve::Sample> = rep.samples.iter().flatten().collect();
    let p50_ms = |pick: &dyn Fn(&serve::Sample) -> Option<f64>| {
        percentile(
            &samples.iter().filter_map(|s| pick(s)).collect::<Vec<_>>(),
            50.0,
        ) * 1e3
    };
    let streamed = |s: &serve::Sample| matches!(s.reply, Reply::Done(_));
    let stat = |key: &str| rep.stats.get(key).copied().unwrap_or(0.0);
    let chunks = stat("serve_chunks_total");
    let mut metrics = BTreeMap::from([
        ("serve.probe_ms".to_owned(), p50_ms(&|s| Some(s.probe))),
        (
            "serve.send_ms".to_owned(),
            p50_ms(&|s| streamed(s).then_some(s.send)),
        ),
        (
            "serve.finish_ms".to_owned(),
            p50_ms(&|s| streamed(s).then_some(s.finish)),
        ),
        (
            "serve.hit_p50_ms".to_owned(),
            p50_ms(&|s| matches!(s.reply, Reply::Hit(_)).then_some(s.latency)),
        ),
        ("serve.chunks".to_owned(), chunks),
        (
            "serve.backpressure_frac".to_owned(),
            stat("serve_backpressure_chunks") / chunks.max(1.0),
        ),
        ("serve.store_hits".to_owned(), stat("store_hits")),
        ("serve.store_inserts".to_owned(), stat("store_inserts")),
    ]);
    for engine in ["sliced", "packed"] {
        metrics.insert(
            format!("serve.engine.{engine}.mbranches_per_s"),
            stat(&format!("engine_{engine}_mbranches_per_sec")),
        );
    }
    Ok((rep.wall_s, metrics))
}
