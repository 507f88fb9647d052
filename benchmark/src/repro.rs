//! The repro workloads' unit of work: one plan executed in a worker
//! process. An untimed-spans pass goes through the harness's front
//! doors as `repro run`/`repro all` do — `orchestrate::execute`, reports
//! rendered and written, plot scripts and the run manifest written — but
//! without the `BENCH_engine.json` refresh `repro all` makes in the
//! source tree. A traced pass makes the same public calls one stage at a
//! time under an [`Observer`], which records each stage's wall time and
//! the deltas of the process-wide engine, store and trace-cache counters.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bpred_analysis::Engine;
use bpred_harness::format::Report;
use bpred_harness::manifest::Json;
use bpred_harness::observe::{Observer, StageStats};
use bpred_harness::orchestrate::{self, Plan};
use bpred_harness::registry::{self, Experiment};
use bpred_harness::traces::{self, TraceSet};
use bpred_harness::{plot, store};
use bpred_workloads::Scale;

use crate::host::{self, Worker};

/// The pinned thread budget of every plan and of the serve shards.
pub const JOBS: usize = 2;

/// A plan a repro workload executes, with the digests of the outputs it
/// must write.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Experiment names, comma-separated, or `all`.
    pub names: &'static str,
    /// Trace scale.
    pub scale: Scale,
    /// The file under `reference/` holding the committed output digests.
    pub reference_file: &'static str,
    /// Its contents (see [`crate::outputs`]).
    pub reference: &'static str,
}

impl PlanSpec {
    /// How many experiments the plan runs.
    #[must_use]
    pub fn experiments(&self) -> usize {
        experiment_names(self.names).len()
    }
}

fn experiment_names(names: &str) -> Vec<String> {
    match names {
        "all" => registry::names().into_iter().map(str::to_owned).collect(),
        list => list.split(',').map(str::to_owned).collect(),
    }
}

/// Every experiment at smoke scale: the repro-smoke workloads.
pub const SMOKE_ALL: PlanSpec = PlanSpec {
    names: "all",
    scale: Scale::Smoke,
    reference_file: "smoke-all.txt",
    reference: include_str!("../reference/smoke-all.txt"),
};

/// Figure 2 at paper scale: the paper-fig2 workload.
pub const PAPER_FIG2: PlanSpec = PlanSpec {
    names: "fig2",
    scale: Scale::Paper,
    reference_file: "paper-fig2.txt",
    reference: include_str!("../reference/paper-fig2.txt"),
};

/// Renders a JSON value on one line.
#[must_use]
pub fn one_line(json: &Json) -> String {
    json.emit().lines().map(str::trim_start).collect()
}

/// Renders a report as `repro` does: printed (here into a discarded
/// string), its tables written as CSV, and its sweep plot scripts.
fn render(report: &Report, out: &Path) -> io::Result<()> {
    black_box(report.to_string());
    report.write_csv(out)?;
    plot::write_plots(report, out)?;
    Ok(())
}

/// The worker side: `worker repro <scale> <names|all> <out> plain|traced`.
/// Plans, reports ready, waits for `go` on standard input, runs the plan
/// writing every output under `out`, then prints one JSON line of
/// measurements.
///
/// # Errors
///
/// Returns a message on bad arguments, a plan error or an I/O failure.
pub fn worker(args: &[String]) -> Result<(), String> {
    let [scale, names, out, mode] = args else {
        return Err("usage: worker repro <scale> <names|all> <out> plain|traced".to_owned());
    };
    let scale = Scale::parse(scale).ok_or(format!("bad scale `{scale}`"))?;
    let names = experiment_names(names);
    let traced = match mode.as_str() {
        "plain" => false,
        "traced" => true,
        _ => return Err(format!("bad mode `{mode}`")),
    };
    let plan = orchestrate::plan(&names, scale, Some(JOBS))?;
    let out = PathBuf::from(out);
    println!("ready");
    let mut go = String::new();
    io::stdin().read_line(&mut go).map_err(|e| e.to_string())?;
    if go.trim() != "go" {
        return Ok(());
    }
    let values = if traced {
        traced_pass(&plan, &out)
    } else {
        plain_pass(&plan, &out)
    }
    .map_err(|e| e.to_string())?;
    let cache_dir = traces::cache_location().map_or_else(String::new, |d| d.display().to_string());
    let result = Json::Obj(vec![
        (
            "values".to_owned(),
            Json::Obj(values.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ),
        ("cache_dir".to_owned(), Json::Str(cache_dir)),
    ]);
    println!("{}", one_line(&result));
    Ok(())
}

/// The plan through the front doors: its wall and CPU time, peak memory,
/// and the counters the correctness gates read.
fn plain_pass(plan: &Plan, out: &Path) -> io::Result<BTreeMap<String, f64>> {
    let cpu = host::cpu_seconds();
    let started = Instant::now();
    let mut failure = None;
    let outcome = orchestrate::execute(plan, |_, report, _| {
        if let Err(e) = render(report, out) {
            failure.get_or_insert(e);
        }
    });
    outcome.manifest.write(out)?;
    let wall = started.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu;
    if let Some(e) = failure {
        return Err(e);
    }
    let total = &outcome.manifest.total;
    Ok(BTreeMap::from([
        ("wall_s".to_owned(), wall),
        ("cpu_s".to_owned(), cpu),
        ("rss_mb".to_owned(), host::peak_rss_mb()),
        ("traces.cache_hits".to_owned(), total.cache.hits as f64),
        ("traces.cache_misses".to_owned(), total.cache.misses as f64),
        ("store.misses".to_owned(), total.store.misses as f64),
    ]))
}

/// The plan one traced stage at a time: the trace stage (`TraceSet::of`
/// and every packed view), each experiment's `run`, and rendering. Returns
/// the per-layer metrics of the layers the pass exercised — an engine
/// that drove no lane reports nothing — plus the pass's `wall_s` and the
/// gate counters.
fn traced_pass(plan: &Plan, out: &Path) -> io::Result<BTreeMap<String, f64>> {
    let mut observer = Observer::new();
    let started = Instant::now();
    let set = observer.stage("traces", || {
        let set = TraceSet::of(plan.workloads.clone(), plan.scale, plan.jobs);
        black_box(set.all_packed());
        set
    });
    let mut rendering = Duration::ZERO;
    for def in &plan.experiments {
        let report = observer.stage(def.name, || def.run(&set, plan.jobs));
        let t = Instant::now();
        render(&report, out)?;
        rendering += t.elapsed();
    }
    let wall = started.elapsed().as_secs_f64();
    let total = observer.total();
    let mut values = BTreeMap::from([
        ("wall_s".to_owned(), wall),
        ("render.s".to_owned(), rendering.as_secs_f64()),
        ("traces.cache_hits".to_owned(), total.cache.hits as f64),
        ("traces.cache_misses".to_owned(), total.cache.misses as f64),
        (
            "traces.packs_built".to_owned(),
            total.cache.packs_built as f64,
        ),
        ("store.misses".to_owned(), total.store.misses as f64),
    ]);
    for stage in observer.stages() {
        let name = match stage.name.as_str() {
            "traces" => "traces.stage_s".to_owned(),
            experiment => format!("exp.{experiment}.wall_s"),
        };
        values.insert(name, stage.wall.as_secs_f64());
    }
    store_layer(&total, &mut values);
    engine_layer(&total, wall, &mut values);
    Ok(values)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn store_layer(total: &StageStats, values: &mut BTreeMap<String, f64>) {
    let s = total.store;
    let disk = store::disk_stats();
    values.extend([
        ("store.lookups".to_owned(), s.total() as f64),
        ("store.hits".to_owned(), s.hits as f64),
        ("store.inserts".to_owned(), s.inserts as f64),
        (
            "store.hit_ratio".to_owned(),
            ratio(s.hits as f64, s.total() as f64),
        ),
        ("store.files".to_owned(), disk.files as f64),
        (
            "store.disk_mb".to_owned(),
            disk.bytes as f64 / f64::from(1 << 20),
        ),
    ]);
}

fn engine_layer(total: &StageStats, wall: f64, values: &mut BTreeMap<String, f64>) {
    let busy: f64 = total.engines.iter().map(|(_, d)| d.busy_seconds()).sum();
    if busy == 0.0 {
        return;
    }
    for (engine, drive) in total.engines.iter().filter(|(_, d)| d.lanes > 0) {
        let label = engine.label();
        values.extend([
            (format!("engine.{label}.busy_s"), drive.busy_seconds()),
            (format!("engine.{label}.branches"), drive.branches as f64),
            (
                format!("engine.{label}.mbranches_per_s"),
                drive.mbranches_per_sec(),
            ),
        ]);
    }
    let batch = total.engines.get(Engine::Batch).busy_seconds();
    values.insert("engine.batch.busy_share".to_owned(), batch / busy);
    values.insert(
        "workers.busy_frac".to_owned(),
        ratio(busy, wall * JOBS as f64),
    );
}

/// One executed plan, as its worker measured it.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The worker's measurements, by name.
    pub values: BTreeMap<String, f64>,
    /// The trace-cache directory the worker used.
    pub cache_dir: PathBuf,
}

impl Rep {
    /// A measurement by name (0 when the worker did not report it).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

fn args(plan: &PlanSpec, out: &Path, traced: bool) -> [String; 5] {
    [
        "repro".to_owned(),
        plan.scale.to_string(),
        plan.names.to_owned(),
        out.display().to_string(),
        if traced { "traced" } else { "plain" }.to_owned(),
    ]
}

/// Starts a plan worker and times its set-up, then tells it to quit:
/// a set-up sample without a run.
///
/// # Errors
///
/// Fails if the worker does not start or exit cleanly.
pub fn setup_only(exe: &Path, plan: &PlanSpec, cache: &Path, out: &Path) -> io::Result<f64> {
    let args = args(plan, out, false);
    let (mut worker, _, setup) = Worker::start(exe, &args.each_ref().map(String::as_str), cache)?;
    worker.send("quit")?;
    drop(worker);
    Ok(setup)
}

/// Executes `plan` in a fresh worker whose trace cache and result store
/// live in `cache` and whose outputs go to `out`, traced or not.
///
/// # Errors
///
/// Fails if the worker fails or reports malformed measurements.
pub fn run(exe: &Path, plan: &PlanSpec, cache: &Path, out: &Path, traced: bool) -> io::Result<Rep> {
    let args = args(plan, out, traced);
    let (mut worker, _, _) = Worker::start(exe, &args.each_ref().map(String::as_str), cache)?;
    worker.send("go")?;
    let line = worker.finish()?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {line}"));
    let json = Json::parse(&line).map_err(|e| bad(&e))?;
    let values = match json.get("values") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect(),
        _ => return Err(bad("worker result without values")),
    };
    let cache_dir = json
        .get("cache_dir")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("worker result without cache_dir"))?;
    Ok(Rep {
        values,
        cache_dir: PathBuf::from(cache_dir),
    })
}
