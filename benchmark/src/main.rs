//! `bpred-bench` — the controlled benchmark of the bi-mode reproduction.
//!
//! ```text
//! bpred-bench [run] [--workload W]... [--seed N] [--seconds S] [--runs K] [--json FILE]
//! bpred-bench --workload W --seed N --seconds S --trace 0|1
//! bpred-bench compare PARENT.json CHANGE.json
//! bpred-bench reference
//! ```
//!
//! With `--trace`, one run of one workload prints its result as a
//! single JSON line, last on standard output. Without it, `run` measures
//! each workload `--runs` times, adds one traced run, prints a table and
//! optionally writes a ledger that `compare` reads. `reference`
//! re-records the committed output digests. See README.md.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bpred_benchmark::definition::{definition, Metric};
use bpred_benchmark::host::{self, remove_tree, WorkDir};
use bpred_benchmark::repro::{self, one_line, JOBS, PAPER_FIG2, SMOKE_ALL};
use bpred_benchmark::stats::{median, quartiles, spread, verdict, wins, Verdict};
use bpred_benchmark::workload::{self, Bench, Outcome, Workload, TRACED_WALL};
use bpred_benchmark::{outputs, serve};
use bpred_harness::manifest::Json;

const USAGE: &str = "usage: bpred-bench [run] [--workload W]... [--seed N] [--seconds S] \
[--runs K] [--json FILE] [--trace 0|1]\n       bpred-bench compare PARENT.json CHANGE.json\n       \
bpred-bench reference";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("reference") => bench().and_then(|b| reference(&b)),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bpred-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn worker(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("repro") => repro::worker(&args[1..])?,
        Some("serve") => serve::worker()?,
        _ => return Err("usage: bpred-bench worker repro|serve ...".to_owned()),
    }
    Ok(ExitCode::SUCCESS)
}

/// The benchmark context. Creating it also points this process's own
/// trace cache and result store (used by the micro-phases) into its
/// scratch directory, before any harness call can read the default.
fn bench() -> Result<Bench, String> {
    let work =
        WorkDir::create().map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    std::env::set_var("BPRED_TRACE_CACHE", work.path().join("harness"));
    std::env::remove_var("BPRED_NO_TRACE_CACHE");
    std::env::remove_var("BPRED_NO_RESULT_STORE");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(Bench { exe, work })
}

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: Option<bool>,
    json: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: definition().run_seconds as f64,
        runs: 1,
        trace: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: `{value}`"))
        };
        match flag.as_str() {
            "--workload" => o.workloads.push(Workload::parse(value).ok_or(format!(
                "unknown workload `{value}`; workloads: {}",
                Workload::ALL.map(Workload::name).join(", ")
            ))?),
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()? as f64,
            "--runs" => o.runs = usize::try_from(number()?.max(1)).unwrap_or(1),
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            "--json" => o.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`\n{USAGE}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    if o.trace.is_some() && (o.workloads.len() != 1 || o.runs != 1) {
        return Err("--trace runs exactly one run of one workload".to_owned());
    }
    Ok(o)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_options(args)?;
    let bench = bench()?;
    match options.trace {
        Some(traced) => single_run(
            &bench,
            options.workloads[0],
            options.seed,
            options.seconds,
            traced,
        ),
        None => ledger_run(&bench, &options),
    }
}

/// The listed metrics of `outcome` as `{name: {value, unit}}`, or the
/// names it lacks.
fn listed(outcome: &Outcome, metrics: &[Metric]) -> Result<Json, String> {
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for m in metrics {
        match outcome.metrics.get(&m.name) {
            Some(&value) => fields.push((
                m.name.clone(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::Num(value)),
                    ("unit".to_owned(), Json::Str(m.unit.clone())),
                ]),
            )),
            None => missing.push(m.name.as_str()),
        }
    }
    if missing.is_empty() {
        Ok(Json::Obj(fields))
    } else {
        Err(format!("no value measured for {}", missing.join(", ")))
    }
}

fn print_metrics(title: &str, outcome: &Outcome, metrics: &[Metric]) {
    eprintln!("{title}");
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for m in metrics {
        let value = outcome.metrics.get(&m.name).copied().unwrap_or(f64::NAN);
        eprintln!("  {:<44} {value:>14.6} {}", m.name, m.unit);
    }
    eprintln!(
        "  operations: {} attempted, {} failed",
        outcome.tally.attempted, outcome.tally.failed
    );
}

/// One run of one workload: the last line of standard output is its
/// JSON result.
fn single_run(
    bench: &Bench,
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ExitCode, String> {
    let def = definition();
    for (key, value) in host::fingerprint(JOBS) {
        eprintln!("{key}: {value}");
    }
    let (outcome, metrics) = if traced {
        (workload::profile(bench, w, seed), &def.per_layer)
    } else {
        (workload::measure(bench, w, seed, seconds), &def.end_to_end)
    };
    let outcome = outcome.map_err(|e| format!("{}: {e}", w.name()))?;
    print_metrics(
        &format!(
            "{} ({})",
            w.name(),
            if traced { "traced" } else { "untraced" }
        ),
        &outcome,
        metrics,
    );
    let correct = outcome.tally.failed == 0;
    let line = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        (
            "attempted".to_owned(),
            Json::Num(outcome.tally.attempted as f64),
        ),
        ("failed".to_owned(), Json::Num(outcome.tally.failed as f64)),
        ("metrics".to_owned(), listed(&outcome, metrics)?),
    ]);
    println!("{}", one_line(&line));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--runs` untraced runs and one traced run of each workload, printed
/// as a table and optionally written as a ledger for `compare`.
fn ledger_run(bench: &Bench, o: &Options) -> Result<ExitCode, String> {
    let def = definition();
    let host = host::fingerprint(JOBS);
    for (key, value) in &host {
        println!("{key}: {value}");
    }
    let mut entries = Vec::new();
    let mut failed = 0;
    for &w in &o.workloads {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut lost) = (0, 0);
        for i in 0..o.runs as u64 {
            let outcome = workload::measure(bench, w, o.seed + i, o.seconds)
                .map_err(|e| format!("{}: {e}", w.name()))?;
            print_metrics(
                &format!("{} run {} (seed {})", w.name(), i + 1, o.seed + i),
                &outcome,
                &def.end_to_end,
            );
            for m in &def.end_to_end {
                samples
                    .entry(&m.name)
                    .or_default()
                    .push(outcome.metrics.get(&m.name).copied().unwrap_or(f64::NAN));
            }
            attempted += outcome.tally.attempted;
            lost += outcome.tally.failed;
        }
        let traced =
            workload::profile(bench, w, o.seed).map_err(|e| format!("{}: {e}", w.name()))?;
        print_metrics(&format!("{} traced", w.name()), &traced, &def.per_layer);
        attempted += traced.tally.attempted;
        lost += traced.tally.failed;
        failed += lost;

        println!(
            "\n{} — {} run(s) of {} s, {attempted} operations, {lost} failed",
            w.name(),
            o.runs,
            o.seconds
        );
        println!(
            "  {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for m in &def.end_to_end {
            let v = &samples[m.name.as_str()];
            let [q1, _, q3] = quartiles(v);
            println!(
                "  {:<14} {:>12.6} {:>12.6} {:>12.6} {:>7.2}% {:>5.0}%  {}",
                m.name,
                median(v),
                q1,
                q3,
                spread(v) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                m.unit
            );
        }
        let overhead = traced.metrics.get(TRACED_WALL).copied().unwrap_or(f64::NAN)
            - median(&samples["wall_s"]);
        println!(
            "  tracing overhead: traced unit of work minus untraced median = {overhead:+.3} s"
        );
        let per_layer: Vec<(String, Json)> = def
            .per_layer
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Num(traced.metrics.get(&m.name).copied().unwrap_or(f64::NAN)),
                )
            })
            .collect();
        let end_to_end: Vec<(String, Json)> = samples
            .iter()
            .map(|(k, v)| {
                (
                    (*k).to_owned(),
                    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                )
            })
            .collect();
        entries.push((
            w.name().to_owned(),
            Json::Obj(vec![
                ("end_to_end".to_owned(), Json::Obj(end_to_end)),
                ("per_layer".to_owned(), Json::Obj(per_layer)),
                ("attempted".to_owned(), Json::Num(attempted as f64)),
                ("failed".to_owned(), Json::Num(lost as f64)),
            ]),
        ));
    }
    if let Some(path) = &o.json {
        let ledger = Json::Obj(vec![
            (
                "host".to_owned(),
                Json::Obj(
                    host.into_iter()
                        .map(|(k, v)| (k.to_owned(), Json::Str(v)))
                        .collect(),
                ),
            ),
            ("seconds".to_owned(), Json::Num(o.seconds)),
            ("seed".to_owned(), Json::Num(o.seed as f64)),
            ("workloads".to_owned(), Json::Obj(entries)),
        ]);
        std::fs::write(path, ledger.emit() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Compares two ledgers metric by metric: medians and quartiles, wins
/// over paired runs, and a verdict by the `BENCHMARK.json` bound. Fails
/// on any regression.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err(USAGE.to_owned());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (parent, change) = (load(parent)?, load(change)?);
    let samples = |ledger: &Json, w: &str, m: &str| -> Option<Vec<f64>> {
        let values = ledger
            .get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get(m)?
            .as_array()?;
        values.iter().map(Json::as_f64).collect()
    };
    let def = definition();
    let mut regressions = 0;
    println!(
        "{:<18} {:<12} {:>30} {:>30} {:>7} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in &def.workloads {
        for m in &def.end_to_end {
            let (Some(p), Some(c)) = (samples(&parent, w, &m.name), samples(&change, w, &m.name))
            else {
                println!("{w:<18} {:<12} not in both ledgers", m.name);
                continue;
            };
            let shown = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
            };
            let (won, pairs) = wins(&p, &c, m.better);
            let v = verdict(&p, &c, m.better, m.bound.unwrap_or(0.0));
            regressions += usize::from(v == Verdict::Regression);
            println!(
                "{w:<18} {:<12} {:>30} {:>30} {:>7} {}",
                m.name,
                shown(&p),
                shown(&c),
                format!("{won}/{pairs}"),
                v.label()
            );
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the two reference plans once each and writes their output
/// digests over the committed references.
fn reference(bench: &Bench) -> Result<ExitCode, String> {
    for plan in [SMOKE_ALL, PAPER_FIG2] {
        let (cache, out) = (bench.work.fresh("cache"), bench.work.fresh("out"));
        repro::run(&bench.exe, &plan, &cache, &out, false).map_err(|e| e.to_string())?;
        let digests = outputs::digest_dir(&out).map_err(|e| e.to_string())?;
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(plan.reference_file);
        std::fs::write(&path, digests)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        remove_tree(&cache)
            .and_then(|()| remove_tree(&out))
            .map_err(|e| e.to_string())?;
    }
    Ok(ExitCode::SUCCESS)
}
