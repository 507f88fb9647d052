//! Structured run manifests: the machine-readable record of one
//! orchestrated run.
//!
//! After [`crate::orchestrate::execute`] finishes, the harness writes
//! `results/run-<name>.json` describing everything that happened:
//! per-experiment wall time and throughput, branches simulated and
//! configurations driven, trace-cache and result-store provenance
//! (jobs planned, served cached, computed fresh), the scale and job
//! budget, and the crate version. CI parses the manifest back with
//! [`Manifest::validate`] to prove a run actually covered every
//! registered experiment with real work behind it — where "real work"
//! means every planned job is accounted for as either cached or
//! computed, and computed configurations simulated branches.
//!
//! The workspace has no serde (offline, no new dependencies), so this
//! module carries its own tiny JSON value type with an emitter and a
//! recursive-descent parser — enough for the manifest schema and
//! nothing more. The parser takes untrusted files (`repro
//! manifest-check`), so it is linear in the input and bounds its
//! recursion at 64 levels of nesting.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use bpred_analysis::metrics::{Engine, EngineDrive};
use bpred_workloads::Scale;

use crate::observe::StageStats;

/// Manifest schema version; bump on breaking layout changes.
/// v2 added result-store provenance: per-stage `jobs_cached` /
/// `jobs_computed` / `results_inserted` and the top-level
/// `result_store` object. v3 added the per-stage `engines` breakdown
/// (branches, lanes, busy time and Mbranches/s per execution engine),
/// whose branch/lane sums must equal the stage totals.
pub const SCHEMA_VERSION: u64 = 3;

/// The deepest array/object nesting [`Json::parse`] accepts. A run
/// manifest nests 5 levels deep and `BENCHMARK.json` 3; the bound keeps
/// a file of nested brackets from overflowing the parser's stack.
const MAX_DEPTH: usize = 64;

/// A JSON value: the minimal tree the manifest needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exact.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value as compact JSON.
    #[must_use]
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out, 0);
        out
    }

    fn emit_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&emit_number(*n)),
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.emit_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    emit_string(k, out);
                    out.push_str(": ");
                    v.emit_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input or
    /// nesting deeper than 64 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Formats a number as JSON: integral values print without a fraction,
/// non-finite values (which JSON cannot express) degrade to `null`.
fn emit_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_owned();
    }
    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        format!("{}", n as i64)
    } else {
        format!("{n:?}")
    }
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|()| Json::Null),
            Some(b't') => self.eat_literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        let n = text
            .parse::<f64>()
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
        // `1e999` parses to infinity; JSON cannot express non-finite
        // values, so overflowing literals are malformed, not infinite.
        if !n.is_finite() {
            return Err(format!("non-finite number `{text}` at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are outside the manifest's
                            // character repertoire; degrade gracefully.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once: both are ASCII, so the run ends on a
                    // character boundary of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    s.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// One experiment's row in the manifest.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Registry name.
    pub name: String,
    /// Paper artefact reproduced.
    pub artefact: String,
    /// Configuration-grid summary from the registry.
    pub grid: String,
    /// Observed wall time and work counters for the stage.
    pub stats: StageStats,
    /// Number of report sections (tables) produced.
    pub sections: usize,
    /// Number of prose notes produced.
    pub notes: usize,
}

/// The structured record of one orchestrated run.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Run name: `all`, or the experiment names joined with `+`.
    pub run: String,
    /// Scale the run executed at.
    pub scale: Scale,
    /// Explicit job budget, if one was given.
    pub jobs: Option<usize>,
    /// On-disk trace cache directory, if caching was enabled.
    pub cache_dir: Option<PathBuf>,
    /// On-disk result-store directory, if the store was available.
    pub store_dir: Option<PathBuf>,
    /// Result-store mode the run executed under (`normal`, `refresh`,
    /// or `disabled`).
    pub store_mode: String,
    /// The shared trace-generation stage.
    pub trace_stage: StageStats,
    /// One record per executed experiment, in run order.
    pub experiments: Vec<ExperimentRecord>,
    /// Whole-run totals (trace stage plus every experiment).
    pub total: StageStats,
}

fn engine_drive_json(drive: &EngineDrive) -> Json {
    Json::Obj(vec![
        ("branches".to_owned(), Json::Num(drive.branches as f64)),
        ("lanes".to_owned(), Json::Num(drive.lanes as f64)),
        ("busy_s".to_owned(), Json::Num(drive.busy_seconds())),
        (
            "mbranches_per_s".to_owned(),
            Json::Num(drive.mbranches_per_sec()),
        ),
    ])
}

fn engines_json(stats: &StageStats) -> Json {
    Json::Obj(
        stats
            .engines
            .iter()
            .map(|(engine, drive)| (engine.label().to_owned(), engine_drive_json(&drive)))
            .collect(),
    )
}

fn stage_json(stats: &StageStats) -> Json {
    Json::Obj(vec![
        ("wall_s".to_owned(), Json::Num(stats.wall.as_secs_f64())),
        ("branches".to_owned(), Json::Num(stats.branches as f64)),
        ("configs".to_owned(), Json::Num(stats.configs as f64)),
        (
            "mbranches_per_sec".to_owned(),
            Json::Num(stats.mbranches_per_sec()),
        ),
        ("cache_hits".to_owned(), Json::Num(stats.cache.hits as f64)),
        (
            "cache_misses".to_owned(),
            Json::Num(stats.cache.misses as f64),
        ),
        (
            "packs_built".to_owned(),
            Json::Num(stats.cache.packs_built as f64),
        ),
        (
            "jobs_planned".to_owned(),
            Json::Num(stats.store.total() as f64),
        ),
        ("jobs_cached".to_owned(), Json::Num(stats.store.hits as f64)),
        (
            "jobs_computed".to_owned(),
            Json::Num(stats.store.misses as f64),
        ),
        (
            "results_inserted".to_owned(),
            Json::Num(stats.store.inserts as f64),
        ),
        ("engines".to_owned(), engines_json(stats)),
    ])
}

impl Manifest {
    /// The manifest's file name: `run-<name>.json`.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("run-{}.json", self.run)
    }

    /// The manifest as a JSON tree.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let experiments = self
            .experiments
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name".to_owned(), Json::Str(e.name.clone())),
                    ("artefact".to_owned(), Json::Str(e.artefact.clone())),
                    ("grid".to_owned(), Json::Str(e.grid.clone())),
                ];
                if let Json::Obj(stage) = stage_json(&e.stats) {
                    fields.extend(stage);
                }
                fields.push(("sections".to_owned(), Json::Num(e.sections as f64)));
                fields.push(("notes".to_owned(), Json::Num(e.notes as f64)));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_owned(), Json::Num(SCHEMA_VERSION as f64)),
            (
                "crate_version".to_owned(),
                Json::Str(env!("CARGO_PKG_VERSION").to_owned()),
            ),
            ("run".to_owned(), Json::Str(self.run.clone())),
            ("scale".to_owned(), Json::Str(self.scale.to_string())),
            (
                "jobs".to_owned(),
                self.jobs.map_or(Json::Null, |j| Json::Num(j as f64)),
            ),
            (
                "trace_cache".to_owned(),
                Json::Obj(vec![
                    (
                        "dir".to_owned(),
                        self.cache_dir
                            .as_ref()
                            .map_or(Json::Null, |d| Json::Str(d.display().to_string())),
                    ),
                    ("hits".to_owned(), Json::Num(self.total.cache.hits as f64)),
                    (
                        "misses".to_owned(),
                        Json::Num(self.total.cache.misses as f64),
                    ),
                    (
                        "packs_built".to_owned(),
                        Json::Num(self.total.cache.packs_built as f64),
                    ),
                ]),
            ),
            (
                "result_store".to_owned(),
                Json::Obj(vec![
                    (
                        "dir".to_owned(),
                        self.store_dir
                            .as_ref()
                            .map_or(Json::Null, |d| Json::Str(d.display().to_string())),
                    ),
                    ("mode".to_owned(), Json::Str(self.store_mode.clone())),
                    (
                        "jobs_planned".to_owned(),
                        Json::Num(self.total.store.total() as f64),
                    ),
                    (
                        "jobs_cached".to_owned(),
                        Json::Num(self.total.store.hits as f64),
                    ),
                    (
                        "jobs_computed".to_owned(),
                        Json::Num(self.total.store.misses as f64),
                    ),
                    (
                        "results_inserted".to_owned(),
                        Json::Num(self.total.store.inserts as f64),
                    ),
                ]),
            ),
            (
                "stages".to_owned(),
                Json::Obj(vec![("traces".to_owned(), stage_json(&self.trace_stage))]),
            ),
            ("experiments".to_owned(), Json::Arr(experiments)),
            ("totals".to_owned(), stage_json(&self.total)),
        ])
    }

    /// Writes the manifest to `dir/run-<name>.json`, creating `dir`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let mut text = self.to_json().emit();
        text.push('\n');
        fs::write(&path, text)?;
        Ok(path)
    }

    /// Reads the `run` field of a serialised manifest — the name that
    /// decides which experiments the manifest should cover (`all`, or
    /// experiment names joined with `+`).
    ///
    /// # Errors
    ///
    /// Returns a parse error or a message if the field is missing.
    pub fn run_of(text: &str) -> Result<String, String> {
        Json::parse(text)?
            .get("run")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "missing `run`".to_owned())
    }

    /// Validates a serialised manifest against the expected experiment
    /// set: schema version, every expected experiment present exactly
    /// once (and nothing extra), finite non-negative wall times, real
    /// work (branches > 0 wherever configs > 0), store provenance that
    /// adds up (`jobs_cached + jobs_computed == jobs_planned`, per
    /// experiment and in the totals), and positive run totals.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, as a human-readable message.
    pub fn validate(text: &str, expected: &[&str]) -> Result<String, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema}, expected {SCHEMA_VERSION}"
            ));
        }
        let experiments = doc
            .get("experiments")
            .and_then(Json::as_array)
            .ok_or("missing `experiments` array")?;
        let mut seen: Vec<&str> = Vec::new();
        for (i, e) in experiments.iter().enumerate() {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("experiment #{i}: missing `name`"))?;
            if seen.contains(&name) {
                return Err(format!("experiment `{name}` appears more than once"));
            }
            if !expected.contains(&name) {
                return Err(format!("unexpected experiment `{name}`"));
            }
            seen.push(name);
            let wall = e
                .get("wall_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{name}`: missing `wall_s`"))?;
            if !wall.is_finite() || wall < 0.0 {
                return Err(format!("`{name}`: wall_s {wall} is not a finite time"));
            }
            let branches = e
                .get("branches")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{name}`: missing `branches`"))?;
            let configs = e
                .get("configs")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{name}`: missing `configs`"))?;
            if configs > 0 && branches == 0 {
                return Err(format!(
                    "`{name}`: drove {configs} configs but simulated no branches"
                ));
            }
            let tp = e
                .get("mbranches_per_sec")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{name}`: missing `mbranches_per_sec`"))?;
            if !tp.is_finite() || tp < 0.0 {
                return Err(format!("`{name}`: throughput {tp} is not finite"));
            }
            check_store_provenance(e, name)?;
            check_engines(e, name, branches, configs)?;
        }
        for want in expected {
            if !seen.contains(want) {
                return Err(format!("experiment `{want}` missing from manifest"));
            }
        }
        let totals = doc.get("totals").ok_or("missing `totals`")?;
        let total_branches = totals
            .get("branches")
            .and_then(Json::as_u64)
            .ok_or("totals: missing `branches`")?;
        let total_configs = totals
            .get("configs")
            .and_then(Json::as_u64)
            .ok_or("totals: missing `configs`")?;
        if total_configs > 0 && total_branches == 0 {
            return Err(format!(
                "totals: drove {total_configs} configs but simulated no branches"
            ));
        }
        check_engines(totals, "totals", total_branches, total_configs)?;
        let (planned, cached, _) = check_store_provenance(totals, "totals")?;
        let store = doc.get("result_store").ok_or("missing `result_store`")?;
        store
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("result_store: missing `mode`")?;
        let (s_planned, s_cached, s_computed) = check_store_provenance(store, "result_store")?;
        if s_planned != planned {
            return Err(format!(
                "result_store planned {s_planned} jobs but totals planned {planned}"
            ));
        }
        let _ = (s_cached, s_computed);
        Ok(format!(
            "manifest OK: {} experiments, {total_branches} branches simulated, \
             {cached}/{planned} jobs served from the result store",
            seen.len()
        ))
    }
}

/// Checks one stage/summary object's per-engine breakdown: every
/// engine label present with sane numbers, and the engine branch /
/// lane sums equal to the stage's own `branches` / `configs` totals
/// (the aggregate is derived from the engine slots, so a mismatch
/// means the manifest was edited or the schema drifted).
fn check_engines(obj: &Json, name: &str, branches: u64, configs: u64) -> Result<(), String> {
    let engines = obj
        .get("engines")
        .ok_or_else(|| format!("`{name}`: missing `engines`"))?;
    let mut branch_sum: u64 = 0;
    let mut lane_sum: u64 = 0;
    for engine in Engine::ALL {
        let label = engine.label();
        let e = engines
            .get(label)
            .ok_or_else(|| format!("`{name}`: missing engine `{label}`"))?;
        let field = |key: &str| -> Result<u64, String> {
            e.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{name}`/{label}: missing `{key}`"))
        };
        branch_sum += field("branches")?;
        lane_sum += field("lanes")?;
        for key in ["busy_s", "mbranches_per_s"] {
            let v = e
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{name}`/{label}: missing `{key}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("`{name}`/{label}: {key} {v} is not finite"));
            }
        }
    }
    if branch_sum != branches {
        return Err(format!(
            "`{name}`: engine branches sum to {branch_sum}, stage total is {branches}"
        ));
    }
    if lane_sum != configs {
        return Err(format!(
            "`{name}`: engine lanes sum to {lane_sum}, stage total is {configs} configs"
        ));
    }
    Ok(())
}

/// Checks one stage/summary object's result-store accounting: the
/// three counters are present and `jobs_cached + jobs_computed ==
/// jobs_planned` (every planned job accounted for exactly once).
/// Returns `(planned, cached, computed)`.
fn check_store_provenance(obj: &Json, name: &str) -> Result<(u64, u64, u64), String> {
    let field = |key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`{name}`: missing `{key}`"))
    };
    let planned = field("jobs_planned")?;
    let cached = field("jobs_cached")?;
    let computed = field("jobs_computed")?;
    if cached + computed != planned {
        return Err(format!(
            "`{name}`: {cached} cached + {computed} computed != {planned} planned jobs"
        ));
    }
    Ok((planned, cached, computed))
}

/// The engine benchmark summary written to `BENCH_engine.json`:
/// whole-run per-engine totals plus the headline `sliced_over_batch`
/// throughput ratio. The ratio degrades to `null` when either engine
/// recorded no timed work (e.g. a fully store-warm rerun drives no
/// branches at all), so resumed runs still emit a valid document.
#[must_use]
pub fn engine_bench_json(manifest: &Manifest) -> Json {
    let batch = manifest
        .total
        .engines
        .get(Engine::Batch)
        .mbranches_per_sec();
    let sliced = manifest
        .total
        .engines
        .get(Engine::Sliced)
        .mbranches_per_sec();
    let ratio = if batch > 0.0 && sliced > 0.0 {
        Json::Num(sliced / batch)
    } else {
        Json::Null
    };
    Json::Obj(vec![
        ("schema".to_owned(), Json::Num(1.0)),
        (
            "crate_version".to_owned(),
            Json::Str(env!("CARGO_PKG_VERSION").to_owned()),
        ),
        ("run".to_owned(), Json::Str(manifest.run.clone())),
        ("scale".to_owned(), Json::Str(manifest.scale.to_string())),
        (
            "wall_s".to_owned(),
            Json::Num(manifest.total.wall.as_secs_f64()),
        ),
        ("engines".to_owned(), engines_json(&manifest.total)),
        ("sliced_over_batch".to_owned(), ratio),
    ])
}

/// Writes the engine benchmark summary to `path` (conventionally
/// `BENCH_engine.json` at the repository root, kept outside the
/// results directory so byte-identical rerun comparisons stay clean).
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_engine_bench(manifest: &Manifest, path: &Path) -> io::Result<()> {
    let mut text = engine_bench_json(manifest).emit();
    text.push('\n');
    fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::CacheCounters;
    use bpred_analysis::metrics::EngineSnapshot;
    use std::time::Duration;

    fn stats(name: &str, branches: u64, configs: u64) -> StageStats {
        StageStats {
            name: name.to_owned(),
            wall: Duration::from_millis(125),
            branches,
            configs,
            engines: EngineSnapshot::of(
                Engine::Batch,
                EngineDrive {
                    branches,
                    lanes: configs,
                    busy_nanos: 100_000_000,
                },
            ),
            cache: CacheCounters {
                hits: 1,
                misses: 2,
                packs_built: 3,
            },
            store: crate::store::StoreCounters {
                hits: 1,
                misses: configs,
                inserts: configs,
            },
        }
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            run: "fig2+table4".to_owned(),
            scale: Scale::Smoke,
            jobs: Some(4),
            cache_dir: Some(PathBuf::from("/tmp/cache")),
            store_dir: Some(PathBuf::from("/tmp/cache/results")),
            store_mode: "normal".to_owned(),
            trace_stage: stats("traces", 0, 0),
            experiments: vec![
                ExperimentRecord {
                    name: "fig2".to_owned(),
                    artefact: "Figure 2".to_owned(),
                    grid: "3 schemes x 8 sizes".to_owned(),
                    stats: stats("fig2", 52_800_000, 132),
                    sections: 2,
                    notes: 3,
                },
                ExperimentRecord {
                    name: "table4".to_owned(),
                    artefact: "Table 4".to_owned(),
                    grid: "2 schemes".to_owned(),
                    stats: stats("table4", 400_000, 2),
                    sections: 1,
                    notes: 1,
                },
            ],
            total: stats("total", 53_200_000, 134),
        }
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let original = sample_manifest().to_json();
        let parsed = Json::parse(&original.emit()).expect("own output parses");
        assert_eq!(parsed, original);
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc =
            Json::parse(r#"{"a": [1, -2.5, "x\n\"yA"], "b": {"c": null}}"#).expect("valid json");
        let arr = doc.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n\"yA"));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn validate_accepts_a_real_manifest() {
        let text = sample_manifest().to_json().emit();
        let summary = Manifest::validate(&text, &["fig2", "table4"]).expect("manifest is valid");
        assert!(summary.contains("2 experiments"), "{summary}");
    }

    #[test]
    fn validate_rejects_missing_and_unexpected_experiments() {
        let text = sample_manifest().to_json().emit();
        let err =
            Manifest::validate(&text, &["fig2", "table4", "fig5"]).expect_err("fig5 is missing");
        assert!(err.contains("fig5"), "{err}");
        let err = Manifest::validate(&text, &["fig2"]).expect_err("table4 is unexpected");
        assert!(err.contains("table4"), "{err}");
    }

    #[test]
    fn validate_rejects_configs_without_branches() {
        let mut m = sample_manifest();
        m.experiments[0].stats.branches = 0;
        let err = Manifest::validate(&m.to_json().emit(), &["fig2", "table4"])
            .expect_err("no branches behind 132 configs");
        assert!(err.contains("no branches"), "{err}");
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let text = sample_manifest()
            .to_json()
            .emit()
            .replace("\"schema\": 3", "\"schema\": 99");
        let err = Manifest::validate(&text, &["fig2", "table4"]).expect_err("wrong schema");
        assert!(err.contains("99"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_engine_blocks() {
        let text = sample_manifest()
            .to_json()
            .emit()
            .replace("\"sliced\"", "\"slicedX\"");
        let err = Manifest::validate(&text, &["fig2", "table4"]).expect_err("engine renamed");
        assert!(err.contains("missing engine `sliced`"), "{err}");
    }

    #[test]
    fn validate_rejects_engine_branches_disagreeing_with_the_stage() {
        // Bump fig2's stage-level branch count (the first occurrence in
        // document order); the engine breakdown still sums to the old
        // figure, so the cross-check must fire.
        let text = sample_manifest().to_json().emit().replacen(
            "\"branches\": 52800000",
            "\"branches\": 52800001",
            1,
        );
        let err = Manifest::validate(&text, &["fig2", "table4"]).expect_err("mismatch");
        assert!(
            err.contains("engine branches") && err.contains("52800001"),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_engine_lanes_disagreeing_with_configs() {
        // Only fig2's batch engine carries 132 lanes in the fixture.
        let text =
            sample_manifest()
                .to_json()
                .emit()
                .replacen("\"lanes\": 132", "\"lanes\": 131", 1);
        let err = Manifest::validate(&text, &["fig2", "table4"]).expect_err("mismatch");
        assert!(err.contains("engine lanes") && err.contains("131"), "{err}");
    }

    #[test]
    fn engine_bench_reports_the_sliced_over_batch_ratio() {
        // The fixture runs everything on the batch engine, so the ratio
        // degrades to null (no sliced work — e.g. a store-warm rerun).
        let mut m = sample_manifest();
        let bench = engine_bench_json(&m);
        assert_eq!(bench.get("run").and_then(Json::as_str), Some("fig2+table4"));
        assert_eq!(bench.get("sliced_over_batch"), Some(&Json::Null));

        // Equal busy time, 3x the branches: the ratio is exactly 3.
        m.total.engines = EngineSnapshot::of(
            Engine::Batch,
            EngineDrive {
                branches: 1_000,
                lanes: 1,
                busy_nanos: 1_000_000,
            },
        )
        .plus(&EngineSnapshot::of(
            Engine::Sliced,
            EngineDrive {
                branches: 3_000,
                lanes: 3,
                busy_nanos: 1_000_000,
            },
        ));
        let bench = engine_bench_json(&m);
        let ratio = bench
            .get("sliced_over_batch")
            .and_then(Json::as_f64)
            .expect("both engines ran");
        assert!((ratio - 3.0).abs() < 1e-9, "{ratio}");
        let engines = bench.get("engines").expect("engines block");
        for engine in Engine::ALL {
            assert!(engines.get(engine.label()).is_some(), "{}", engine.label());
        }
    }

    #[test]
    fn engine_bench_writes_a_parseable_document() {
        let dir = std::env::temp_dir().join(format!("bpred-bench-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_engine.json");
        write_engine_bench(&sample_manifest(), &path).expect("bench written");
        let text = fs::read_to_string(&path).expect("readable");
        let doc = Json::parse(&text).expect("valid json");
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
        assert!(doc.get("engines").and_then(|e| e.get("batch")).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parser_rejects_malformed_escapes() {
        // Unknown escape letter.
        assert!(Json::parse(r#""\x""#).is_err());
        // Backslash at end of input.
        assert!(Json::parse(r#""\"#).is_err());
        // \u with too few hex digits, or non-hex digits.
        assert!(Json::parse(r#""\u12""#).is_err());
        assert!(Json::parse(r#""\u""#).is_err());
        assert!(Json::parse(r#""\u00zz""#).is_err());
        // A sign is not a hex digit, though `from_str_radix` takes one.
        assert!(Json::parse(r#""\u+041""#).is_err());
        // A valid \u escape still parses.
        assert_eq!(
            Json::parse(r#""\u0041""#).expect("valid escape").as_str(),
            Some("A")
        );
    }

    #[test]
    fn parser_rejects_every_truncation_of_a_real_manifest() {
        let text = sample_manifest().to_json().emit();
        assert!(text.is_ascii(), "prefix slicing assumes ASCII");
        for cut in 0..text.len() {
            assert!(
                Json::parse(&text[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn any_single_bit_flip_of_a_real_manifest_never_panics() {
        let text = sample_manifest().to_json().emit();
        assert!(Manifest::validate(&text, &["fig2", "table4"]).is_ok());
        let mut bytes = text.into_bytes();
        let mut still_text = 0;
        for bit in 0..8 * bytes.len() {
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Ok(flipped) = std::str::from_utf8(&bytes) {
                // `validate` parses first. Ok or Err are both fine; the
                // property is that it returns.
                still_text += 1;
                let _ = Manifest::validate(flipped, &["fig2", "table4"]);
            }
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        // The manifest is ASCII: every flip but the top bit's stays text.
        assert_eq!(still_text, 7 * bytes.len());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Far past the bound, objects included: an error, not a stack
        // overflow.
        let deep = "{\"a\":[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        assert!(Json::parse(&"[".repeat(400_000)).is_err());
    }

    #[test]
    fn long_strings_parse_whole() {
        let run = "a".repeat(200_000);
        let text = format!("{{\"run\": \"{run}\\n\u{e9}{run}\\u0041\"}}");
        let doc = Json::parse(&text).expect("parses");
        let want = format!("{run}\n\u{e9}{run}A");
        assert_eq!(doc.get("run").and_then(Json::as_str), Some(want.as_str()));
        assert!(Json::parse(&format!("\"{run}")).is_err(), "unterminated");
    }

    #[test]
    fn parser_rejects_non_finite_numbers() {
        // Overflowing literals parse to infinity in Rust; JSON cannot
        // express them, so they must be rejected.
        assert!(Json::parse("1e999")
            .expect_err("inf")
            .contains("non-finite"));
        assert!(Json::parse("-1e999").is_err());
        assert!(Json::parse("[1, 1e999]").is_err());
        // The identifiers some emitters produce are not JSON either.
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("Infinity").is_err());
        assert!(Json::parse("-Infinity").is_err());
        // On the emit side, non-finite numbers degrade to null.
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
        assert_eq!(Json::Num(f64::INFINITY).emit(), "null");
        assert_eq!(emit_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn validate_rejects_provenance_that_does_not_add_up() {
        // fig2 planned 133 = 1 cached + 132 computed; breaking the sum
        // must be the first violation reported.
        let text = sample_manifest()
            .to_json()
            .emit()
            .replace("\"jobs_planned\": 133", "\"jobs_planned\": 200");
        let err = Manifest::validate(&text, &["fig2", "table4"]).expect_err("bad sum");
        assert!(err.contains("cached") && err.contains("200"), "{err}");
    }

    #[test]
    fn validate_rejects_result_store_disagreeing_with_totals() {
        // Shrink the result_store block (the first occurrence of the
        // totals' counters in document order) while keeping its own sum
        // consistent; the cross-check against `totals` must fire.
        let text = sample_manifest()
            .to_json()
            .emit()
            .replacen("\"jobs_planned\": 135", "\"jobs_planned\": 100", 1)
            .replacen("\"jobs_computed\": 134", "\"jobs_computed\": 99", 1);
        let err = Manifest::validate(&text, &["fig2", "table4"]).expect_err("mismatch");
        assert!(err.contains("100") && err.contains("135"), "{err}");
    }

    // ---- property tests: the emitter and parser agree on every tree ----

    use proptest::prelude::*;

    /// Strings exercising every escape class the emitter produces:
    /// quotes, backslashes, named escapes, raw control characters
    /// (emitted as `\u....`), and multi-byte UTF-8.
    fn json_string() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec![
                'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '☃',
            ]),
            0..10,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    /// Finite numbers: large exact integers and short fractions (both
    /// survive the `{:?}` emit / `str::parse` round-trip exactly).
    fn json_number() -> BoxedStrategy<f64> {
        prop_oneof![
            (-1_000_000_000_000i64..1_000_000_000_000).prop_map(|n| n as f64),
            ((-1_000_000i64..1_000_000), (1u32..1000)).prop_map(|(n, d)| n as f64 / f64::from(d)),
        ]
        .boxed()
    }

    fn json_leaf() -> BoxedStrategy<Json> {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            json_number().prop_map(Json::Num),
            json_string().prop_map(Json::Str),
        ]
        .boxed()
    }

    /// Trees of bounded depth (the vendored shim has no
    /// `prop_recursive`, so nesting is unrolled manually).
    fn json_tree(depth: u32) -> BoxedStrategy<Json> {
        if depth == 0 {
            return json_leaf();
        }
        let inner = json_tree(depth - 1);
        prop_oneof![
            json_leaf(),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((json_string(), inner), 0..4).prop_map(Json::Obj),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn arbitrary_trees_roundtrip_through_emit_and_parse(doc in json_tree(3)) {
            let text = doc.emit();
            let parsed = Json::parse(&text).expect("own emit must parse");
            prop_assert_eq!(parsed, doc);
        }

        #[test]
        fn truncating_arbitrary_documents_never_panics(doc in json_tree(2)) {
            let text = doc.emit();
            for (cut, _) in text.char_indices() {
                // A prefix of a scalar document can itself be valid
                // JSON; the property is that parse always *returns*
                // (Ok or Err), never panics.
                let _ = Json::parse(&text[..cut]);
            }
        }
    }

    #[test]
    fn write_creates_the_named_file() {
        let dir = std::env::temp_dir().join(format!("bpred-manifest-{}", std::process::id()));
        let m = sample_manifest();
        let path = m.write(&dir).expect("manifest written");
        assert!(path.ends_with("run-fig2+table4.json"));
        let text = fs::read_to_string(&path).expect("readable");
        assert!(Manifest::validate(&text, &["fig2", "table4"]).is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
