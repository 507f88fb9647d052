//! Trace generation and caching for the experiment suites.
//!
//! Workload traces are deterministic, so they are generated once per
//! (workload, scale) and cached — in memory within a `TraceSet`, and
//! optionally on disk in the binary codec so repeated `repro`
//! invocations skip regeneration. The harness holds every trace in one
//! form only, the packed (SoA) [`PackedTrace`], and never builds the
//! array-of-structs `Trace`: a cache hit streams the file straight into
//! a [`PackedTraceBuilder`], and a miss runs the workload's generator
//! once into the builder and, through a [`BinaryWriter`], into the
//! cache file's temp twin, which is renamed into place.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

use bpred_trace::{BinaryWriter, PackedTrace, PackedTraceBuilder};
use bpred_workloads::{Scale, Suite, Workload};

use crate::parallel;

/// Cache-format version; bump on binary-codec changes. Generator
/// changes need no bump: cache files are also keyed by
/// [`bpred_workloads::source_digest`], so editing any workload kernel
/// (or the tracer or scale table) re-keys every cached trace
/// automatically.
const CACHE_VERSION: u32 = 5;

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
/// Packed traces built, one per [`load_trace`] call: streamed from a
/// cache hit or packed from a generated trace.
static PACKS_BUILT: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-wide trace-cache counters.
///
/// A *hit* is a trace served from the on-disk cache; a *miss* is a
/// trace generated from its workload kernel (whether or not a cache
/// write followed); a *pack* is one [`PackedTrace`] built by
/// [`load_trace`], so every load counts one. Counters are monotone;
/// attribute work to a stage by differencing two snapshots with
/// [`CacheCounters::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Traces loaded from the on-disk cache.
    pub hits: u64,
    /// Traces regenerated from their workload kernels.
    pub misses: u64,
    /// Packed (SoA) traces built.
    pub packs_built: u64,
}

impl CacheCounters {
    /// The activity recorded between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            packs_built: self.packs_built.saturating_sub(earlier.packs_built),
        }
    }
}

/// Reads the current trace-cache counters.
#[must_use]
pub fn cache_counters() -> CacheCounters {
    // Independently monotone statistics; snapshots are differenced,
    // never used to synchronize other memory, so Relaxed suffices
    // (model-checked in race/metrics, which covers this counter shape).
    CacheCounters {
        hits: CACHE_HITS.load(Ordering::Relaxed), // ordering-audited: statistic, see above
        misses: CACHE_MISSES.load(Ordering::Relaxed), // ordering-audited: statistic, see above
        packs_built: PACKS_BUILT.load(Ordering::Relaxed), // ordering-audited: statistic, see above
    }
}

/// The packed traces of a set of workloads at one scale.
#[derive(Debug)]
pub struct TraceSet {
    scale: Scale,
    entries: Vec<(Workload, PackedTrace)>,
}

/// Where on-disk trace caching lives, if enabled.
fn cache_dir() -> Option<PathBuf> {
    if std::env::var_os("BPRED_NO_TRACE_CACHE").is_some() {
        return None;
    }
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        let base = std::env::var_os("BPRED_TRACE_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("bpred-trace-cache"));
        fs::create_dir_all(&base).ok().map(|()| base)
    })
    .clone()
}

/// The on-disk trace cache directory, or `None` when caching is
/// disabled (`BPRED_NO_TRACE_CACHE`) or the directory can't be made.
/// Exposed so run manifests can record cache provenance.
#[must_use]
pub fn cache_location() -> Option<PathBuf> {
    cache_dir()
}

fn cached_path(workload: &Workload, scale: Scale) -> Option<PathBuf> {
    cache_dir().map(|d| {
        d.join(format!(
            "v{CACHE_VERSION}-{:016x}-{}-{scale}.bptr",
            bpred_workloads::source_digest(),
            workload.name()
        ))
    })
}

/// A cache file being written: records stream into a uniquely named
/// temp file in the same directory, which [`CacheFile::publish`] renames
/// into place once the generator has returned and the header's record
/// count is patched. Readers never observe a half-written file (a crash
/// mid-write leaves only the temp file behind) and concurrent writers
/// of the same trace race harmlessly — renames are atomic and both
/// sides wrote identical bytes.
struct CacheFile<'p> {
    path: &'p Path,
    tmp: PathBuf,
    writer: BinaryWriter<BufWriter<File>>,
}

impl<'p> CacheFile<'p> {
    /// Starts the temp twin of `path` with the header of a trace named
    /// `name`, or `None` if it cannot be created.
    fn create(path: &'p Path, name: &str) -> Option<Self> {
        static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed) // ordering-audited: uniqueness needs only RMW atomicity; nothing is published through the counter
        ));
        let file = File::create(&tmp).ok()?;
        match BinaryWriter::new(BufWriter::new(file), name) {
            Ok(writer) => Some(Self { path, tmp, writer }),
            Err(_) => {
                fs::remove_file(&tmp).ok();
                None
            }
        }
    }

    /// Patches the record count and renames the file into place.
    /// Best-effort: a failure removes the temp file and costs only a
    /// regeneration next time.
    fn publish(self) {
        let written = self.writer.finish().is_ok();
        if !written || fs::rename(&self.tmp, self.path).is_err() {
            fs::remove_file(&self.tmp).ok();
        }
    }
}

/// Streams a binary-codec trace into a [`PackedTraceBuilder`], or
/// `None` if the bytes do not decode. Nothing is sized from the
/// header's record count, so a lying header costs only the bytes that
/// are really there.
fn stream_packed(reader: impl Read) -> Option<PackedTrace> {
    let stream = bpred_trace::stream_binary(reader).ok()?;
    let mut builder = PackedTraceBuilder::new(stream.name());
    for record in stream {
        builder.append(&record.ok()?).ok()?;
    }
    Some(builder.finish())
}

/// Loads one workload's packed trace through the cache file at `path`
/// (`None`: caching disabled), returning it and whether the file
/// served it. A file that fails to decode is removed and the trace is
/// regenerated: the generator runs once, into the packed builder and,
/// when the cache file can be written, into that file beside it.
fn load_through(path: Option<&Path>, workload: &Workload, scale: Scale) -> (PackedTrace, bool) {
    if let Some(path) = path {
        if let Ok(file) = File::open(path) {
            if let Some(packed) = stream_packed(BufReader::new(file)) {
                return (packed, true);
            }
            // Corrupt cache entry: fall through and regenerate.
            fs::remove_file(path).ok();
        }
    }
    let mut builder = PackedTraceBuilder::new(workload.name());
    match path.and_then(|path| CacheFile::create(path, workload.name())) {
        Some(mut file) => {
            workload.generate(scale, &mut (&mut builder, &mut file.writer));
            file.publish();
        }
        None => workload.generate(scale, &mut builder),
    }
    (builder.finish(), false)
}

/// Loads one workload's trace from the cache, or generates it, packed.
#[must_use]
pub fn load_trace(workload: &Workload, scale: Scale) -> PackedTrace {
    let (packed, hit) = load_through(cached_path(workload, scale).as_deref(), workload, scale);
    let counter = if hit { &CACHE_HITS } else { &CACHE_MISSES };
    counter.fetch_add(1, Ordering::Relaxed); // ordering-audited: statistic, see `cache_counters`
    PACKS_BUILT.fetch_add(1, Ordering::Relaxed); // ordering-audited: statistic, see `cache_counters`
    packed
}

impl TraceSet {
    /// Loads the traces of the given workloads in parallel.
    #[must_use]
    pub fn of(workloads: Vec<Workload>, scale: Scale, jobs: Option<usize>) -> Self {
        let entries = parallel::map(workloads, jobs, |w| (*w, load_trace(w, scale)));
        Self { scale, entries }
    }

    /// The scale the traces were generated at.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// All (workload, trace) pairs, in registry order.
    #[must_use]
    pub fn entries(&self) -> &[(Workload, PackedTrace)] {
        &self.entries
    }

    /// The entries belonging to one suite.
    pub fn suite(&self, suite: Suite) -> impl Iterator<Item = &(Workload, PackedTrace)> {
        self.entries.iter().filter(move |(w, _)| w.suite() == suite)
    }

    /// Looks up one workload's trace by name.
    #[must_use]
    pub fn trace(&self, name: &str) -> Option<&PackedTrace> {
        self.entries
            .iter()
            .find(|(w, _)| w.name() == name)
            .map(|(_, t)| t)
    }

    /// Every trace, in registry order.
    #[must_use]
    pub fn all_packed(&self) -> Vec<&PackedTrace> {
        self.entries.iter().map(|(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of this test's own: the process-wide cache directory
    /// is shared by every test in this binary, which run concurrently.
    fn private_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bpred-tc-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn temp_files(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .expect("readable dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().contains(".tmp."))
            .collect()
    }

    #[test]
    fn loads_and_caches_a_trace() {
        let dir = std::env::temp_dir().join(format!("bpred-tc-test-{}", std::process::id()));
        // Isolate the cache via the env var; tests in this process run
        // the OnceLock once, so set it before the first call.
        std::env::set_var("BPRED_TRACE_CACHE", &dir);
        let w = Workload::by_name("compress").expect("registered");
        let a = load_trace(&w, Scale::Smoke);
        let b = load_trace(&w, Scale::Smoke);
        assert_eq!(a, b, "cache round-trip must be lossless");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_and_warm_loads_pack_every_workload_identically() {
        let dir = private_dir("loads");
        for w in Workload::all() {
            let trace = w.trace(Scale::Smoke);
            let want = PackedTrace::build(&trace).expect("packs");
            let mut bytes = Vec::new();
            bpred_trace::write_binary(&trace, &mut bytes).expect("encodes");
            drop(trace);
            let path = dir.join(format!("{}.bptr", w.name()));
            let (cold, hit) = load_through(Some(&path), &w, Scale::Smoke);
            assert!(!hit, "{}: an empty cache generates", w.name());
            assert_eq!(cold, want, "{}: generated", w.name());
            assert!(
                fs::read(&path).expect("the miss wrote the cache file") == bytes,
                "{}: the streamed cache file is write_binary's bytes",
                w.name()
            );
            let (warm, hit) = load_through(Some(&path), &w, Scale::Smoke);
            assert!(hit, "{}: the written cache serves", w.name());
            assert_eq!(warm, want, "{}: streamed from the cache", w.name());
        }
        assert!(temp_files(&dir).is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_files_regenerate_as_one_miss() {
        let w = Workload::by_name("compress").expect("registered");
        let trace = w.trace(Scale::Smoke);
        let want = PackedTrace::build(&trace).expect("packs");
        let mut good = Vec::new();
        bpred_trace::write_binary(&trace, &mut good).expect("encodes");
        // magic, version, name length, name, record count.
        let body = 4 + 1 + 4 + trace.name().len() + 8;
        let mut cut = good.clone();
        cut.truncate(body + 17 * 10 + 5);
        let mut bad_kind = good.clone();
        bad_kind[body + 16] = 7 << 1;
        let mut oversized = good.clone();
        oversized[body - 8..body].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let mut lowered = good.clone();
        lowered[body - 8..body].copy_from_slice(&10u64.to_le_bytes());
        let mut unpatched = good;
        unpatched[body - 8..body].copy_from_slice(&0u64.to_le_bytes());

        let dir = private_dir("corrupt");
        let path = dir.join("compress.bptr");
        for (case, bytes) in [
            ("cut", cut),
            ("bad kind", bad_kind),
            ("oversized", oversized),
            ("count lowered", lowered),
            ("count 0 with records", unpatched),
        ] {
            fs::write(&path, bytes).expect("write corrupt cache");
            let (packed, hit) = load_through(Some(&path), &w, Scale::Smoke);
            assert!(!hit, "{case}: a corrupt file is a miss");
            assert_eq!(packed, want, "{case}: regenerated");
            assert!(temp_files(&dir).is_empty(), "{case}: temp files left");
            let (again, hit) = load_through(Some(&path), &w, Scale::Smoke);
            assert!(hit && again == want, "{case}: the rewritten cache serves");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_files_are_keyed_by_the_generator_source_digest() {
        let w = Workload::by_name("compress").expect("registered");
        let path = cached_path(&w, Scale::Smoke).expect("cache enabled in tests");
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name");
        assert!(
            name.contains(&format!("{:016x}", bpred_workloads::source_digest())),
            "editing a workload kernel must re-key the cache: {name}"
        );
        assert!(
            name.contains("compress") && name.contains("smoke"),
            "{name}"
        );
    }

    #[test]
    fn concurrent_loads_agree_and_leave_no_temp_files() {
        let w = Workload::by_name("groff").expect("registered");
        let traces: Vec<PackedTrace> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| load_trace(&w, Scale::Smoke)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for t in &traces[1..] {
            assert_eq!(
                *t, traces[0],
                "every concurrent load must see the same trace"
            );
        }
        if let Some(dir) = cache_dir() {
            // Scope to this test's workload: other tests write the
            // shared dir concurrently.
            let leftovers: Vec<PathBuf> = temp_files(&dir)
                .into_iter()
                .filter(|p| p.to_string_lossy().contains("groff"))
                .collect();
            assert!(
                leftovers.is_empty(),
                "temp files must not survive: {leftovers:?}"
            );
        }
    }

    #[test]
    fn stale_temp_files_do_not_break_cache_reads() {
        let w = Workload::by_name("compress").expect("registered");
        let a = load_trace(&w, Scale::Smoke);
        let dead = cached_path(&w, Scale::Smoke).map(|p| p.with_extension("tmp.dead.0"));
        if let Some(dead) = &dead {
            // Simulate a crashed writer: a half-written temp neighbour.
            fs::write(dead, b"partial garbage").ok();
        }
        let b = load_trace(&w, Scale::Smoke);
        assert_eq!(a, b);
        if let Some(dead) = &dead {
            fs::remove_file(dead).ok();
        }
    }

    #[test]
    fn cache_counters_track_loads_and_packs() {
        let w = Workload::by_name("compress").expect("registered");
        let before = cache_counters();
        let _ = load_trace(&w, Scale::Smoke);
        let _ = TraceSet::of(vec![w], Scale::Smoke, Some(1));
        let delta = cache_counters().since(&before);
        // Other tests share the process-wide counters, so assert floors.
        assert!(
            delta.hits + delta.misses >= 2,
            "two loads must be counted: {delta:?}"
        );
        assert!(delta.packs_built >= 2, "one pack per load: {delta:?}");
    }

    #[test]
    fn trace_set_indexes_by_name_and_suite() {
        let set = TraceSet::of(
            vec![
                Workload::by_name("compress").unwrap(),
                Workload::by_name("groff").unwrap(),
            ],
            Scale::Smoke,
            Some(2),
        );
        let compress = set.trace("compress").expect("present");
        assert_eq!(compress.name(), "compress");
        assert!(set.trace("nope").is_none());
        assert_eq!(set.suite(Suite::SpecInt95).count(), 1);
        assert_eq!(set.suite(Suite::IbsUltrix).count(), 1);
        assert_eq!(set.scale(), Scale::Smoke);
        assert_eq!(set.entries().len(), 2);
        assert!(std::ptr::eq(set.all_packed()[0], compress));
    }
}
