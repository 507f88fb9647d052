//! Host plumbing: process accounting from `/proc`, worker processes
//! that are always reaped, the scratch directory a benchmark process
//! works in, and the host fingerprint a ledger records.

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat`: 100 on
/// every Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process, counting every thread
/// it has run, exited ones included.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; the fields after its
    // closing parenthesis are plain, starting at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or_else(Vec::new, |(_, rest)| rest.split_whitespace().collect());
    let ticks = |field: usize| {
        fields
            .get(field - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / CLOCK_TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A `bpred-bench worker` child process. However the parent leaves
/// scope, the child is killed if still running and always waited for.
#[derive(Debug)]
pub struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts `<exe> worker <args>` with its trace cache, and so its
    /// result store, under `cache`, and waits for the `ready` line the
    /// worker prints once set up. Returns the worker, the rest of that
    /// line, and the set-up time from spawn to ready in seconds.
    ///
    /// # Errors
    ///
    /// Fails if the process cannot start or does not report ready.
    pub fn start(exe: &Path, args: &[&str], cache: &Path) -> io::Result<(Worker, String, f64)> {
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("worker")
            .args(args)
            .env("BPRED_TRACE_CACHE", cache)
            .env_remove("BPRED_NO_TRACE_CACHE")
            .env_remove("BPRED_NO_RESULT_STORE")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut worker = Worker {
            child,
            stdin,
            stdout: stdout.ok_or_else(|| invalid("worker stdout is not piped".to_owned()))?,
        };
        let line = worker.read_line()?;
        let rest = line
            .strip_prefix("ready")
            .ok_or_else(|| invalid(format!("worker announced `{line}` instead of ready")))?
            .trim()
            .to_owned();
        Ok((worker, rest, started.elapsed().as_secs_f64()))
    }

    /// Sends one line to the worker's standard input.
    ///
    /// # Errors
    ///
    /// Fails if the worker's input is closed.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| invalid("worker input already closed".to_owned()))?;
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(invalid("worker exited without a reply".to_owned()));
        }
        Ok(line.trim_end().to_owned())
    }

    /// Reads the worker's result line and waits for it to exit cleanly.
    ///
    /// # Errors
    ///
    /// Fails if the worker prints no result or exits unsuccessfully.
    pub fn finish(mut self) -> io::Result<String> {
        let line = self.read_line()?;
        self.stdin = None;
        let status = self.child.wait()?;
        if status.success() {
            Ok(line)
        } else {
            Err(invalid(format!("worker failed with {status}")))
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stdin = None;
        // Both fail harmlessly once the child has been reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The checkout this benchmark was built in: the parent of its package
/// directory.
#[must_use]
pub fn checkout() -> &'static Path {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    package.parent().unwrap_or(package)
}

/// Where benchmark processes keep their scratch directories: inside the
/// checkout (and ignored by git), never the system temp directory.
#[must_use]
pub fn scratch_root() -> PathBuf {
    checkout().join(".bench_tmp")
}

/// Removes a directory tree, treating "already gone" as success.
///
/// # Errors
///
/// Propagates any other failure.
pub fn remove_tree(path: &Path) -> io::Result<()> {
    match fs::remove_dir_all(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The scratch directory of one benchmark process,
/// `.bench_tmp/<pid>`, removed with everything in it on drop.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    /// Creates this process's scratch directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn create() -> io::Result<WorkDir> {
        WorkDir::named(std::process::id().to_string())
    }

    fn named(name: String) -> io::Result<WorkDir> {
        let root = scratch_root().join(name);
        remove_tree(&root)?;
        fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A scratch directory of its own for one unit test: tests share
    /// the process, and so its id.
    #[cfg(test)]
    pub(crate) fn for_test(tag: &str) -> WorkDir {
        WorkDir::named(format!("unit-{tag}-{}", std::process::id())).expect("scratch directory")
    }

    /// The directory itself.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A new, not yet existing path `<tag>-<n>` inside the directory.
    #[must_use]
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = remove_tree(&self.root);
        // Removes `.bench_tmp` only when no other process still uses it.
        if let Some(parent) = self.root.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// The commit the checkout is at, read from `.git` without running git,
/// or `unknown` (a plain source tree).
fn git_commit() -> String {
    let git = checkout().join(".git");
    let head = fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_owned();
    };
    fs::read_to_string(git.join(reference))
        .ok()
        .or_else(|| {
            fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(str::to_owned))
        })
        .map_or_else(|| "unknown".to_owned(), |c| c.trim().to_owned())
}

/// What a measurement depends on besides the code: cores, CPU model,
/// compiler, commit and the pinned thread budget.
#[must_use]
pub fn fingerprint(jobs: usize) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", git_commit()),
        ("jobs", jobs.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_proc() {
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn work_dirs_hand_out_distinct_paths_inside_the_checkout() {
        let work = WorkDir::for_test("workdir");
        let root = work.path().to_path_buf();
        let (a, b) = (work.fresh("out"), work.fresh("out"));
        assert_ne!(a, b);
        assert!(a.starts_with(checkout()));
        fs::create_dir_all(&a).expect("create");
        drop(work);
        assert!(!root.exists(), "drop removes the tree");
    }
}
