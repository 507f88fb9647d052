//! `sdet` (IBS-Ultrix analogue): the SPEC SDET systems-workload mix —
//! a process scheduler, an in-memory file-system tree with path
//! resolution, and a syscall dispatch layer.
//!
//! IBS traces include kernel activity; sdet is the most kernel-heavy of
//! them. This kernel models that with OS-style code: priority
//! scheduling (heap operations with compare branches), path-component
//! walking (string compares over a tree), permission checks (biased
//! taken), and a wide syscall dispatch fanned out over
//! [`Site::with_index`](crate::Site::with_index).

use std::collections::BTreeMap;

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

// -------------------------------------------------------------- scheduler

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Task {
    pid: u32,
    priority: u8,
    remaining: u32,
}

/// A binary max-heap run queue with traced sift branches.
#[derive(Debug, Default)]
struct RunQueue {
    heap: Vec<Task>,
}

impl RunQueue {
    fn before(a: Task, b: Task) -> bool {
        // Higher priority first; FIFO by pid within a priority.
        (a.priority, std::cmp::Reverse(a.pid)) > (b.priority, std::cmp::Reverse(b.pid))
    }

    fn push(&mut self, t: &mut Tracer, task: Task) {
        self.heap.push(task);
        let mut i = self.heap.len() - 1;
        while t.branch(site!(), i > 0) {
            let parent = (i - 1) / 2;
            if t.branch(site!(), Self::before(self.heap[i], self.heap[parent])) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self, t: &mut Tracer) -> Option<Task> {
        if t.branch(site!(), self.heap.is_empty()) {
            return None;
        }
        let top = self.heap.swap_remove(0);
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if t.branch(
                site!(),
                l < self.heap.len() && Self::before(self.heap[l], self.heap[best]),
            ) {
                best = l;
            }
            if t.branch(
                site!(),
                r < self.heap.len() && Self::before(self.heap[r], self.heap[best]),
            ) {
                best = r;
            }
            if t.branch(site!(), best == i) {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
        Some(top)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ------------------------------------------------------------ file system

#[derive(Debug)]
enum Node {
    File { size: u32, mode: u8 },
    Dir { entries: BTreeMap<String, Node> },
}

#[derive(Debug)]
struct Fs {
    root: Node,
}

#[derive(Debug, PartialEq, Eq)]
enum FsError {
    NotFound,
    NotADirectory,
    IsADirectory,
    Exists,
    Permission,
}

impl Fs {
    fn new() -> Self {
        Self {
            root: Node::Dir {
                entries: BTreeMap::new(),
            },
        }
    }

    /// Walks all but the last path component, returning the parent dir.
    fn walk<'a>(
        t: &mut Tracer,
        mut node: &'a mut Node,
        components: &[&str],
    ) -> Result<&'a mut Node, FsError> {
        let mut i = 0;
        while t.branch(site!(), i < components.len()) {
            let Node::Dir { entries } = node else {
                return Err(FsError::NotADirectory);
            };
            // The existence test is fanned out by a name-hash bucket:
            // kernel namei code specialised per directory-entry chain.
            let name = components[i];
            let bucket = name
                .bytes()
                .fold(0u32, |h, b| h.wrapping_mul(31).wrapping_add(u32::from(b)))
                % 48;
            let next = entries.get_mut(name);
            if t.branch(site!().with_index(bucket), next.is_none()) {
                return Err(FsError::NotFound);
            }
            node = next.expect("checked above"); // panic-audited: the traced branch above returned on next.is_none()
            i += 1;
        }
        Ok(node)
    }

    fn split(path: &str) -> Vec<&str> {
        path.split('/').filter(|c| !c.is_empty()).collect()
    }

    fn create(&mut self, t: &mut Tracer, path: &str, dir: bool, mode: u8) -> Result<(), FsError> {
        let comps = Self::split(path);
        let (name, parents) = comps.split_last().ok_or(FsError::Exists)?;
        let parent = Self::walk(t, &mut self.root, parents)?;
        let Node::Dir { entries } = parent else {
            return Err(FsError::NotADirectory);
        };
        if t.branch(site!(), entries.contains_key(*name)) {
            return Err(FsError::Exists);
        }
        let node = if t.branch(site!(), dir) {
            Node::Dir {
                entries: BTreeMap::new(),
            }
        } else {
            Node::File { size: 0, mode }
        };
        entries.insert((*name).to_owned(), node);
        Ok(())
    }

    fn write(&mut self, t: &mut Tracer, path: &str, bytes: u32) -> Result<(), FsError> {
        let comps = Self::split(path);
        let node = Self::walk(t, &mut self.root, &comps)?;
        match node {
            Node::File { size, mode } => {
                // Permission check: write bit is bit 1.
                if t.branch(site!(), *mode & 2 == 0) {
                    return Err(FsError::Permission);
                }
                *size += bytes;
                Ok(())
            }
            Node::Dir { .. } => Err(FsError::IsADirectory),
        }
    }

    fn stat(&mut self, t: &mut Tracer, path: &str) -> Result<u32, FsError> {
        let comps = Self::split(path);
        let node = Self::walk(t, &mut self.root, &comps)?;
        match node {
            Node::File { size, .. } => Ok(*size),
            Node::Dir { entries } => Ok(entries.len() as u32),
        }
    }

    fn unlink(&mut self, t: &mut Tracer, path: &str) -> Result<(), FsError> {
        let comps = Self::split(path);
        let (name, parents) = comps.split_last().ok_or(FsError::NotFound)?;
        let parent = Self::walk(t, &mut self.root, parents)?;
        let Node::Dir { entries } = parent else {
            return Err(FsError::NotADirectory);
        };
        let entry = entries.get(*name);
        if !t.branch(site!(), entry.is_some()) {
            return Err(FsError::NotFound);
        }
        let busy_dir = matches!(entry, Some(Node::Dir { entries: sub }) if !sub.is_empty());
        if t.branch(site!(), busy_dir) {
            return Err(FsError::NotADirectory); // non-empty dir
        }
        entries.remove(*name);
        Ok(())
    }
}

// ---------------------------------------------------------------- driver

const SYSCALLS: u32 = 12;

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x5DE7);
    let dispatch = site!();

    let mut fs = Fs::new();
    let mut queue = RunQueue::default();
    let mut next_pid = 1u32;
    let mut live_paths: Vec<String> = Vec::new();

    // Seed a directory tree.
    for d in 0..8 {
        fs.create(&mut t, &format!("/d{d}"), true, 7)
            .expect("seed dir"); // panic-audited: seeding distinct paths into a fresh fs cannot collide
        for f in 0..6 {
            let p = format!("/d{d}/f{f}");
            fs.create(&mut t, &p, false, if (d + f) % 5 == 0 { 4 } else { 6 })
                .expect("seed file"); // panic-audited: seeding distinct paths into a fresh fs cannot collide
            live_paths.push(p);
        }
    }
    for _ in 0..10 {
        queue.push(
            &mut t,
            Task {
                pid: next_pid,
                priority: rng.below(8) as u8,
                remaining: 3,
            },
        );
        next_pid += 1;
    }

    let validate = site!();
    // SDET runs scripted user sessions: the syscall sequence repeats a
    // fixed script with a little jitter, rather than being uniformly
    // random.
    const SCRIPT: [u32; 24] = [
        4, 7, 1, 4, 3, 7, 2, 4, 5, 8, 1, 4, 6, 7, 2, 10, 4, 9, 1, 5, 7, 4, 11, 0,
    ];
    let operations = 16_000 * scale.factor();
    for step in 0..operations {
        let call = if rng.chance(0.1) {
            rng.below(u64::from(SYSCALLS)) as u32
        } else {
            SCRIPT[(step % SCRIPT.len() as u64) as usize]
        };
        // Syscall-table dispatch: one site per syscall number.
        for k in 0..SYSCALLS {
            t.branch(dispatch.with_index(k), call == k);
        }
        // Per-handler argument validation: biased taken, as in kernel
        // entry paths (copyin/copyout checks).
        t.branch(validate.with_index(call), rng.chance(0.97));
        match call {
            // fork
            0 => {
                queue.push(
                    &mut t,
                    Task {
                        pid: next_pid,
                        priority: rng.below(8) as u8,
                        remaining: 1 + rng.below(4) as u32,
                    },
                );
                next_pid += 1;
            }
            // schedule quantum
            1 | 2 => {
                if let Some(mut task) = queue.pop(&mut t) {
                    task.remaining = task.remaining.saturating_sub(1);
                    // Re-queue unless finished; aging lowers priority.
                    if t.branch(site!(), task.remaining > 0) {
                        if t.branch(site!(), task.priority > 0 && rng.chance(0.4)) {
                            task.priority -= 1;
                        }
                        queue.push(&mut t, task);
                    }
                }
                // Keep the queue from draining.
                if t.branch(site!(), queue.len() < 4) {
                    queue.push(
                        &mut t,
                        Task {
                            pid: next_pid,
                            priority: rng.below(8) as u8,
                            remaining: 2,
                        },
                    );
                    next_pid += 1;
                }
            }
            // creat
            3 => {
                let p = format!("/d{}/n{}", rng.below(8), rng.below(400));
                if fs.create(&mut t, &p, false, 6).is_ok() {
                    live_paths.push(p);
                }
            }
            // write (mostly to existing files; permission misses happen)
            4..=6 => {
                let p = &live_paths[rng.zipf(live_paths.len())];
                let _ = fs.write(&mut t, p, rng.below(512) as u32);
            }
            // stat
            7 | 8 => {
                let p = &live_paths[rng.zipf(live_paths.len())];
                let _ = fs.stat(&mut t, p);
            }
            // stat on a missing path (error path exercised)
            9 => {
                let _ = fs.stat(
                    &mut t,
                    &format!("/d{}/missing{}", rng.below(8), rng.below(100)),
                );
            }
            // unlink
            10 => {
                if live_paths.len() > 20 {
                    let idx = rng.below(live_paths.len() as u64) as usize;
                    let p = live_paths[idx].clone();
                    if fs.unlink(&mut t, &p).is_ok() {
                        live_paths.swap_remove(idx);
                    }
                }
            }
            // mkdir (often already exists)
            _ => {
                let _ = fs.create(&mut t, &format!("/d{}", rng.below(12)), true, 7);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    #[test]
    fn heap_orders_by_priority_then_pid() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut q = RunQueue::default();
        q.push(
            &mut t,
            Task {
                pid: 1,
                priority: 2,
                remaining: 1,
            },
        );
        q.push(
            &mut t,
            Task {
                pid: 2,
                priority: 7,
                remaining: 1,
            },
        );
        q.push(
            &mut t,
            Task {
                pid: 3,
                priority: 7,
                remaining: 1,
            },
        );
        q.push(
            &mut t,
            Task {
                pid: 4,
                priority: 0,
                remaining: 1,
            },
        );
        assert_eq!(
            q.pop(&mut t).unwrap().pid,
            2,
            "highest priority, earliest pid"
        );
        assert_eq!(q.pop(&mut t).unwrap().pid, 3);
        assert_eq!(q.pop(&mut t).unwrap().pid, 1);
        assert_eq!(q.pop(&mut t).unwrap().pid, 4);
        assert_eq!(q.pop(&mut t), None);
    }

    #[test]
    fn fs_create_write_stat_roundtrip() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut fs = Fs::new();
        fs.create(&mut t, "/a", true, 7).unwrap();
        fs.create(&mut t, "/a/f", false, 6).unwrap();
        fs.write(&mut t, "/a/f", 100).unwrap();
        fs.write(&mut t, "/a/f", 20).unwrap();
        assert_eq!(fs.stat(&mut t, "/a/f"), Ok(120));
        assert_eq!(fs.stat(&mut t, "/a"), Ok(1), "dir stat counts entries");
    }

    #[test]
    fn fs_error_paths() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut fs = Fs::new();
        fs.create(&mut t, "/a", true, 7).unwrap();
        fs.create(&mut t, "/a/ro", false, 4).unwrap(); // read-only
        assert_eq!(fs.write(&mut t, "/a/ro", 1), Err(FsError::Permission));
        assert_eq!(fs.stat(&mut t, "/a/nope"), Err(FsError::NotFound));
        assert_eq!(fs.create(&mut t, "/a/ro", false, 6), Err(FsError::Exists));
        assert_eq!(fs.write(&mut t, "/a", 1), Err(FsError::IsADirectory));
        assert_eq!(
            fs.create(&mut t, "/a/ro/x", false, 6),
            Err(FsError::NotADirectory)
        );
    }

    #[test]
    fn unlink_removes_files_but_not_nonempty_dirs() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut fs = Fs::new();
        fs.create(&mut t, "/d", true, 7).unwrap();
        fs.create(&mut t, "/d/f", false, 6).unwrap();
        assert_eq!(fs.unlink(&mut t, "/d"), Err(FsError::NotADirectory));
        fs.unlink(&mut t, "/d/f").unwrap();
        assert_eq!(fs.stat(&mut t, "/d"), Ok(0));
        fs.unlink(&mut t, "/d").unwrap(); // now empty
        assert_eq!(fs.stat(&mut t, "/d"), Err(FsError::NotFound));
    }

    #[test]
    fn workload_shape() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(stats.dynamic_conditional > 50_000);
        // Dispatch fan-out gives sdet a wide-ish static footprint.
        assert!(
            stats.static_conditional > 30,
            "{}",
            stats.static_conditional
        );
        assert_eq!(trace, traced(super::trace, Scale::Smoke));
    }
}
