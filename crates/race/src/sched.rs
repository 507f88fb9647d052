//! The cooperative scheduler: exhaustive schedule exploration with a
//! preemption bound, sleep-set pruning, and deterministic replay.
//!
//! # Execution model
//!
//! A *model* is a closure that builds its shared state from
//! [`crate::shim`] types and spawns threads through
//! [`crate::shim::thread`]. Every shared-memory operation (atomic
//! load/store/RMW, mutex lock/unlock, spawn, join) is a *yield point*:
//! the thread announces the operation it is about to perform and parks
//! until the scheduler grants it. Exactly one model thread runs at a
//! time, so every execution is sequentially consistent and the grant
//! sequence — the [`Schedule`] — fully determines the run.
//!
//! # Exploration
//!
//! [`explore`] re-executes the model under depth-first enumeration of
//! the grant choices. Three standard bounds keep small models tractable
//! in seconds:
//!
//! * **Preemption bound** ([`Options::preemptions`]): switching away
//!   from a thread that could have continued costs one preemption;
//!   schedules exceeding the bound are not explored. Switches forced by
//!   a block (mutex wait, join) or by thread exit are free. Bound 2
//!   catches the overwhelming majority of real interleaving bugs
//!   (Musuvathi & Qadeer's CHESS observation) while keeping the tree
//!   polynomial.
//! * **Sleep sets**: after fully exploring choice `t` at a state, `t`
//!   is put to sleep there; sibling subtrees re-explore it only after a
//!   *dependent* operation (same object, at least one write) wakes it.
//!   This prunes commuting permutations of independent operations
//!   without missing any reachable local state.
//! * **Execution / step caps** ([`Options::max_executions`],
//!   [`Options::max_steps`]): hard stops so a runaway model reports
//!   `complete: false` instead of hanging the verify run.
//!
//! # Failure and replay
//!
//! A model failure is a panic in any model thread (assertion macros
//! work unchanged) or a deadlock (no thread enabled). The failing
//! [`Schedule`] is captured and [`replay`] re-executes it
//! byte-for-byte, which is how a checker hit is turned into a
//! deterministic regression test.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};

/// Object id meaning "not registered with any execution" — operations
/// on such objects run uninstrumented (plain std behaviour).
pub(crate) const NO_OBJECT: usize = usize::MAX;

/// What a parked thread is about to do, for enabledness and
/// independence decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDesc {
    /// The operation class.
    pub kind: OpKind,
    /// The shared object acted on (`NO_OBJECT` for thread-lifecycle
    /// operations).
    pub object: usize,
    /// Join target thread id (unused otherwise).
    pub target: u32,
}

/// Operation classes at yield points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Atomic read.
    Load,
    /// Atomic write.
    Store,
    /// Atomic read-modify-write.
    Rmw,
    /// Mutex acquisition (enabled only while the mutex is free).
    Lock,
    /// Mutex release.
    Unlock,
    /// Join on another thread (enabled only once it finished).
    Join,
    /// A thread was just spawned by this thread (continuation point).
    Spawn,
    /// A registered thread that has not yet executed its first
    /// operation.
    Start,
    /// An explicit scheduling point with no memory effect
    /// ([`crate::shim::thread::yield_now`]).
    Yield,
}

impl OpDesc {
    fn start() -> Self {
        OpDesc {
            kind: OpKind::Start,
            object: NO_OBJECT,
            target: 0,
        }
    }

    /// Whether two operations commute: reordering adjacent independent
    /// operations cannot change any thread's observations, which is
    /// what licenses sleep-set pruning. Conservative: anything without
    /// a registered object (spawn/join/start/yield) is dependent on
    /// everything.
    fn independent(&self, other: &OpDesc) -> bool {
        if self.object == NO_OBJECT || other.object == NO_OBJECT {
            return false;
        }
        if self.object != other.object {
            return true;
        }
        // Same object: only two pure reads commute.
        matches!(self.kind, OpKind::Load) && matches!(other.kind, OpKind::Load)
    }
}

/// A complete grant sequence: the thread id scheduled at every step of
/// one execution. Replaying it byte-for-byte reproduces the execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule(pub Vec<u32>);

impl Schedule {
    /// Number of grants in the schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A model violation found during exploration.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The panic message (or deadlock description).
    pub message: String,
    /// The grant sequence that produced it; feed to [`replay`].
    pub schedule: Schedule,
}

/// The result of exhaustively exploring a model.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Executions run to completion or failure.
    pub executions: u64,
    /// Executions cut short by sleep-set pruning (their subtrees were
    /// already covered elsewhere).
    pub pruned: u64,
    /// The first violation found, if any (exploration stops at it).
    pub failure: Option<Failure>,
    /// Whether the state space was exhausted within the caps; `false`
    /// means the caps fired first.
    pub complete: bool,
    /// The grant sequence of the last execution that ran to completion
    /// (pruned partial executions excluded, so this always replays
    /// cleanly; used by determinism tests).
    pub last_schedule: Schedule,
}

/// The result of replaying one recorded schedule.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The failure the replay reproduced, if any.
    pub failure: Option<String>,
    /// The grant sequence actually executed.
    pub schedule: Schedule,
}

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum preemptive context switches per schedule.
    pub preemptions: usize,
    /// Hard cap on executions before exploration reports
    /// `complete: false`.
    pub max_executions: u64,
    /// Hard cap on grants within one execution (livelock guard).
    pub max_steps: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemptions: preemptions_from_env(),
            max_executions: 1_000_000,
            max_steps: 100_000,
        }
    }
}

/// The preemption bound from `BPRED_RACE_PREEMPTIONS`, defaulting to 2
/// (the CHESS small-bound hypothesis; CI pins it explicitly).
#[must_use]
pub fn preemptions_from_env() -> usize {
    std::env::var("BPRED_RACE_PREEMPTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

// ---- thread-side runtime ----

/// Sentinel panic payload used to unwind model threads when an
/// execution is aborted (failure found elsewhere, or pruning); never
/// reported as a model failure.
pub(crate) struct AbortToken;

pub(crate) struct Shared {
    events: Sender<Event>,
    abort: AtomicBool,
    next_object: AtomicUsize,
    next_tid: AtomicUsize,
}

pub(crate) enum Event {
    /// `tid` parked, about to perform `op` when next granted.
    Yield { tid: u32, op: OpDesc },
    /// `parent` spawned `child_tid` (which is parked at its start) and
    /// parked itself.
    Spawn {
        parent: u32,
        child_tid: u32,
        go: Sender<()>,
    },
    /// `tid` exited; `panic` carries a real model failure message
    /// (aborted unwinds report `None`).
    Finished { tid: u32, panic: Option<String> },
}

pub(crate) struct Ctx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) tid: u32,
    go: Receiver<()>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Whether the calling thread is a model thread of an active execution.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Allocates a fresh object id if called from a model thread (ids are
/// deterministic along a schedule prefix because only one model thread
/// runs at a time); [`NO_OBJECT`] otherwise.
pub(crate) fn register_object() -> usize {
    CTX.with(|c| {
        c.borrow().as_ref().map_or(NO_OBJECT, |ctx| {
            ctx.shared.next_object.fetch_add(1, Ordering::SeqCst)
            // ordering-audited: scheduler-internal allocator; SeqCst keeps the checker itself trivially data-race-free
        })
    })
}

fn panic_abort() -> ! {
    std::panic::panic_any(AbortToken)
}

/// The yield point every shim operation passes through. No-op outside
/// a model thread, while unwinding (drop handlers during a panic must
/// not re-park), or for unregistered objects.
pub(crate) fn yield_op(kind: OpKind, object: usize, target: u32) {
    if object == NO_OBJECT && !matches!(kind, OpKind::Join | OpKind::Yield) {
        return;
    }
    if std::thread::panicking() {
        return;
    }
    let parked = CTX.with(|c| {
        let borrow = c.borrow();
        let Some(ctx) = borrow.as_ref() else {
            return Ok(());
        };
        if ctx.shared.abort.load(Ordering::SeqCst) {
            // ordering-audited: abort flag is scheduler-internal; SeqCst for checker simplicity
            return Err(());
        }
        let op = OpDesc {
            kind,
            object,
            target,
        };
        if ctx
            .shared
            .events
            .send(Event::Yield { tid: ctx.tid, op })
            .is_err()
        {
            return Err(());
        }
        if ctx.go.recv().is_err() {
            return Err(());
        }
        if ctx.shared.abort.load(Ordering::SeqCst) {
            // ordering-audited: see above; re-checked after wake so drained threads unwind immediately
            return Err(());
        }
        Ok(())
    });
    if parked.is_err() {
        panic_abort();
    }
}

/// Installs (once) a panic hook that silences expected model-thread
/// panics: exploration of a seeded mutant produces thousands of caught
/// assertion failures, and the default hook would spam stderr.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_model() {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked with a non-string payload".to_owned()
    }
}

/// Runs `body` as model thread `tid`: installs the context, waits for
/// the first grant, catches panics, and reports `Finished`.
pub(crate) fn run_model_thread<T>(
    shared: Arc<Shared>,
    tid: u32,
    go: Receiver<()>,
    body: impl FnOnce() -> T,
) -> Result<T, Box<dyn std::any::Any + Send>> {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            shared: Arc::clone(&shared),
            tid,
            go,
        })
    });
    let first_grant = CTX.with(|c| c.borrow().as_ref().is_some_and(|ctx| ctx.go.recv().is_ok()));
    let result = if first_grant && !shared.abort.load(Ordering::SeqCst) {
        // ordering-audited: abort flag, scheduler-internal, SeqCst for simplicity
        catch_unwind(AssertUnwindSafe(body))
    } else {
        Err(Box::new(AbortToken) as Box<dyn std::any::Any + Send>)
    };
    let panic = match &result {
        Err(payload) if !payload.is::<AbortToken>() => Some(panic_message(payload.as_ref())),
        _ => None,
    };
    // Best-effort: the controller hanging up mid-drain is not an error.
    let _ = shared.events.send(Event::Finished { tid, panic });
    CTX.with(|c| *c.borrow_mut() = None);
    result
}

/// Spawn-side registration used by [`crate::shim::thread::spawn`]:
/// allocates the child tid and go-channel, and parks the parent after
/// announcing the spawn.
pub(crate) fn current_for_spawn() -> Option<(Arc<Shared>, u32)> {
    if std::thread::panicking() {
        return None;
    }
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (Arc::clone(&ctx.shared), ctx.tid))
    })
}

pub(crate) fn alloc_tid(shared: &Shared) -> u32 {
    let raw = shared.next_tid.fetch_add(1, Ordering::SeqCst);
    // ordering-audited: scheduler-internal allocator, SeqCst for simplicity
    u32::try_from(raw).unwrap_or_else(|_| panic_abort())
}

pub(crate) fn make_go_channel() -> (Sender<()>, Receiver<()>) {
    channel()
}

/// Announces a spawn to the controller and parks the parent (spawn is
/// a yield point). Aborts the thread if the controller is gone.
pub(crate) fn announce_spawn(shared: &Arc<Shared>, parent: u32, child_tid: u32, go: Sender<()>) {
    if shared
        .events
        .send(Event::Spawn {
            parent,
            child_tid,
            go,
        })
        .is_err()
    {
        panic_abort();
    }
    let parked = CTX.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|ctx| ctx.go.recv().is_ok() && !ctx.shared.abort.load(Ordering::SeqCst))
        // ordering-audited: abort flag, scheduler-internal, SeqCst for simplicity
    });
    if !parked {
        panic_abort();
    }
}

// ---- controller ----

#[derive(Debug)]
enum Status {
    Parked(OpDesc),
    Running,
    Done,
}

struct ThreadRec {
    go: Sender<()>,
    status: Status,
}

/// One decision point with more than one explorable choice, kept on
/// the DFS stack across re-executions.
struct Frame {
    /// Enabled, bound-respecting, non-sleeping choices at this state.
    choices: Vec<(u32, OpDesc)>,
    /// Index into `choices` of the branch currently being explored;
    /// `choices[..chosen]` are fully explored (and hence asleep for
    /// the current branch).
    chosen: usize,
    /// Sleep set on entry to this state.
    base_sleep: Vec<(u32, OpDesc)>,
}

enum Mode<'a> {
    Explore {
        frames: &'a mut Vec<Frame>,
        opts: &'a Options,
    },
    Replay {
        schedule: &'a [u32],
    },
}

struct RunResult {
    schedule: Vec<u32>,
    failure: Option<String>,
    pruned: bool,
}

fn describe_blocked(threads: &[ThreadRec]) -> String {
    let blocked: Vec<String> = threads
        .iter()
        .enumerate()
        .filter_map(|(tid, t)| match &t.status {
            Status::Parked(op) => Some(format!("t{tid} at {:?}(obj {})", op.kind, op.object)),
            _ => None,
        })
        .collect();
    format!("deadlock: no enabled thread ({})", blocked.join(", "))
}

fn run_one<F>(model: &Arc<F>, mut mode: Mode) -> RunResult
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let (events_tx, events) = channel::<Event>();
    let shared = Arc::new(Shared {
        events: events_tx,
        abort: AtomicBool::new(false),
        next_object: AtomicUsize::new(0),
        next_tid: AtomicUsize::new(1),
    });
    let (go0, go0_rx) = channel();
    let thread0 = {
        let model = Arc::clone(model);
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("race-model".to_owned())
            .spawn(move || {
                let _ = run_model_thread(shared, 0, go0_rx, move || model());
            })
            .expect("OS refused to spawn the model thread") // panic-audited: resource exhaustion in the test environment, not a model behaviour
    };

    let mut threads = vec![ThreadRec {
        go: go0,
        status: Status::Parked(OpDesc::start()),
    }];
    let mut held: Vec<(usize, u32)> = Vec::new();
    let mut schedule: Vec<u32> = Vec::new();
    let mut sleep: Vec<(u32, OpDesc)> = Vec::new();
    let mut running: Option<u32> = None;
    let mut preemptions = 0usize;
    let mut frame_ix = 0usize;
    let mut failure: Option<String> = None;
    let mut pruned = false;

    loop {
        if threads.iter().all(|t| matches!(t.status, Status::Done)) {
            break;
        }
        // Enabled parked threads with their pending operations.
        let enabled: Vec<(u32, OpDesc)> = threads
            .iter()
            .enumerate()
            .filter_map(|(tid, t)| {
                let Status::Parked(op) = t.status else {
                    return None;
                };
                let ok = match op.kind {
                    OpKind::Lock => !held.iter().any(|&(m, _)| m == op.object),
                    OpKind::Join => {
                        let target = op.target;
                        threads
                            .get(target as usize) // cast-note: tids are sequential indices
                            .is_some_and(|t| matches!(t.status, Status::Done))
                    }
                    _ => true,
                };
                let tid = u32::try_from(tid).ok()?;
                ok.then_some((tid, op))
            })
            .collect();
        if enabled.is_empty() {
            failure = Some(describe_blocked(&threads));
            break;
        }

        let (chosen, chosen_op, next_sleep) = match &mut mode {
            Mode::Replay { schedule: tape } => {
                let Some(&tid) = tape.get(schedule.len()) else {
                    failure = Some(format!(
                        "replay diverged: schedule exhausted after {} grants with threads still live",
                        schedule.len()
                    ));
                    break;
                };
                let Some(&(_, op)) = enabled.iter().find(|&&(t, _)| t == tid) else {
                    failure = Some(format!(
                        "replay diverged: t{tid} not enabled at grant {}",
                        schedule.len()
                    ));
                    break;
                };
                (tid, op, Vec::new())
            }
            Mode::Explore { frames, opts } => {
                // Preemption filter: leaving an enabled `running` thread
                // costs one preemption; at the bound only it may go on.
                let at_bound = preemptions >= opts.preemptions;
                let running_enabled = running.is_some_and(|r| enabled.iter().any(|&(t, _)| t == r));
                let allowed: Vec<(u32, OpDesc)> = enabled
                    .iter()
                    .copied()
                    .filter(|&(t, _)| !(at_bound && running_enabled && Some(t) != running))
                    .collect();
                let candidates: Vec<(u32, OpDesc)> = allowed
                    .iter()
                    .copied()
                    .filter(|&(t, _)| !sleep.iter().any(|&(s, _)| s == t))
                    .collect();
                if candidates.is_empty() {
                    // Every enabled choice is asleep: this state's
                    // subtree was fully covered on a sibling branch.
                    pruned = true;
                    break;
                }
                if candidates.len() == 1 {
                    let (t, op) = candidates[0];
                    let next = sleep_after(&sleep, &[], op);
                    (t, op, next)
                } else if frame_ix < frames.len() {
                    // Re-executing a prefix decided on an earlier run.
                    let frame = &frames[frame_ix];
                    frame_ix += 1;
                    let (t, op) = frame.choices[frame.chosen];
                    let explored = &frame.choices[..frame.chosen];
                    let next = sleep_after(&frame.base_sleep, explored, op);
                    (t, op, next)
                } else {
                    // Fresh decision point: prefer continuing the
                    // running thread (costs no preemption), else the
                    // lowest thread id. The preferred choice is rotated
                    // to the front so DFS backtracking (`chosen + 1`)
                    // still visits every sibling.
                    let mut choices = candidates;
                    if let Some(pick) =
                        running.and_then(|r| choices.iter().position(|&(t, _)| t == r))
                    {
                        choices.swap(0, pick);
                    }
                    let (t, op) = choices[0];
                    let next = sleep_after(&sleep, &[], op);
                    frames.push(Frame {
                        choices,
                        chosen: 0,
                        base_sleep: sleep.clone(),
                    });
                    frame_ix += 1;
                    (t, op, next)
                }
            }
        };
        sleep = next_sleep;

        // A switch away from a thread that could have continued is a
        // preemption; switches forced by blocking or exit are free.
        if let Some(r) = running {
            if r != chosen && enabled.iter().any(|&(t, _)| t == r) {
                preemptions += 1;
            }
        }

        // The grant is where the operation "happens" for bookkeeping.
        match chosen_op.kind {
            OpKind::Lock => held.push((chosen_op.object, chosen)),
            OpKind::Unlock => {
                held.retain(|&(m, owner)| !(m == chosen_op.object && owner == chosen))
            }
            _ => {}
        }
        schedule.push(chosen);
        let max_steps = match &mode {
            Mode::Explore { opts, .. } => opts.max_steps,
            Mode::Replay { .. } => usize::MAX,
        };
        if schedule.len() > max_steps {
            failure = Some(format!("step bound exceeded ({max_steps}): livelock?"));
            break;
        }
        let grant_ok = {
            let rec = &mut threads[chosen as usize]; // cast-note: tids are sequential indices
            rec.status = Status::Running;
            rec.go.send(()).is_ok()
        };
        running = Some(chosen);
        if !grant_ok {
            failure = Some(format!("t{chosen} vanished while parked"));
            break;
        }

        // Wait for the granted thread to park, spawn, or finish.
        match events.recv() {
            Ok(Event::Yield { tid, op }) => {
                threads[tid as usize].status = Status::Parked(op); // cast-note: tids are sequential indices
            }
            Ok(Event::Spawn {
                parent,
                child_tid,
                go,
            }) => {
                threads[parent as usize].status = Status::Parked(OpDesc {
                    // cast-note: tids are sequential indices
                    kind: OpKind::Spawn,
                    object: NO_OBJECT,
                    target: child_tid,
                });
                debug_assert_eq!(child_tid as usize, threads.len());
                threads.push(ThreadRec {
                    go,
                    status: Status::Parked(OpDesc::start()),
                });
            }
            Ok(Event::Finished { tid, panic }) => {
                threads[tid as usize].status = Status::Done; // cast-note: tids are sequential indices
                if let Some(message) = panic {
                    failure = Some(message);
                    break;
                }
            }
            Err(_) => {
                failure = Some("model threads hung up unexpectedly".to_owned());
                break;
            }
        }
    }

    // Drain: wake every surviving thread into an abort unwind so the
    // next execution starts from a clean slate.
    shared.abort.store(true, Ordering::SeqCst);
    // ordering-audited: abort flag, scheduler-internal, SeqCst for simplicity
    loop {
        let mut live = false;
        for rec in &mut threads {
            match rec.status {
                Status::Parked(_) => {
                    let _ = rec.go.send(());
                    rec.status = Status::Running;
                    live = true;
                }
                Status::Running => live = true,
                Status::Done => {}
            }
        }
        if !live {
            break;
        }
        match events.recv() {
            Ok(Event::Finished { tid, .. }) => {
                threads[tid as usize].status = Status::Done; // cast-note: tids are sequential indices
            }
            Ok(Event::Yield { tid, .. }) => {
                threads[tid as usize].status = Status::Parked(OpDesc::start()); // cast-note: tids are sequential indices
            }
            Ok(Event::Spawn {
                parent,
                child_tid,
                go,
            }) => {
                threads[parent as usize].status = Status::Parked(OpDesc::start()); // cast-note: tids are sequential indices
                debug_assert_eq!(child_tid as usize, threads.len());
                threads.push(ThreadRec {
                    go,
                    status: Status::Parked(OpDesc::start()),
                });
            }
            Err(_) => break,
        }
    }
    let _ = thread0.join();

    RunResult {
        schedule,
        failure,
        pruned,
    }
}

/// The sleep set entering the state reached by granting `chosen_op`:
/// previously sleeping threads plus the already-explored siblings, with
/// everything dependent on the granted operation woken.
fn sleep_after(
    base: &[(u32, OpDesc)],
    explored: &[(u32, OpDesc)],
    chosen_op: OpDesc,
) -> Vec<(u32, OpDesc)> {
    base.iter()
        .chain(explored.iter())
        .copied()
        .filter(|(_, op)| op.independent(&chosen_op))
        .collect()
}

/// Exhaustively explores `model` under the given bounds, stopping at
/// the first failure. The model closure is re-run once per explored
/// schedule and must be deterministic apart from scheduling: build all
/// shared state inside the closure from [`crate::shim`] types.
pub fn explore<F>(model: F, opts: &Options) -> Exploration
where
    F: Fn() + Send + Sync + 'static,
{
    let model = Arc::new(model);
    let mut frames: Vec<Frame> = Vec::new();
    let mut executions = 0u64;
    let mut pruned = 0u64;
    // The first execution never prunes (the sleep set starts empty and
    // only explored siblings populate it), so this is always a real,
    // replayable schedule by the time any return path reads it.
    let mut last_schedule = Schedule::default();

    loop {
        let run = run_one(
            &model,
            Mode::Explore {
                frames: &mut frames,
                opts,
            },
        );
        executions += 1;
        if run.pruned {
            pruned += 1;
        } else {
            last_schedule = Schedule(run.schedule.clone());
        }
        let last_schedule = last_schedule.clone();
        if let Some(message) = run.failure {
            return Exploration {
                executions,
                pruned,
                failure: Some(Failure {
                    message,
                    schedule: Schedule(run.schedule),
                }),
                complete: false,
                last_schedule,
            };
        }
        if executions >= opts.max_executions {
            return Exploration {
                executions,
                pruned,
                failure: None,
                complete: false,
                last_schedule,
            };
        }
        // Backtrack: advance the deepest frame with an untried choice.
        let advanced = loop {
            let Some(frame) = frames.last_mut() else {
                break false;
            };
            if frame.chosen + 1 < frame.choices.len() {
                frame.chosen += 1;
                break true;
            }
            frames.pop();
        };
        if !advanced {
            return Exploration {
                executions,
                pruned,
                failure: None,
                complete: true,
                last_schedule,
            };
        }
    }
}

/// Replays one recorded schedule byte-for-byte: the same grants produce
/// the same operations, the same final state, and the same failure (or
/// clean pass). Reports a divergence failure if the schedule does not
/// fit the model.
pub fn replay<F>(model: F, schedule: &Schedule) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    let model = Arc::new(model);
    let run = run_one(
        &model,
        Mode::Replay {
            schedule: &schedule.0,
        },
    );
    Outcome {
        failure: run.failure,
        schedule: Schedule(run.schedule),
    }
}
