//! Instrumented stand-ins for the `std::sync` / `std::thread` types
//! used by the codebase. API-compatible with the std originals (for
//! the subset the facade exposes) so the hot-path code compiles
//! unchanged under `--cfg bpred_race`.
//!
//! Every operation passes through `crate::sched::yield_op` before it
//! executes, which parks the thread until the scheduler grants it.
//! Because exactly one model thread runs at a time, the real operation
//! can then execute with plain `SeqCst` std atomics: exclusivity makes
//! the whole execution sequentially consistent regardless of the
//! `Ordering` the caller requested, which is exactly the memory model
//! the checker explores. The caller's `Ordering` argument is accepted
//! (signature compatibility) and deliberately ignored.
//!
//! Outside a model execution (no scheduler on this thread) every type
//! degrades to a plain std passthrough, so instrumented builds still
//! run their ordinary unit tests.

use crate::sched::{self, OpKind, NO_OBJECT};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// Lazily registers the object with the active execution on first
/// touch. `Atomic*::new` must stay `const` (the hot paths use
/// `static` initializers), so the id cannot be allocated at
/// construction time; a `OnceLock` allocates it at the first operation
/// instead. Statics therefore get [`NO_OBJECT`] when first touched
/// outside a model and stay uninstrumented — model state must be
/// built inside the model closure, which is the documented contract.
#[derive(Debug, Default)]
struct ObjectId(OnceLock<usize>);

impl ObjectId {
    const fn new() -> Self {
        ObjectId(OnceLock::new())
    }

    fn get(&self) -> usize {
        *self.0.get_or_init(sched::register_object)
    }
}

macro_rules! instrumented_atomic {
    ($name:ident, $inner:path, $prim:ty) => {
        /// Instrumented atomic: yields to the scheduler before every
        /// operation, then executes it for real under exclusivity.
        #[derive(Debug)]
        pub struct $name {
            value: $inner,
            id: ObjectId,
        }

        impl $name {
            /// Creates a new atomic (const, like std).
            #[must_use]
            pub const fn new(value: $prim) -> Self {
                Self {
                    value: <$inner>::new(value),
                    id: ObjectId::new(),
                }
            }

            /// Atomic load; the `Ordering` is accepted for signature
            /// compatibility and executed as `SeqCst`.
            pub fn load(&self, _order: Ordering) -> $prim {
                sched::yield_op(OpKind::Load, self.id.get(), 0);
                self.value.load(Ordering::SeqCst)
                // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
            }

            /// Atomic store; executed as `SeqCst` (see [`Self::load`]).
            pub fn store(&self, value: $prim, _order: Ordering) {
                sched::yield_op(OpKind::Store, self.id.get(), 0);
                self.value.store(value, Ordering::SeqCst);
                // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
            }

            /// Atomic add; executed as `SeqCst` (see [`Self::load`]).
            pub fn fetch_add(&self, value: $prim, _order: Ordering) -> $prim {
                sched::yield_op(OpKind::Rmw, self.id.get(), 0);
                self.value.fetch_add(value, Ordering::SeqCst)
                // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
            }

            /// Atomic subtract; executed as `SeqCst` (see [`Self::load`]).
            pub fn fetch_sub(&self, value: $prim, _order: Ordering) -> $prim {
                sched::yield_op(OpKind::Rmw, self.id.get(), 0);
                self.value.fetch_sub(value, Ordering::SeqCst)
                // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
            }

            /// Atomic swap; executed as `SeqCst` (see [`Self::load`]).
            pub fn swap(&self, value: $prim, _order: Ordering) -> $prim {
                sched::yield_op(OpKind::Rmw, self.id.get(), 0);
                self.value.swap(value, Ordering::SeqCst)
                // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
            }

            /// Atomic max; executed as `SeqCst` (see [`Self::load`]).
            pub fn fetch_max(&self, value: $prim, _order: Ordering) -> $prim {
                sched::yield_op(OpKind::Rmw, self.id.get(), 0);
                self.value.fetch_max(value, Ordering::SeqCst)
                // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
            }

            /// Atomic compare-exchange; executed as `SeqCst` (see
            /// [`Self::load`]).
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$prim, $prim> {
                sched::yield_op(OpKind::Rmw, self.id.get(), 0);
                self.value
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
            }
        }
    };
}

instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
instrumented_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);

/// Instrumented boolean atomic (separate because `fetch_add`/`fetch_max`
/// do not exist on `std`'s `AtomicBool`).
#[derive(Debug)]
pub struct AtomicBool {
    value: std::sync::atomic::AtomicBool,
    id: ObjectId,
}

impl AtomicBool {
    /// Creates a new atomic bool (const, like std).
    #[must_use]
    pub const fn new(value: bool) -> Self {
        AtomicBool {
            value: std::sync::atomic::AtomicBool::new(value),
            id: ObjectId::new(),
        }
    }

    /// Atomic load; the `Ordering` is accepted for signature
    /// compatibility and executed as `SeqCst`.
    pub fn load(&self, _order: Ordering) -> bool {
        sched::yield_op(OpKind::Load, self.id.get(), 0);
        self.value.load(Ordering::SeqCst)
        // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
    }

    /// Atomic store; executed as `SeqCst` (see [`Self::load`]).
    pub fn store(&self, value: bool, _order: Ordering) {
        sched::yield_op(OpKind::Store, self.id.get(), 0);
        self.value.store(value, Ordering::SeqCst);
        // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
    }

    /// Atomic swap; executed as `SeqCst` (see [`Self::load`]).
    pub fn swap(&self, value: bool, _order: Ordering) -> bool {
        sched::yield_op(OpKind::Rmw, self.id.get(), 0);
        self.value.swap(value, Ordering::SeqCst)
        // ordering-audited: shim executes under scheduler exclusivity; SeqCst realizes the sequentially-consistent model the checker explores
    }
}

/// Instrumented mutex. Lock acquisition is a yield point whose
/// enabledness the scheduler tracks (a thread parked on a held mutex
/// is simply never granted), so deadlocks surface as "no enabled
/// thread" failures rather than hangs.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    id: ObjectId,
}

/// Guard returned by [`Mutex::lock`]; releases at drop via an
/// `Unlock` yield point.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
    object: usize,
}

impl<T> Mutex<T> {
    /// Creates a new mutex (const, like std).
    #[must_use]
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
            id: ObjectId::new(),
        }
    }

    /// Acquires the mutex. Never blocks inside a model (the scheduler
    /// only grants the lock when it is free); mirrors the facade's
    /// poison-free std wrapper outside one.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let object = self.id.get();
        sched::yield_op(OpKind::Lock, object, 0);
        let guard = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        MutexGuard {
            guard: Some(guard),
            object,
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.guard {
            Some(guard) => guard,
            // Guard is Some from construction until drop.
            None => unreachable!(),
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(guard) => guard,
            None => unreachable!(),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then announce: if the unlock
        // yield aborts this thread (unwind), the std mutex must not
        // stay held or the drained sibling threads would block forever
        // inside `Mutex::lock`.
        drop(self.guard.take());
        if self.object != NO_OBJECT {
            sched::yield_op(OpKind::Unlock, self.object, 0);
        }
    }
}

/// Instrumented `std::thread` subset: `spawn`/`join`, `yield_now`, and
/// a scoped-spawn shape compatible with how the hot paths use
/// `std::thread::scope`.
pub mod thread {
    use crate::sched::{self, OpKind, NO_OBJECT};
    use std::sync::mpsc::{channel, Receiver};

    /// Handle to a spawned model thread.
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        tid: u32,
        result: Receiver<std::thread::Result<T>>,
        os: Option<std::thread::JoinHandle<()>>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread. Inside a model this is a `Join` yield
        /// point: the scheduler grants it only after the target
        /// finished, so it never blocks.
        ///
        /// # Errors
        ///
        /// Returns the child's panic payload, like std.
        pub fn join(mut self) -> std::thread::Result<T> {
            sched::yield_op(OpKind::Join, NO_OBJECT, self.tid);
            let result = self
                .result
                .recv()
                .map_err(|e| Box::new(e) as Box<dyn std::any::Any + Send>);
            if let Some(os) = self.os.take() {
                let _ = os.join();
            }
            result?
        }
    }

    /// Spawns a model thread. Registered with the active scheduler when
    /// called from a model thread; a plain std spawn otherwise.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (result_tx, result_rx) = channel();
        match sched::current_for_spawn() {
            Some((shared, parent)) => {
                let tid = sched::alloc_tid(&shared);
                let (go_tx, go_rx) = sched::make_go_channel();
                let child_shared = std::sync::Arc::clone(&shared);
                let os = std::thread::Builder::new()
                    .name(format!("race-model-{tid}"))
                    .spawn(move || {
                        let out = sched::run_model_thread(child_shared, tid, go_rx, f);
                        let _ = result_tx.send(out);
                    })
                    .expect("OS refused to spawn a model thread"); // panic-audited: resource exhaustion in the test environment, not a model behaviour
                sched::announce_spawn(&shared, parent, tid, go_tx);
                JoinHandle {
                    tid,
                    result: result_rx,
                    os: Some(os),
                }
            }
            None => {
                let os = std::thread::Builder::new()
                    .spawn(move || {
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                        let _ = result_tx.send(out);
                    })
                    .expect("OS refused to spawn a thread"); // panic-audited: resource exhaustion, not a model behaviour
                JoinHandle {
                    tid: 0,
                    result: result_rx,
                    os: Some(os),
                }
            }
        }
    }

    /// An explicit scheduling point with no memory effect.
    pub fn yield_now() {
        sched::yield_op(OpKind::Yield, NO_OBJECT, 0);
    }

    /// Scope for borrowing spawns, mirroring `std::thread::scope`'s
    /// shape. The instrumented version requires `'static` closures in
    /// practice (model state lives in `Arc`s), but keeps the scope API
    /// so facade call sites read the same.
    #[derive(Debug)]
    pub struct Scope {
        handles: std::cell::RefCell<Vec<JoinHandle<()>>>,
    }

    impl Scope {
        /// Spawns a thread joined automatically at scope exit.
        pub fn spawn<F>(&self, f: F)
        where
            F: FnOnce() + Send + 'static,
        {
            self.handles.borrow_mut().push(spawn(f));
        }
    }

    /// Runs `f` with a scope; all threads spawned on it are joined
    /// (panics propagated) before `scope` returns, like std.
    pub fn scope<F, R>(f: F) -> R
    where
        F: FnOnce(&Scope) -> R,
    {
        let scope = Scope {
            handles: std::cell::RefCell::new(Vec::new()),
        };
        let out = f(&scope);
        let handles = scope.handles.take();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        out
    }

    /// Parallelism hint: model executions are cooperative, so the
    /// shim always reports the real value from std.
    ///
    /// # Errors
    ///
    /// Propagates the platform error from std.
    pub fn available_parallelism() -> std::io::Result<std::num::NonZeroUsize> {
        std::thread::available_parallelism()
    }
}
