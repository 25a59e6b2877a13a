//! Shim concurrency primitives, API-compatible with `semlock::sync`.
//!
//! Code written against `semlock::sync::{AtomicU64, Mutex, Condvar,
//! thread}` compiles unchanged against this module; under the model every
//! operation becomes a schedule point plus a transition of the explicit
//! state in `crate::sched::ExecState`:
//!
//! * atomics go through the ordering-aware [`crate::mem::Memory`] — a
//!   Relaxed load may return any store the thread's view permits (the
//!   scheduler enumerates the choices);
//! * `Mutex`/`Condvar` follow the `parking_lot` API shape the runtime
//!   uses (`lock()` returns a guard directly, `Condvar::wait` takes
//!   `&mut MutexGuard`) and transfer views on unlock→lock (a host mutex
//!   is sequentially consistent synchronization, which is what
//!   `parking_lot` guarantees);
//! * `Condvar` has **no spurious wakeups** in the model: a waiter runs
//!   only after a notify. This under-approximates real condvars but only
//!   removes behaviors the protocol's wait loops already tolerate; lost
//!   wakeups — the bug class the checker hunts — remain fully
//!   expressible;
//! * `thread::spawn`/`JoinHandle::join` create model threads; the child
//!   inherits the parent's view and `join` acquires the child's final
//!   view (matching std's spawn/join synchronization).

use crate::sched::{with_ctx, Status};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::Arc;

pub use std::sync::atomic::Ordering;

/// Model replacement for [`std::sync::atomic::AtomicU64`].
pub struct AtomicU64 {
    loc: usize,
}

/// Model replacement for [`std::sync::atomic::AtomicU32`].
///
/// Backed by the same 64-bit store history; values are masked to 32 bits
/// at the operation boundary so wrapping arithmetic matches the real
/// type.
pub struct AtomicU32 {
    loc: usize,
}

fn alloc(init: u64) -> usize {
    with_ctx(|ctx| ctx.shared.lock().mem.alloc(init))
}

fn atomic_load(loc: usize, ord: Ordering) -> u64 {
    with_ctx(|ctx| {
        ctx.shared.schedule(ctx.tid);
        let mut guard = ctx.shared.lock();
        let st = &mut *guard;
        let n = st.mem.load_choices(&st.threads[ctx.tid].view, loc, ord);
        // Choice 0 reads the latest store, so the first schedule explored
        // is the naturally coherent one.
        let choice = st.trace.decide(n);
        st.mem.load(&mut st.threads[ctx.tid].view, loc, ord, choice)
    })
}

fn atomic_store(loc: usize, val: u64, ord: Ordering) {
    with_ctx(|ctx| {
        ctx.shared.schedule(ctx.tid);
        let mut guard = ctx.shared.lock();
        let st = &mut *guard;
        st.mem.store(&mut st.threads[ctx.tid].view, loc, val, ord);
    })
}

fn atomic_rmw(loc: usize, ord: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
    with_ctx(|ctx| {
        ctx.shared.schedule(ctx.tid);
        let mut guard = ctx.shared.lock();
        let st = &mut *guard;
        st.mem.rmw(&mut st.threads[ctx.tid].view, loc, ord, f)
    })
}

fn atomic_cas(
    loc: usize,
    expected: u64,
    new: u64,
    ok: Ordering,
    fail: Ordering,
) -> Result<u64, u64> {
    with_ctx(|ctx| {
        ctx.shared.schedule(ctx.tid);
        let mut guard = ctx.shared.lock();
        let st = &mut *guard;
        st.mem
            .cas(&mut st.threads[ctx.tid].view, loc, expected, new, ok, fail)
    })
}

impl AtomicU64 {
    /// Allocate a fresh model location holding `v`.
    pub fn new(v: u64) -> AtomicU64 {
        AtomicU64 { loc: alloc(v) }
    }

    /// Model load; a schedule point plus a staleness choice.
    pub fn load(&self, ord: Ordering) -> u64 {
        atomic_load(self.loc, ord)
    }

    /// Model store.
    pub fn store(&self, v: u64, ord: Ordering) {
        atomic_store(self.loc, v, ord)
    }

    /// Model `fetch_add` with u64 wrapping, like the real atomic.
    pub fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        atomic_rmw(self.loc, ord, |x| x.wrapping_add(v))
    }

    /// Model `fetch_sub` with u64 wrapping.
    pub fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
        atomic_rmw(self.loc, ord, |x| x.wrapping_sub(v))
    }

    /// Model `fetch_or`.
    pub fn fetch_or(&self, v: u64, ord: Ordering) -> u64 {
        atomic_rmw(self.loc, ord, |x| x | v)
    }

    /// Model `fetch_and`.
    pub fn fetch_and(&self, v: u64, ord: Ordering) -> u64 {
        atomic_rmw(self.loc, ord, |x| x & v)
    }

    /// Model compare-exchange. Never fails spuriously (a strict subset of
    /// real `compare_exchange_weak` behaviors; the retry loops this
    /// models are insensitive to spurious failure).
    pub fn compare_exchange(
        &self,
        expected: u64,
        new: u64,
        ok: Ordering,
        fail: Ordering,
    ) -> Result<u64, u64> {
        atomic_cas(self.loc, expected, new, ok, fail)
    }

    /// Model weak compare-exchange (same as the strong form here).
    pub fn compare_exchange_weak(
        &self,
        expected: u64,
        new: u64,
        ok: Ordering,
        fail: Ordering,
    ) -> Result<u64, u64> {
        self.compare_exchange(expected, new, ok, fail)
    }
}

impl AtomicU32 {
    /// Allocate a fresh model location holding `v`.
    pub fn new(v: u32) -> AtomicU32 {
        AtomicU32 {
            loc: alloc(v as u64),
        }
    }

    /// Model load.
    pub fn load(&self, ord: Ordering) -> u32 {
        atomic_load(self.loc, ord) as u32
    }

    /// Model store.
    pub fn store(&self, v: u32, ord: Ordering) {
        atomic_store(self.loc, v as u64, ord)
    }

    /// Model `fetch_add` with u32 wrapping.
    pub fn fetch_add(&self, v: u32, ord: Ordering) -> u32 {
        atomic_rmw(self.loc, ord, |x| (x as u32).wrapping_add(v) as u64) as u32
    }

    /// Model `fetch_sub` with u32 wrapping.
    pub fn fetch_sub(&self, v: u32, ord: Ordering) -> u32 {
        atomic_rmw(self.loc, ord, |x| (x as u32).wrapping_sub(v) as u64) as u32
    }

    /// Model compare-exchange.
    pub fn compare_exchange(
        &self,
        expected: u32,
        new: u32,
        ok: Ordering,
        fail: Ordering,
    ) -> Result<u32, u32> {
        atomic_cas(self.loc, expected as u64, new as u64, ok, fail)
            .map(|v| v as u32)
            .map_err(|v| v as u32)
    }

    /// Model weak compare-exchange.
    pub fn compare_exchange_weak(
        &self,
        expected: u32,
        new: u32,
        ok: Ordering,
        fail: Ordering,
    ) -> Result<u32, u32> {
        self.compare_exchange(expected, new, ok, fail)
    }
}

/// Model replacement for `parking_lot::Mutex`.
pub struct Mutex<T> {
    id: usize,
    data: UnsafeCell<T>,
}

// Exclusion is enforced by the model scheduler, exactly as the real
// mutex enforces it for the real data.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

/// Guard returned by [`Mutex::lock`]; releases (and publishes the
/// holder's view) on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    /// Guards are tied to the acquiring thread, like the real type.
    _not_send: PhantomData<*const ()>,
}

impl<T> Mutex<T> {
    /// Register a model mutex.
    pub fn new(data: T) -> Mutex<T> {
        let id = with_ctx(|ctx| {
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            st.mutexes.push(crate::sched::MutexCell {
                owner: None,
                view: crate::mem::View::default(),
            });
            st.mutexes.len() - 1
        });
        Mutex {
            id,
            data: UnsafeCell::new(data),
        }
    }

    /// Acquire (blocking): a schedule point, then either take the free
    /// mutex (joining the view its last holder published) or block until
    /// an unlock wakes us and retry.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        with_ctx(|ctx| {
            ctx.shared.schedule(ctx.tid);
            loop {
                {
                    let mut guard = ctx.shared.lock();
                    let st = &mut *guard;
                    if st.mutexes[self.id].owner.is_none() {
                        st.mutexes[self.id].owner = Some(ctx.tid);
                        let mv = st.mutexes[self.id].view.clone();
                        st.threads[ctx.tid].view.join(&mv);
                        break;
                    }
                }
                ctx.shared.block(ctx.tid, Status::BlockedMutex(self.id));
            }
        });
        MutexGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }
}

impl<T> MutexGuard<'_, T> {
    fn unlock_inner(&self) {
        with_ctx(|ctx| {
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            if st.mutexes[self.lock.id].owner != Some(ctx.tid) {
                // Only reachable when a cancellation unwinds through a
                // `Condvar::wait` that had already released the mutex
                // (and perhaps another thread took it): the execution is
                // being torn down, leave the state alone.
                return;
            }
            st.mutexes[self.lock.id].owner = None;
            let tv = st.threads[ctx.tid].view.clone();
            st.mutexes[self.lock.id].view.join(&tv);
            for t in st.threads.iter_mut() {
                if t.status == Status::BlockedMutex(self.lock.id) {
                    t.status = Status::Runnable;
                }
            }
            // Deliberately no schedule point here: drop may run while an
            // assertion failure unwinds, and a context switch during
            // unwind would turn the panic we want to report into an
            // abort. Contenders get their turn at the next schedule
            // point of whoever runs.
        })
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.unlock_inner();
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

/// Model replacement for `parking_lot::Condvar` (no spurious wakeups —
/// see the module docs).
pub struct Condvar {
    id: usize,
}

impl Condvar {
    /// Register a model condvar.
    pub fn new() -> Condvar {
        let id = with_ctx(|ctx| {
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            st.condvars += 1;
            st.condvars - 1
        });
        Condvar { id }
    }

    /// Atomically release the guard's mutex and sleep until notified,
    /// then reacquire before returning — the `parking_lot` signature.
    pub fn wait<T>(&self, mutex_guard: &mut MutexGuard<'_, T>) {
        let mutex_id = mutex_guard.lock.id;
        with_ctx(|ctx| {
            ctx.shared.schedule(ctx.tid);
            {
                // Release the mutex and go to sleep in one model step:
                // no notify can slip between them (that is the condvar
                // contract this models).
                let mut guard = ctx.shared.lock();
                let st = &mut *guard;
                debug_assert_eq!(st.mutexes[mutex_id].owner, Some(ctx.tid));
                st.mutexes[mutex_id].owner = None;
                let tv = st.threads[ctx.tid].view.clone();
                st.mutexes[mutex_id].view.join(&tv);
                for t in st.threads.iter_mut() {
                    if t.status == Status::BlockedMutex(mutex_id) {
                        t.status = Status::Runnable;
                    }
                }
            }
            ctx.shared.block(ctx.tid, Status::BlockedCond(self.id));
            // Notified: reacquire the mutex (contending normally).
            loop {
                {
                    let mut guard = ctx.shared.lock();
                    let st = &mut *guard;
                    if st.mutexes[mutex_id].owner.is_none() {
                        st.mutexes[mutex_id].owner = Some(ctx.tid);
                        let mv = st.mutexes[mutex_id].view.clone();
                        st.threads[ctx.tid].view.join(&mv);
                        return;
                    }
                }
                ctx.shared.block(ctx.tid, Status::BlockedMutex(mutex_id));
            }
        })
    }

    /// Wake every waiter (they still re-contend the mutex).
    pub fn notify_all(&self) {
        with_ctx(|ctx| {
            ctx.shared.schedule(ctx.tid);
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            for t in st.threads.iter_mut() {
                if t.status == Status::BlockedCond(self.id) {
                    t.status = Status::Runnable;
                }
            }
        })
    }

    /// Wake one waiter (the lowest-id one; which waiter wins is already
    /// covered by schedule exploration elsewhere, so picking
    /// deterministically here keeps traces smaller).
    pub fn notify_one(&self) {
        with_ctx(|ctx| {
            ctx.shared.schedule(ctx.tid);
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            if let Some(t) = st
                .threads
                .iter_mut()
                .find(|t| t.status == Status::BlockedCond(self.id))
            {
                t.status = Status::Runnable;
            }
        })
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

/// Model replacement for [`std::thread`] (spawn/join only).
pub mod thread {
    use super::*;
    use crate::sched::thread_main;
    use std::sync::Mutex as HostMutex;

    /// Handle to a spawned model thread.
    pub struct JoinHandle<T> {
        tid: usize,
        result: Arc<HostMutex<Option<T>>>,
    }

    /// Spawn a model thread; the child starts with (inherits) the
    /// parent's view, like a real spawn synchronizes with the start of
    /// the child.
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (shared, child, result) = with_ctx(|ctx| {
            ctx.shared.schedule(ctx.tid);
            let view = {
                let st = ctx.shared.lock();
                st.threads[ctx.tid].view.clone()
            };
            let child = ctx.shared.register_thread(view);
            (ctx.shared.clone(), child, Arc::new(HostMutex::new(None)))
        });
        let r2 = result.clone();
        let sh2 = shared.clone();
        let h = std::thread::Builder::new()
            .name(format!("model-{child}"))
            .spawn(move || {
                thread_main(sh2, child, move || {
                    let v = f();
                    *r2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                })
            })
            .expect("spawn model thread");
        shared.push_handle(h);
        JoinHandle { tid: child, result }
    }

    impl<T> JoinHandle<T> {
        /// Block until the thread finishes; joins its final view and
        /// returns its result (like std, minus the `Result` wrapper —
        /// a child panic is a model violation, not a joinable error).
        pub fn join(self) -> T {
            with_ctx(|ctx| {
                ctx.shared.schedule(ctx.tid);
                loop {
                    {
                        let mut guard = ctx.shared.lock();
                        let st = &mut *guard;
                        if st.threads[self.tid].status == Status::Finished {
                            let fv = st.threads[self.tid].view.clone();
                            st.threads[ctx.tid].view.join(&fv);
                            break;
                        }
                    }
                    ctx.shared.block(ctx.tid, Status::BlockedJoin(self.tid));
                }
            });
            match self.result.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(v) => v,
                // The child finished without a result only if it was
                // cancelled mid-teardown; propagate the teardown.
                None => std::panic::panic_any(crate::sched::Cancelled),
            }
        }
    }
}
