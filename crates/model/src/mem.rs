//! The ordering-aware visibility model.
//!
//! Modeled on the operational reading of the C++11 release/acquire
//! fragment (views over per-location store histories, in the style of
//! promising-semantics formalizations, minus promises):
//!
//! * every atomic location keeps its full **store history** (the
//!   modification order); each store message carries the **view** it
//!   publishes;
//! * every thread carries a view: for each location, the oldest store
//!   index it is still allowed to read. A *load* may read **any** store at
//!   or after that bound — the scheduler enumerates the choices, which is
//!   how stale Relaxed reads become explorable schedules;
//! * an **Acquire** load additionally joins the message view of the store
//!   it read (synchronizes-with); a **Release** store publishes the
//!   writer's view in its message;
//! * **RMWs always read the latest store** (atomicity: they sit at the
//!   tail of the modification order) and their message *inherits* the
//!   previous message's view — modeling release-sequence continuation:
//!   an acquire read of a Relaxed RMW still synchronizes with the Release
//!   store the sequence started from. A plain Relaxed store breaks the
//!   sequence (its message publishes nothing);
//! * **SeqCst** accesses additionally maintain a per-location bound
//!   `sc[loc]`: the index of the last SeqCst store to that location. A
//!   SeqCst load must read at or after that bound (the single total order
//!   S forbids reading past an SC store), and a SeqCst store/RMW advances
//!   it. The bound is per-location — S does *not* induce happens-before
//!   across locations — which keeps the classic store-buffering outcomes
//!   observable exactly when C++11 permits them, so weakening one SeqCst
//!   site of a store-buffering pair genuinely re-enables the bad
//!   interleaving for the checker to find.
//!
//! The model is slightly *weaker* than C++11 in one respect (SC fences
//! are not modeled; the protocol uses none) and never stronger on the
//! accesses the protocol performs, so a protocol that passes here has no
//! counterexample within the explored bounds, and every seeded mutant's
//! bug is expressible.

use crate::sync::Ordering;

/// A thread-/message-view: for each location, the smallest store index
/// the owner may still read. Missing entries mean 0 (the initial store).
#[derive(Clone, Default, Debug)]
pub struct View {
    bounds: Vec<usize>,
}

impl View {
    /// Bound for `loc` (0 when never constrained).
    pub fn get(&self, loc: usize) -> usize {
        self.bounds.get(loc).copied().unwrap_or(0)
    }

    /// Raise the bound for `loc` to at least `idx`.
    pub fn raise(&mut self, loc: usize, idx: usize) {
        if self.bounds.len() <= loc {
            self.bounds.resize(loc + 1, 0);
        }
        if self.bounds[loc] < idx {
            self.bounds[loc] = idx;
        }
    }

    /// Pointwise maximum with another view.
    pub fn join(&mut self, other: &View) {
        if self.bounds.len() < other.bounds.len() {
            self.bounds.resize(other.bounds.len(), 0);
        }
        for (loc, &b) in other.bounds.iter().enumerate() {
            if self.bounds[loc] < b {
                self.bounds[loc] = b;
            }
        }
    }
}

/// One message in a location's modification order.
#[derive(Clone, Debug)]
struct Store {
    val: u64,
    /// The view an acquire reader of this message joins.
    view: View,
}

/// All atomic locations of one execution.
#[derive(Default)]
pub struct Memory {
    locs: Vec<Vec<Store>>,
    /// Per-location index of the latest SeqCst store (see module docs).
    sc: View,
}

fn is_acq(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_rel(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_sc(o: Ordering) -> bool {
    matches!(o, Ordering::SeqCst)
}

impl Memory {
    /// Register a new location with an initial (view-free) store.
    pub fn alloc(&mut self, init: u64) -> usize {
        self.locs.push(vec![Store {
            val: init,
            view: View::default(),
        }]);
        self.locs.len() - 1
    }

    /// Index of the newest store to `loc`.
    pub fn latest(&self, loc: usize) -> usize {
        self.locs[loc].len() - 1
    }

    /// The newest value (used by the harness after all threads joined).
    pub fn latest_val(&self, loc: usize) -> u64 {
        self.locs[loc].last().unwrap().val
    }

    /// How many stores a load with thread view `view` may read from
    /// (`1` = only the latest). The scheduler turns this into a decision.
    pub fn load_choices(&self, view: &View, loc: usize, ord: Ordering) -> usize {
        let mut lb = view.get(loc);
        if is_sc(ord) {
            lb = lb.max(self.sc.get(loc));
        }
        self.latest(loc) - lb + 1
    }

    /// Perform a load reading the store `choice` steps *behind* the
    /// latest (`0` = the latest; the caller obtained the choice count from
    /// [`Memory::load_choices`]). Updates `view` per the ordering.
    pub fn load(&self, view: &mut View, loc: usize, ord: Ordering, choice: usize) -> u64 {
        let idx = self.latest(loc) - choice;
        debug_assert!(
            idx >= view
                .get(loc)
                .max(if is_sc(ord) { self.sc.get(loc) } else { 0 })
        );
        let msg = &self.locs[loc][idx];
        view.raise(loc, idx);
        if is_acq(ord) {
            view.join(&msg.view);
        }
        msg.val
    }

    /// Perform a plain store. Relaxed stores publish nothing (breaking any
    /// release sequence); Release/SeqCst stores publish the writer's view.
    pub fn store(&mut self, view: &mut View, loc: usize, val: u64, ord: Ordering) {
        let idx = self.locs[loc].len();
        view.raise(loc, idx);
        let mut msg_view = View::default();
        msg_view.raise(loc, idx);
        if is_rel(ord) {
            msg_view.join(view);
        }
        self.locs[loc].push(Store {
            val,
            view: msg_view,
        });
        if is_sc(ord) {
            self.sc.raise(loc, idx);
        }
    }

    /// Perform a read-modify-write: reads the latest store (atomicity),
    /// applies `f`, appends the result. Returns the previous value.
    pub fn rmw(
        &mut self,
        view: &mut View,
        loc: usize,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let idx = self.latest(loc);
        let prev_val = self.locs[loc][idx].val;
        let prev_view = self.locs[loc][idx].view.clone();
        if is_acq(ord) {
            view.join(&prev_view);
        }
        let new_idx = idx + 1;
        view.raise(loc, new_idx);
        // Release-sequence continuation: the new message inherits the
        // previous message's view even when this RMW is Relaxed.
        let mut msg_view = prev_view;
        msg_view.raise(loc, new_idx);
        if is_rel(ord) {
            msg_view.join(view);
        }
        self.locs[loc].push(Store {
            val: f(prev_val),
            view: msg_view,
        });
        if is_sc(ord) {
            self.sc.raise(loc, new_idx);
        }
        prev_val
    }

    /// Compare-exchange: an RMW when the latest value equals `expected`,
    /// otherwise a latest-value load with the failure ordering. Returns
    /// `Ok(prev)` / `Err(latest)` like the std API.
    pub fn cas(
        &mut self,
        view: &mut View,
        loc: usize,
        expected: u64,
        new: u64,
        ok: Ordering,
        fail: Ordering,
    ) -> Result<u64, u64> {
        let idx = self.latest(loc);
        let cur = self.locs[loc][idx].val;
        if cur == expected {
            Ok(self.rmw(view, loc, ok, |_| new))
        } else {
            view.raise(loc, idx);
            if is_acq(fail) {
                let msg_view = self.locs[loc][idx].view.clone();
                view.join(&msg_view);
            }
            Err(cur)
        }
    }
}
