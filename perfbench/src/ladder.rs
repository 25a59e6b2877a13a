//! The rung ladder: one timed call into each layer's public entry point,
//! fed the workload's own pre-generated requests, at 1 and at 2 threads.
//!
//! From the bottom up, per request:
//!
//! | rung | entry point |
//! |---|---|
//! | `semlock.cas_ns` | a bare `AtomicU64` CAS in and out per acquisition (the hardware floor) |
//! | `semlock.mech_ns` | `Mech::lock` + `unlock` on the layout `Auto` picks for the workload's partitions |
//! | `semlock.select_ns` | `ModeTable::select` for every lock site the request reaches |
//! | `semlock.acquire_unlock_ns` | `SemLock::acquire` + `unlock`, one instance at a time |
//! | `semlock.txn_ns` | `Txn::acquire` / `acquire_group` + `unlock_all` |
//! | `interp.resolve_ns` | `Env::resolve` for every pointer argument |
//! | `adts.ops_ns` | the section's ADT operations, outside any lock |
//! | `interp.try_run_compiled_ns` | `Interp::try_run_compiled` |
//! | `interp.run_with_retry_ns` | `Interp::run_with_retry` |
//!
//! Each rung is timed over whole passes of its input list; the figure is
//! the mean ns per request per thread, the median over repeats.

use crate::common;
use interp::{Engine, Env, Interp, SharedAdt, Strategy};
use semlock::mech::{Mech, WaitStrategy};
use semlock::mode::{LockSiteId, ModeTable};
use semlock::retry::RetryPolicy;
use semlock::value::Value;
use semlock::{AcquireSpec, ModeId, Txn};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use synth::ir::{AtomicSection, SiteIdx, Stmt};
use synth::SynthOutput;

/// Lock timeout of every bounded acquisition, as in the server workload.
pub const LOCK_TIMEOUT: Duration = Duration::from_millis(100);

/// Timings per rung and thread count; the median is reported.
const REPS: usize = 5;
/// How long one rung timing lasts (whole passes over its inputs).
const TARGET: Duration = Duration::from_millis(4);

/// One request for the rungs: section index, section name, bindings.
pub type Request = (usize, &'static str, Vec<(&'static str, Value)>);

/// The rungs, bottom up, in the order they are reported.
pub const RUNGS: [&str; 9] = [
    "semlock.cas_ns",
    "semlock.mech_ns",
    "semlock.select_ns",
    "semlock.acquire_unlock_ns",
    "semlock.txn_ns",
    "interp.resolve_ns",
    "adts.ops_ns",
    "interp.try_run_compiled_ns",
    "interp.run_with_retry_ns",
];

/// A compiled interpreter over a fresh environment for the program
/// `synthesize` builds, configured as the server workload configures
/// its own; with the median times (ms) of synthesizing the program and
/// of compiling its tapes.
pub fn interp_for(synthesize: fn() -> SynthOutput) -> (Arc<Env>, Interp, f64, f64) {
    let synth_ms = common::median_ms(3, || {
        synthesize();
    });
    let env = Arc::new(Env::new(Arc::new(synthesize())));
    let compile_ms = common::median_ms(3, || {
        interp::compile::compile_program(&env);
    });
    let it = Interp::new(env.clone(), Strategy::Semantic)
        .with_lock_timeout(LOCK_TIMEOUT)
        .with_engine(Engine::Compiled);
    (env, it, synth_ms, compile_ms)
}

/// One semantic acquisition a request makes, resolved before timing.
struct Acq {
    adt: Arc<SharedAdt>,
    table: Arc<ModeTable>,
    site: LockSiteId,
    keys: Vec<Value>,
    mode: ModeId,
    /// Index of this (instance, partition) in the rung-private word and
    /// `Mech` arrays.
    slot: usize,
}

/// One request as the rungs see it: the section it runs, its bindings,
/// and everything the lower rungs need, resolved before timing.
pub struct Prepared {
    /// Index into the workload's section list.
    pub section: usize,
    /// Section name.
    pub name: &'static str,
    /// Bindings, in the order the workload built them.
    pub args: Vec<(&'static str, Value)>,
    /// Acquisitions in canonical (unique-id) order.
    acqs: Vec<Acq>,
    /// Pointer arguments.
    handles: Vec<Value>,
}

/// The first lock site reached for each receiver of a section, in
/// statement order.
fn lock_sites(section: &AtomicSection) -> Vec<(String, SiteIdx)> {
    let mut out: Vec<(String, SiteIdx)> = Vec::new();
    let mut add = |recv: &str, site: SiteIdx| {
        if !out.iter().any(|(r, _)| r == recv) {
            out.push((recv.to_string(), site));
        }
    };
    section.for_each_stmt(|s| match s {
        Stmt::Lv { recv, site, .. } | Stmt::LockDirect { recv, site, .. } => add(recv, *site),
        Stmt::LvGroup { entries, .. } => {
            for (recv, site) in entries {
                add(recv, *site);
            }
        }
        _ => {}
    });
    out
}

/// Rung-private admission state: one padded CAS word and one `Mech` per
/// (instance, partition), sized like the instance's own.
struct Floor {
    slots: HashMap<u64, usize>,
    words: Vec<Padded>,
    mechs: Vec<Mech>,
}

#[repr(align(64))]
struct Padded(AtomicU64);

impl Floor {
    fn new() -> Floor {
        Floor {
            slots: HashMap::new(),
            words: Vec::new(),
            mechs: Vec::new(),
        }
    }

    fn slot(&mut self, adt: &SharedAdt, part: u32) -> usize {
        let table = adt.sem().table().clone();
        let next = self.words.len();
        let base = *self.slots.entry(adt.id).or_insert(next);
        if base == next {
            for &sz in table.partition_sizes() {
                self.words.push(Padded(AtomicU64::new(0)));
                self.mechs
                    .push(Mech::new(sz as usize, WaitStrategy::default()));
            }
        }
        base + part as usize
    }
}

/// Prepared requests per thread, plus the rung-private admission state.
pub struct Inputs {
    /// `lists[t]` is thread `t`'s request list.
    pub lists: [Vec<Prepared>; 2],
    floor: Floor,
}

impl Inputs {
    /// Resolve requests for the rungs. `reqs[t]` holds thread `t`'s
    /// `(section index, section name, bindings)` triples.
    pub fn prepare(env: &Env, reqs: [Vec<Request>; 2]) -> Inputs {
        let mut floor = Floor::new();
        let mut sites: HashMap<&'static str, Vec<(String, SiteIdx)>> = HashMap::new();
        let lists = reqs.map(|list| {
            list.into_iter()
                .map(|(section, name, args)| {
                    let sec = env
                        .program
                        .sections
                        .iter()
                        .find(|s| s.name == name)
                        .unwrap_or_else(|| panic!("no section {name}"));
                    let bound = |var: &str| {
                        args.iter()
                            .find(|(n, _)| *n == var)
                            .map(|&(_, v)| v)
                            .unwrap_or_else(|| panic!("{name}: {var} is not bound"))
                    };
                    let mut acqs: Vec<Acq> = sites
                        .entry(name)
                        .or_insert_with(|| lock_sites(sec))
                        .iter()
                        .map(|(recv, idx)| {
                            let adt = env.resolve(bound(recv));
                            let decl = &sec.sites[*idx];
                            let table = env.program.tables.table(&decl.class).clone();
                            let site = env.program.tables.site(name, *idx);
                            let keys: Vec<Value> = decl.keys.iter().map(|k| bound(k)).collect();
                            let mode = table.select(site, &keys);
                            let slot = floor.slot(&adt, table.placement(mode).part);
                            Acq {
                                adt,
                                table,
                                site,
                                keys,
                                mode,
                                slot,
                            }
                        })
                        .collect();
                    acqs.sort_by_key(|a| a.adt.id);
                    let handles = sec
                        .decls
                        .iter()
                        .filter(|(_, ty)| matches!(ty, synth::ir::VarType::Ptr(_)))
                        .filter_map(|(n, _)| args.iter().find(|(a, _)| a == n).map(|&(_, v)| v))
                        .collect();
                    Prepared {
                        section,
                        name,
                        args,
                        acqs,
                        handles,
                    }
                })
                .collect()
        });
        Inputs { lists, floor }
    }

    /// Requests of one section, per thread.
    fn of_section(&self, section: usize) -> [Vec<&Prepared>; 2] {
        [0, 1].map(|t| {
            self.lists[t]
                .iter()
                .filter(|p| p.section == section)
                .collect()
        })
    }
}

/// Per-section rung results: `[1 thread, 2 threads]` ns per request.
pub type RungTable = Vec<(usize, &'static str, [f64; 2])>;

/// A rung: one request's worth of calls into one layer.
type Rung<'a> = &'a (dyn Fn(&Prepared) + Sync);

/// Time `op` over whole passes of each thread's list, `threads` threads
/// at once; returns the mean ns per request per thread.
fn time_once(lists: &[Vec<&Prepared>; 2], threads: usize, passes: usize, op: Rung) -> f64 {
    let gate = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                let (gate, list) = (&gate, &lists[t]);
                s.spawn(move || {
                    gate.wait();
                    let t0 = Instant::now();
                    for _ in 0..passes {
                        for p in list.iter() {
                            op(p);
                        }
                    }
                    t0.elapsed().as_nanos() as f64 / (passes * list.len()).max(1) as f64
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("rung thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Time one rung at 1 and 2 threads: passes are sized so one timing
/// lasts about [`TARGET`], and the result is the median of [`REPS`]
/// timings.
fn time_rung(lists: &[Vec<&Prepared>; 2], op: Rung) -> [f64; 2] {
    if lists[0].is_empty() || lists[1].is_empty() {
        return [0.0; 2];
    }
    let one = time_once(lists, 1, 1, op) * lists[0].len() as f64;
    let passes = ((TARGET.as_nanos() as f64 / one.max(1.0)).ceil() as usize).clamp(1, 100_000);
    [1, 2].map(|threads| {
        let v: Vec<f64> = (0..REPS)
            .map(|_| time_once(lists, threads, passes, op))
            .collect();
        crate::stats::median(&v)
    })
}

/// What the rungs that can fail or retry saw, summed over all timings.
#[derive(Debug, Default)]
pub struct Tally {
    /// `run_with_retry` calls.
    pub requests: u64,
    /// Attempts those calls made.
    pub attempts: u64,
    /// Backoff they slept, ns.
    pub backoff_ns: u64,
    /// Calls that escalated.
    pub escalations: u64,
    /// Failed calls of any rung (bounded acquisitions that gave up).
    pub failures: u64,
}

/// Run every rung for every section with requests.
///
/// `adt_ops` performs the request's ADT operations with no lock held;
/// it is the only workload-specific rung.
pub fn run_rungs(
    inputs: &Inputs,
    sections: &[&'static str],
    env: &Env,
    interp: &Interp,
    policy: &RetryPolicy,
    adt_ops: Rung,
) -> (RungTable, Tally) {
    let failures = AtomicU64::new(0);
    let [requests, attempts, backoff_ns, escalations] = [(); 4].map(|_| AtomicU64::new(0));
    let fail = || {
        failures.fetch_add(1, Ordering::Relaxed);
    };
    let floor = &inputs.floor;
    let cas: Rung = &|p| {
        for a in &p.acqs {
            let w = &floor.words[a.slot].0;
            let mut cur = w.load(Ordering::Relaxed);
            while let Err(now) =
                w.compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                cur = now;
            }
        }
        for a in p.acqs.iter().rev() {
            let w = &floor.words[a.slot].0;
            let mut cur = w.load(Ordering::Relaxed);
            while let Err(now) =
                w.compare_exchange_weak(cur, cur - 1, Ordering::Release, Ordering::Relaxed)
            {
                cur = now;
            }
        }
    };
    let mech: Rung = &|p| {
        for a in &p.acqs {
            let pl = a.table.placement(a.mode);
            if !pl.free {
                floor.mechs[a.slot].lock(pl.local, pl.conflicts());
            }
        }
        for a in p.acqs.iter().rev() {
            let pl = a.table.placement(a.mode);
            if !pl.free && !floor.mechs[a.slot].unlock(pl.local) {
                fail();
            }
        }
    };
    let select: Rung = &|p| {
        for a in &p.acqs {
            black_box(a.table.select(a.site, black_box(&a.keys)));
        }
    };
    let acquire_unlock: Rung = &|p| {
        for a in &p.acqs {
            let sem = a.adt.sem();
            match sem.acquire(&AcquireSpec::new(a.mode)) {
                Ok(()) => sem.unlock(a.mode),
                Err(_) => fail(),
            }
        }
    };
    let txn: Rung = &|p| {
        let mut txn = Txn::new();
        let ok = match p.acqs.as_slice() {
            [a] => txn.acquire(a.adt.sem(), &AcquireSpec::new(a.mode).timeout(LOCK_TIMEOUT)),
            many => {
                let group: Vec<_> = many
                    .iter()
                    .map(|a| (a.adt.sem(), AcquireSpec::new(a.mode).timeout(LOCK_TIMEOUT)))
                    .collect();
                txn.acquire_group(&group)
            }
        };
        if ok.is_err() {
            fail();
        }
        txn.unlock_all();
    };
    let resolve: Rung = &|p| {
        for &h in &p.handles {
            black_box(env.resolve(h));
        }
    };
    let compiled: Rung = &|p| {
        if interp.try_run_compiled(p.name, &p.args).is_err() {
            fail();
        }
    };
    let retry: Rung = &|p| {
        requests.fetch_add(1, Ordering::Relaxed);
        match interp.run_with_retry(p.name, &p.args, policy) {
            Ok(run) => {
                attempts.fetch_add(u64::from(run.attempts), Ordering::Relaxed);
                let slept: Duration = run.backoffs.iter().sum();
                backoff_ns.fetch_add(slept.as_nanos() as u64, Ordering::Relaxed);
                escalations.fetch_add(u64::from(run.escalated), Ordering::Relaxed);
            }
            Err(_) => fail(),
        }
    };
    let ops: [Rung; 9] = [
        cas,
        mech,
        select,
        acquire_unlock,
        txn,
        resolve,
        adt_ops,
        compiled,
        retry,
    ];
    let mut table = RungTable::new();
    for (si, _) in sections.iter().enumerate() {
        let lists = inputs.of_section(si);
        for (rung, op) in RUNGS.iter().zip(ops) {
            table.push((si, rung, time_rung(&lists, op)));
        }
    }
    let tally = Tally {
        requests: requests.into_inner(),
        attempts: attempts.into_inner(),
        backoff_ns: backoff_ns.into_inner(),
        escalations: escalations.into_inner(),
        failures: failures.into_inner(),
    };
    (table, tally)
}

/// What one request of a section costs on the native `Txn` path at 1
/// thread, by its rungs: mode selection, the transaction's acquisitions
/// and releases, and the ADT operations.
pub fn native_sum(table: &RungTable, section: usize) -> f64 {
    ["semlock.select_ns", "semlock.txn_ns", "adts.ops_ns"]
        .iter()
        .map(|n| rung(table, section, n)[0])
        .sum()
}

/// Look up one rung of one section.
pub fn rung(table: &RungTable, section: usize, name: &str) -> [f64; 2] {
    table
        .iter()
        .find(|(s, n, _)| *s == section && *n == name)
        .map(|&(_, _, v)| v)
        .unwrap_or([0.0; 2])
}
