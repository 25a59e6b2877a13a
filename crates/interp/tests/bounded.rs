//! Bounded acquisition through the interpreter (`Interp::with_lock_timeout`),
//! on both engines: every failure mode keeps its meaning now that an
//! admissible mode is taken before any deadline, snapshot or watchdog
//! work is set up.
//!
//! * a conflicting hold times out after at least the budget;
//! * a poisoned instance is refused at once, without waiting;
//! * a forced-timeout fault fires at the lock boundary, before admission;
//! * opposing acquisition orders form a waits-for cycle that the watchdog
//!   breaks with `WouldDeadlock`, and `run_with_retry` completes both.

use interp::{Engine, Env, Interp, Strategy};
use semlock::error::LockError;
use semlock::fault::FaultPlan;
use semlock::mode::ModeId;
use semlock::retry::RetryPolicy;
use semlock::txn::Txn;
use semlock::value::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::ir::{e::*, ptr, scalar, AtomicSection, Body, SiteIdx, Stmt};
use synth::{ClassRegistry, SynthOutput, Synthesizer};

const ENGINES: [Engine; 2] = [Engine::TreeWalk, Engine::Compiled];

fn synthesize(sections: &[AtomicSection]) -> SynthOutput {
    let mut registry = ClassRegistry::new();
    registry.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
    Synthesizer::new(registry)
        .phi(semlock::phi::Phi::fib(64))
        .synthesize(sections)
}

/// Increment `map[k]`: one lock site, keyed by `k`.
fn counter_section() -> AtomicSection {
    AtomicSection::new(
        "counter",
        [ptr("map", "Map"), scalar("k"), scalar("v")],
        Body::new()
            .call_into("v", "map", "get", vec![var("k")])
            .if_else(
                is_null(var("v")),
                Body::new().call("map", "put", vec![var("k"), konst(1)]),
                Body::new().call("map", "put", vec![var("k"), add(var("v"), konst(1))]),
            )
            .build(),
    )
}

/// A counter environment plus the mode its lock site takes for `k`.
fn counter_env(k: u64) -> (Arc<Env>, Value, ModeId) {
    let program = Arc::new(synthesize(&[counter_section()]));
    let mode = program
        .tables
        .table("Map")
        .select(program.tables.site("counter", 0), &[Value(k)]);
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    (env, map, mode)
}

fn interp(env: &Arc<Env>, engine: Engine, timeout: Duration) -> Interp {
    Interp::new(env.clone(), Strategy::Semantic)
        .with_engine(engine)
        .with_lock_timeout(timeout)
}

#[test]
fn conflicting_hold_times_out_after_the_budget() {
    let budget = Duration::from_millis(30);
    for engine in ENGINES {
        let (env, map, mode) = counter_env(1);
        let sem = env.resolve(map);
        let mut holder = Txn::new();
        holder.lv(sem.sem(), mode);
        let start = Instant::now();
        let err = interp(&env, engine, budget)
            .try_run("counter", &[("map", map), ("k", Value(1))])
            .unwrap_err();
        let elapsed = start.elapsed();
        let LockError::Timeout { waited, .. } = err else {
            panic!("{engine:?}: expected a timeout, got {err}");
        };
        assert!(
            waited >= budget,
            "{engine:?}: waited {waited:?} < {budget:?}"
        );
        assert!(elapsed >= budget, "{engine:?}: returned after {elapsed:?}");
        drop(holder);
        assert_eq!(sem.sem().total_holds(), 0, "{engine:?}");
        assert!(
            !sem.sem().is_poisoned(),
            "{engine:?}: a clean abort poisons nothing"
        );
    }
}

#[test]
fn poisoned_instance_is_refused_without_waiting() {
    let budget = Duration::from_secs(10);
    for engine in ENGINES {
        let (env, map, _) = counter_env(1);
        let sem = env.resolve(map);
        sem.sem().poison();
        let start = Instant::now();
        let err = interp(&env, engine, budget)
            .try_run("counter", &[("map", map), ("k", Value(1))])
            .unwrap_err();
        assert!(
            matches!(err, LockError::Poisoned { instance } if instance == sem.id),
            "{engine:?}: {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{engine:?}: a poisoned instance must not wait out the budget"
        );
        assert_eq!(sem.sem().total_holds(), 0, "{engine:?}");
    }
}

#[test]
fn forced_timeout_fires_before_admission() {
    let budget = Duration::from_secs(10);
    for engine in ENGINES {
        for contended in [false, true] {
            let (env, map, mode) = counter_env(1);
            let sem = env.resolve(map);
            let mut holder = Txn::new();
            if contended {
                holder.lv(sem.sem(), mode);
            }
            let (admitted_before, _) = sem.sem().contention();
            let plan = Arc::new(FaultPlan::new(3).with_timeouts(1_000_000));
            let start = Instant::now();
            let err = interp(&env, engine, budget)
                .with_faults(plan.clone())
                .try_run("counter", &[("map", map), ("k", Value(1))])
                .unwrap_err();
            let what = format!("{engine:?}, contended {contended}");
            assert!(
                matches!(err, LockError::Timeout { waited, .. } if waited == Duration::ZERO),
                "{what}: {err}"
            );
            assert!(start.elapsed() < Duration::from_secs(1), "{what}: waited");
            assert_eq!(
                sem.sem().contention().0,
                admitted_before,
                "{what}: the section's mode was admitted"
            );
            assert_eq!(
                plan.stats()
                    .timeouts
                    .load(std::sync::atomic::Ordering::Relaxed),
                1,
                "{what}"
            );
            drop(holder);
            assert_eq!(sem.sem().total_holds(), 0, "{what}");
        }
    }
}

/// A transfer between `src` and `dst` that also writes a `gate` map.
fn gated_transfer_section() -> AtomicSection {
    AtomicSection::new(
        "gated",
        [
            ptr("src", "Map"),
            ptr("dst", "Map"),
            ptr("gate", "Map"),
            scalar("ka"),
            scalar("kb"),
            scalar("kg"),
            scalar("va"),
            scalar("vb"),
        ],
        Body::new()
            .call_into("va", "src", "get", vec![var("ka")])
            .call_into("vb", "dst", "get", vec![var("kb")])
            .call("gate", "put", vec![var("kg"), konst(1)])
            .call("src", "put", vec![var("ka"), add(var("va"), konst(1))])
            .call("dst", "put", vec![var("kb"), add(var("vb"), konst(1))])
            .build(),
    )
}

/// Replace the synthesized acquisitions of `section` (one dynamically
/// ordered group of same-class instances) with plain `LV`s in the given
/// variable order, ahead of every operation — so two runs with opposite
/// orders can deadlock, which synthesized code never does.
fn lock_in_order(program: &mut SynthOutput, section: &str, order: &[&str]) -> Vec<SiteIdx> {
    let s = program
        .sections
        .iter_mut()
        .find(|s| s.name == section)
        .expect("section");
    let mut sites: Vec<(String, SiteIdx)> = Vec::new();
    s.body.retain(|st| match st {
        Stmt::LvGroup { entries, .. } => {
            sites.extend(entries.iter().cloned());
            false
        }
        Stmt::Lv { recv, site, .. } | Stmt::LockDirect { recv, site, .. } => {
            sites.push((recv.clone(), *site));
            false
        }
        _ => true,
    });
    assert_eq!(sites.len(), order.len(), "acquisitions found: {sites:?}");
    let ordered: Vec<SiteIdx> = order
        .iter()
        .map(|var| {
            sites
                .iter()
                .find(|(v, _)| v == var)
                .unwrap_or_else(|| panic!("no acquisition of {var}"))
                .1
        })
        .collect();
    let next = s.body.iter().map(Stmt::id).max().unwrap_or(0) + 1;
    let locks = order
        .iter()
        .zip(&ordered)
        .zip(next..)
        .map(|((var, &site), id)| Stmt::Lv {
            id,
            recv: var.to_string(),
            site,
        });
    s.body.splice(0..0, locks);
    ordered
}

#[test]
fn opposing_transfers_abort_one_cycle_and_both_complete() {
    for engine in ENGINES {
        let mut program = synthesize(&[gated_transfer_section()]);
        let sites = lock_in_order(&mut program, "gated", &["src", "gate", "dst"]);
        let program = Arc::new(program);
        // The mode the first transfer takes on the gate. Every site of the
        // section may alias every instance, so its modes cover all of the
        // section's keyed operations and conflict with the second
        // transfer's modes too.
        let first = [("ka", 1), ("kb", 2), ("kg", 0)];
        let gate_keys: Vec<Value> = program.sections[0].sites[sites[1]]
            .keys
            .iter()
            .map(|k| Value(first.iter().find(|(n, _)| n == k).expect("key").1))
            .collect();
        let gate_mode = program
            .tables
            .table("Map")
            .select(program.tables.site("gated", sites[1]), &gate_keys);
        let env = Arc::new(Env::new(program));
        // The gate gets the smallest instance id, so the compiled engine's
        // batched fast pass (canonical id order) is refused on it before
        // it takes any source: a held source is always a transfer's
        // sequential acquisition.
        let gate = env.new_instance("Map");
        let (a, b) = (env.new_instance("Map"), env.new_instance("Map"));
        let interp = interp(&env, engine, Duration::from_secs(10));
        let policy = RetryPolicy::new(5);
        let deadlocks = || {
            semlock::watchdog::global()
                .stats()
                .deadlocks
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        let deadlocks_before = deadlocks();

        // Hold the gate so that each transfer stops after taking its
        // `src`; once both have, their `dst` waits must close a cycle.
        let gate_adt = env.resolve(gate);
        let mut holder = Txn::new();
        holder.lv(gate_adt.sem(), gate_mode);
        let (ra, rb) = (env.resolve(a), env.resolve(b));
        let (get, put) = (ra.obj.schema().method("get"), ra.obj.schema().method("put"));
        ra.obj.invoke(put, &[Value(1), Value(10)]);
        rb.obj.invoke(put, &[Value(2), Value(20)]);
        let run = |src: Value, dst: Value, ka: u64, kb: u64| {
            let args = [
                ("src", src),
                ("dst", dst),
                ("gate", gate),
                ("ka", Value(ka)),
                ("kb", Value(kb)),
                ("kg", Value(0)),
            ];
            interp.run_with_retry("gated", &args, &policy)
        };
        let (one, two) = std::thread::scope(|scope| {
            let one = scope.spawn(|| run(a, b, 1, 2));
            let two = scope.spawn(|| run(b, a, 2, 1));
            // Once each transfer holds its source, each needs the other's:
            // releasing the gate then has to close a waits-for cycle.
            let start = Instant::now();
            while ra.sem().total_holds() == 0 || rb.sem().total_holds() == 0 {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "{engine:?}: transfers never took their sources"
                );
                std::thread::yield_now();
            }
            drop(holder);
            (one.join().unwrap(), two.join().unwrap())
        });
        let (one, two) = (one.unwrap(), two.unwrap());
        // The survivor of the cycle finishes on its first attempt; the
        // victim retries (possibly more than once: a retry can grab its
        // source again before the survivor does and lose a second cycle).
        let attempts = [one.attempts, two.attempts];
        assert!(
            attempts.contains(&1) && attempts.iter().any(|&a| a > 1),
            "{engine:?}: one transfer retried ({one:?} / {two:?})"
        );
        assert!(deadlocks() > deadlocks_before, "{engine:?}: no cycle abort");
        // Each transfer applied exactly once: both increment a[1] and b[2].
        assert_eq!(ra.obj.invoke(get, &[Value(1)]), Value(12), "{engine:?}");
        assert_eq!(rb.obj.invoke(get, &[Value(2)]), Value(22), "{engine:?}");
        for adt in [&ra, &rb, &gate_adt] {
            assert_eq!(adt.sem().total_holds(), 0, "{engine:?}");
            assert!(
                !adt.sem().is_poisoned(),
                "{engine:?}: the victim aborted clean"
            );
        }
    }
}
