//! Integration tests of the contention-telemetry layer (PR 3):
//!
//! * event streams from fault-injected chaos runs and interpreted
//!   workloads are *balanced* — every `AcquireStart` resolves to exactly
//!   one `Admit`+`Release`, `Timeout`, `PoisonRejected`, or
//!   `CycleAborted` per (txn, instance, mode, site);
//! * a watchdog-broken waits-for cycle produces a `CycleAborted` record
//!   whose member list matches the [`LockError::WouldDeadlock`] payload;
//! * recompiling the paper's Fig. 1 / Fig. 7 examples yields identical
//!   stable site ids across runs;
//! * a double release is refused in every build: `unlock_checked`
//!   returns [`LockError::UnlockUnderflow`], poisons the instance, and
//!   (with telemetry on) emits an `UnlockUnderflow` event.
//!
//! The telemetry gate and rings are process-global, so every test that
//! toggles the flag serializes on [`guard`] and resets at quiescence.

use proptest::prelude::*;
use semlock::error::LockError;
use semlock::manager::SemLock;
use semlock::mode::ModeTable;
use semlock::phi::Phi;
use semlock::symbolic::{SymArg, SymOp, SymbolicSet};
use semlock::telemetry::{self, EventKind};
use semlock::txn::Txn;
use semlock::value::Value;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;
use workloads::chaos::{run_chaos, ChaosConfig};

/// Serializes the telemetry-toggling tests (the enabled flag and the
/// event rings are process-global).
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// The ComputeIfAbsent mode table: same-key transactions conflict
/// (containsKey vs put), distinct key classes commute.
fn cia_table(n: u16) -> (Arc<ModeTable>, semlock::mode::LockSiteId) {
    let schema = adts::schema_of("Map");
    let spec = adts::spec_of("Map");
    let mut b = ModeTable::builder(schema.clone(), spec, Phi::fib(n));
    let site = b.add_site(SymbolicSet::new(vec![
        SymOp::new(schema.method("containsKey"), vec![SymArg::Var(0)]),
        SymOp::new(schema.method("put"), vec![SymArg::Var(0), SymArg::Star]),
    ]));
    (b.build(), site)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite 1a: chaos soaks — bounded acquisitions, injected
    /// timeouts and panics, watchdog aborts, poisoning — always leave a
    /// balanced event stream behind.
    #[test]
    fn chaos_event_stream_balances(seed in 0u64..1_000_000) {
        let _g = guard();
        telemetry::reset();
        telemetry::enable();
        let cfg = ChaosConfig {
            seed,
            threads: 3,
            ops_per_thread: 80,
            maps: 2,
            key_range: 8,
            lock_timeout: Duration::from_millis(200),
            delay_ppm: 0,
            timeout_ppm: 15_000,
            panic_ppm: 15_000,
            retry: None,
        };
        let report = run_chaos(&cfg).expect("chaos invariants");
        telemetry::disable();
        let (events, dropped) = telemetry::snapshot();
        telemetry::reset();
        assert_eq!(dropped, 0, "ring overflow would break the balance check");
        assert!(!events.is_empty(), "telemetry recorded nothing: {report:?}");
        if let Err(e) = telemetry::check_balanced(&events) {
            panic!("unbalanced stream (seed {seed}): {e}\nreport: {report:?}");
        }
    }
}

/// Satellite 1b: an interpreted multi-threaded driver run with telemetry
/// on yields a balanced stream attributed to the compiler-stamped sites.
#[test]
fn interp_driver_stream_balances() {
    use interp::{Env, Interp, Strategy};
    use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};

    let _g = guard();
    let mut registry = ClassRegistry::new();
    registry.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
    let section = AtomicSection::new(
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
    );
    let program = Arc::new(
        Synthesizer::new(registry)
            .phi(Phi::fib(16))
            .synthesize(&[section]),
    );
    let stamped: Vec<u32> = program.sections[0]
        .sites
        .iter()
        .map(|s| s.stable_id)
        .collect();
    assert!(stamped.iter().all(|&id| id != 0 && id != u32::MAX));
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    let interp = Arc::new(Interp::new(env, Strategy::Semantic));

    telemetry::reset();
    telemetry::enable();
    workloads::driver::run_fixed_ops(4, 150, 11, &|t, _| {
        let k = Value((t as u64 * 31) % 8);
        interp.run("counter", &[("map", map), ("k", k)]);
    });
    telemetry::disable();
    let (events, dropped) = telemetry::snapshot();
    telemetry::reset();
    assert_eq!(dropped, 0);
    telemetry::check_balanced(&events).expect("interp driver stream balances");
    // Every admit is attributed to a compiler-stamped site, never the
    // "no site" sentinel.
    let admits: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Admit)
        .collect();
    assert!(!admits.is_empty());
    assert!(
        admits.iter().all(|e| stamped.contains(&e.site)),
        "an admit carries an unstamped site id"
    );
}

/// Satellite 2: a deterministic two-transaction deadlock. The watchdog
/// aborts the cycle; the `CycleAborted` telemetry record's member list
/// must match the `WouldDeadlock` error payload.
#[test]
fn cycle_abort_event_matches_would_deadlock_payload() {
    const SITE_A: u32 = 0xA11CE;
    const SITE_B: u32 = 0xB0B;

    let _g = guard();
    telemetry::reset();
    telemetry::enable();

    let (table, site) = cia_table(8);
    let mode = table.select(site, &[Value(7)]); // self-conflicting
    let a = SemLock::new(table.clone());
    let b = SemLock::new(table.clone());
    let gate = Barrier::new(2);
    let errors: Mutex<Vec<LockError>> = Mutex::new(Vec::new());

    let run = |first: &SemLock, second: &SemLock, site_id: u32| {
        let mut txn = Txn::new();
        telemetry::set_site(site_id);
        txn.lv(first, mode);
        gate.wait();
        telemetry::set_site(site_id);
        match txn.lv_timeout(second, mode, Duration::from_secs(10)) {
            Ok(()) => {}
            Err(e) => errors.lock().unwrap().push(e),
        }
        // Drop releases whatever the transaction still holds.
    };
    std::thread::scope(|scope| {
        scope.spawn(|| run(&a, &b, SITE_A));
        scope.spawn(|| run(&b, &a, SITE_B));
    });
    telemetry::disable();
    let (events, dropped) = telemetry::snapshot();
    let cycles = telemetry::cycles();
    telemetry::reset();

    let errors = errors.into_inner().unwrap();
    assert_eq!(errors.len(), 1, "exactly one txn aborts: {errors:?}");
    let LockError::WouldDeadlock {
        instance,
        mode: err_mode,
        cycle,
    } = &errors[0]
    else {
        panic!("expected WouldDeadlock, got {}", errors[0]);
    };

    assert_eq!(cycles.len(), 1, "one cycle record: {cycles:?}");
    let rec = &cycles[0];
    assert_eq!(&rec.members, cycle, "cycle record members match payload");
    assert_eq!(rec.instance, *instance);
    assert_eq!(rec.mode, err_mode.0);
    assert!(rec.site == SITE_A || rec.site == SITE_B);
    assert!(
        cycle.contains(&rec.txn),
        "the aborting txn is a member of its own cycle"
    );

    assert_eq!(dropped, 0);
    let aborts: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::CycleAborted)
        .collect();
    assert_eq!(aborts.len(), 1, "one CycleAborted event");
    assert_eq!(aborts[0].txn, rec.txn);
    assert_eq!(aborts[0].instance, *instance);
    assert_eq!(aborts[0].site, rec.site);
    telemetry::check_balanced(&events).expect("deadlock stream balances");
}

/// Satellite 4: stable site ids are a pure function of the synthesized
/// program — recompiling Fig. 1 / Fig. 7 yields identical ids, and ids
/// are unique within a program.
#[test]
fn site_ids_identical_across_recompiles() {
    use synth::ir::{fig1_section, fig7_section};
    use synth::{ClassRegistry, Synthesizer};

    fn registry() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        for class in ["Map", "Set", "Queue"] {
            r.register(class, adts::schema_of(class), adts::spec_of(class));
        }
        r
    }
    fn compile_ids() -> Vec<(String, Vec<u32>)> {
        let out = Synthesizer::new(registry())
            .phi(Phi::fib(16))
            .synthesize(&[fig1_section(), fig7_section()]);
        out.sections
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.sites.iter().map(|d| d.stable_id).collect(),
                )
            })
            .collect()
    }

    let first = compile_ids();
    for _ in 0..3 {
        assert_eq!(compile_ids(), first, "site ids drift across recompiles");
    }
    let all: Vec<u32> = first.iter().flat_map(|(_, ids)| ids.clone()).collect();
    assert!(!all.is_empty());
    assert!(
        all.iter().all(|&id| id != 0 && id != u32::MAX),
        "ids avoid the unstamped / no-site sentinels: {all:?}"
    );
    let mut dedup = all.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), all.len(), "site ids collide: {all:?}");
}

/// Satellite 3 (instance level): a double release is refused in release
/// builds too — the counter is untouched, the instance poisons, and the
/// failure is observable both as an error and as telemetry. Driven under
/// *both* explicit counter layouts: the packed single-word representation
/// must refuse exactly like the wide fallback (its 7-bit field neither
/// saturates nor borrows), not just under whatever `Auto` picks.
#[test]
fn double_release_refused_poisons_and_reports() {
    use semlock::mech::MechLayout;
    use semlock::WaitStrategy;

    let _g = guard();
    for layout in [MechLayout::Packed, MechLayout::Wide] {
        let (table, site) = cia_table(8);
        let mode = table.select(site, &[Value(3)]);
        let lock = SemLock::with_layout(table, WaitStrategy::Block, layout);

        telemetry::reset();
        telemetry::enable();
        lock.lock(mode);
        lock.unlock_checked(mode).expect("first release succeeds");
        let err = lock
            .unlock_checked(mode)
            .expect_err("second release refused");
        telemetry::disable();
        let (events, _) = telemetry::snapshot();
        telemetry::reset();

        assert!(
            matches!(err, LockError::UnlockUnderflow { instance, mode: m }
                if instance == lock.unique() && m == mode),
            "{layout:?}: {err}"
        );
        assert!(
            lock.is_poisoned(),
            "{layout:?}: refused double release poisons"
        );
        assert_eq!(lock.underflow_count(), 1, "{layout:?}");
        assert_eq!(
            lock.total_holds(),
            0,
            "{layout:?}: the counter never underflowed"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::UnlockUnderflow && e.instance == lock.unique()),
            "{layout:?}: an UnlockUnderflow event is emitted"
        );

        // The instance recovers through the normal escape hatch.
        lock.clear_poison();
        lock.lock(mode);
        lock.unlock_checked(mode)
            .unwrap_or_else(|e| panic!("{layout:?}: usable after recovery: {e}"));
    }
}

/// The watchdog's `CycleAborted` path under both explicit counter
/// layouts. The probe/abort machinery lives in the bounded wait loops of
/// `Mech::lock_deadline`, which differ per layout (packed parks under the
/// WAITERS bit, wide under the internal mutex), so a cycle must be broken
/// — with the abort surfacing as both `WouldDeadlock` and a
/// `CycleAborted` event — whichever representation serves the partition.
#[test]
fn cycle_abort_fires_under_both_mech_layouts() {
    use semlock::mech::MechLayout;
    use semlock::WaitStrategy;

    let _g = guard();
    for layout in [MechLayout::Packed, MechLayout::Wide] {
        telemetry::reset();
        telemetry::enable();

        let (table, site) = cia_table(8);
        let mode = table.select(site, &[Value(7)]); // self-conflicting
        let a = SemLock::with_layout(table.clone(), WaitStrategy::Block, layout);
        let b = SemLock::with_layout(table.clone(), WaitStrategy::Block, layout);
        let gate = Barrier::new(2);
        let errors: Mutex<Vec<LockError>> = Mutex::new(Vec::new());

        let run = |first: &SemLock, second: &SemLock| {
            let mut txn = Txn::new();
            txn.lv(first, mode);
            gate.wait();
            if let Err(e) = txn.lv_timeout(second, mode, Duration::from_secs(10)) {
                errors.lock().unwrap().push(e);
            }
        };
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| run(&a, &b));
            scope.spawn(|| run(&b, &a));
        });
        telemetry::disable();
        let (events, _) = telemetry::snapshot();
        telemetry::reset();

        assert!(
            start.elapsed() < Duration::from_secs(8),
            "{layout:?}: watchdog did not break the cycle before the deadline"
        );
        let errors = errors.into_inner().unwrap();
        assert_eq!(errors.len(), 1, "{layout:?}: exactly one txn aborts");
        assert!(
            matches!(errors[0], LockError::WouldDeadlock { .. }),
            "{layout:?}: {}",
            errors[0]
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == EventKind::CycleAborted)
                .count(),
            1,
            "{layout:?}: one CycleAborted event"
        );
        assert_eq!(a.total_holds() + b.total_holds(), 0, "{layout:?}");
    }
}

/// With the flag off, the whole stack records nothing — the disabled
/// path is a branch, not a buffer.
#[test]
fn disabled_flag_records_nothing() {
    let _g = guard();
    telemetry::reset();
    telemetry::disable();
    let (table, site) = cia_table(8);
    let mode = table.select(site, &[Value(1)]);
    let lock = SemLock::new(table);
    for _ in 0..100 {
        let mut txn = Txn::new();
        txn.lv(&lock, mode);
        txn.unlock_all();
    }
    let (events, dropped) = telemetry::snapshot();
    assert!(events.is_empty());
    assert_eq!(dropped, 0);
}

/// Per-site counts of one `(site, mode)` after a contended, bounded
/// acquisition that waited out a holder at the same site: the holder's
/// acquisition plus this one (`acquires 2`), no timeout, one contended
/// terminal, and the conflicting hold sampled once. The non-blocking try
/// that precedes every bounded wait is part of the same acquisition, not
/// a zero-wait `Timeout` of its own.
fn assert_one_contended_wait(events: &[telemetry::Event], site: u32, mode: u32, what: &str) {
    telemetry::check_balanced(events).unwrap_or_else(|e| panic!("{what}: {e}"));
    let m = telemetry::Metrics::from_events(events, Vec::new(), 0);
    let s = &m.per_site[&(site, mode)];
    assert_eq!(
        (s.acquires, s.timeouts, s.contended),
        (2, 0, 1),
        "{what}: acquires / timeouts / contended"
    );
    assert_eq!(s.admits, 2, "{what}");
    assert_eq!(
        m.conflict_pairs.values().sum::<u64>(),
        1,
        "{what}: conflict pairs {:?}",
        m.conflict_pairs
    );
}

/// Hold `mode` on `lock` at `site` from another thread until `waiter`'s
/// acquisition has been refused (its `Blocked` sample is recorded), then
/// release it; returns what `waiter` returned. Telemetry must be on.
fn wait_out_holder<R: Send>(
    lock: &SemLock,
    mode: semlock::mode::ModeId,
    site: u32,
    waiter: impl FnOnce() -> R + Send,
) -> R {
    let held = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut txn = Txn::new();
            telemetry::set_site(site);
            txn.lv(lock, mode);
            held.wait();
            let start = std::time::Instant::now();
            while !telemetry::snapshot()
                .0
                .iter()
                .any(|e| e.kind == EventKind::Blocked)
            {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "the waiter never blocked"
                );
                std::thread::yield_now();
            }
        });
        held.wait();
        waiter()
    })
}

#[test]
fn contended_bounded_txn_acquire_counts_once() {
    const SITE: u32 = 0x5EED;
    let _g = guard();
    let (table, site) = cia_table(8);
    let mode = table.select(site, &[Value(7)]); // self-conflicting
    let lock = SemLock::new(table);
    telemetry::reset();
    telemetry::enable();
    wait_out_holder(&lock, mode, SITE, || {
        let mut txn = Txn::new();
        telemetry::set_site(SITE);
        txn.lv_timeout(&lock, mode, Duration::from_secs(10))
            .expect("admitted once the holder leaves");
    });
    telemetry::disable();
    let (events, dropped) = telemetry::snapshot();
    telemetry::reset();
    assert_eq!(dropped, 0);
    assert_one_contended_wait(&events, SITE, mode.0, "Txn::acquire");
}

#[test]
fn contended_bounded_interp_acquire_counts_once() {
    use interp::{Engine, Env, Interp, Strategy};
    use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};

    let _g = guard();
    let mut registry = ClassRegistry::new();
    registry.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
    let section = AtomicSection::new(
        "bump",
        [ptr("map", "Map"), scalar("k")],
        Body::new()
            .call("map", "put", vec![var("k"), konst(1)])
            .build(),
    );
    let program = Arc::new(
        Synthesizer::new(registry)
            .phi(Phi::fib(16))
            .synthesize(&[section]),
    );
    let site = program.sections[0].sites[0].stable_id;
    let mode = program
        .tables
        .table("Map")
        .select(program.tables.site("bump", 0), &[Value(3)]);
    for engine in [Engine::TreeWalk, Engine::Compiled] {
        let env = Arc::new(Env::new(program.clone()));
        let map = env.new_instance("Map");
        let adt = env.resolve(map);
        let interp = Interp::new(env.clone(), Strategy::Semantic)
            .with_engine(engine)
            .with_lock_timeout(Duration::from_secs(10));
        telemetry::reset();
        telemetry::enable();
        wait_out_holder(adt.sem(), mode, site, || {
            interp
                .try_run("bump", &[("map", map), ("k", Value(3))])
                .expect("admitted once the holder leaves");
        });
        telemetry::disable();
        let (events, dropped) = telemetry::snapshot();
        telemetry::reset();
        assert_eq!(dropped, 0);
        assert_one_contended_wait(&events, site, mode.0, &format!("{engine:?}"));
    }
}
