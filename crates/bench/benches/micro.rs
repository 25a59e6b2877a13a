//! Criterion micro-benchmarks of the runtime primitives: uncontended
//! mode acquisition, mode selection, commutativity evaluation, mode-table
//! construction, and single interpreted transactions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use semlock::manager::SemLock;
use semlock::mech::MechLayout;
use semlock::mode::ModeTable;
use semlock::phi::Phi;
use semlock::symbolic::{Operation, SymArg, SymOp, SymbolicSet};
use semlock::txn::Txn;
use semlock::value::Value;
use semlock::{AcquireSpec, WaitStrategy};
use std::sync::Arc;

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

fn bench_lock_uncontended(c: &mut Criterion) {
    let (table, site) = cia_table(64);
    let lock = SemLock::new(table.clone());
    let mode = table.select(site, &[Value(7)]);
    c.bench_function("semlock/lock_unlock_uncontended", |b| {
        b.iter(|| {
            lock.lock(mode);
            lock.unlock(mode);
        })
    });
    // The packed-vs-wide admission A/B: identical call shape, counter
    // representation forced either way. The packed path is a single CAS;
    // the wide path round-trips the internal mutex.
    let packed = SemLock::with_layout(table.clone(), WaitStrategy::Block, MechLayout::Packed);
    c.bench_function("semlock/admission_packed_uncontended", |b| {
        b.iter(|| {
            packed
                .acquire(&AcquireSpec::new(mode))
                .expect("uncontended");
            packed.unlock(mode);
        })
    });
    let wide = SemLock::with_layout(table.clone(), WaitStrategy::Block, MechLayout::Wide);
    c.bench_function("semlock/admission_wide_uncontended", |b| {
        b.iter(|| {
            wide.acquire(&AcquireSpec::new(mode)).expect("uncontended");
            wide.unlock(mode);
        })
    });
}

fn bench_txn_overhead(c: &mut Criterion) {
    let (table, site) = cia_table(64);
    let lock = SemLock::new(table.clone());
    let mode = table.select(site, &[Value(7)]);
    c.bench_function("semlock/txn_lv_unlock_all", |b| {
        b.iter(|| {
            let mut txn = Txn::new();
            txn.lv(&lock, mode);
            txn.unlock_all();
        })
    });
    c.bench_function("semlock/txn_acquire_unlock_all", |b| {
        b.iter(|| {
            let mut txn = Txn::new();
            txn.acquire(&lock, &AcquireSpec::new(mode))
                .expect("uncontended");
            txn.unlock_all();
        })
    });
}

/// The bounded-acquisition API on the uncontended happy path. These sit
/// beside `txn_lv_unlock_all` so a regression of `try_lv`/`lv_deadline`
/// relative to plain `lv` (the "happy-path tax") is visible at a glance;
/// the fallible paths add only a poison check (`try_lv`) or one deadline
/// computation (`lv_deadline`) before the same admission test.
fn bench_bounded_api(c: &mut Criterion) {
    let (table, site) = cia_table(64);
    let lock = SemLock::new(table.clone());
    let mode = table.select(site, &[Value(7)]);
    c.bench_function("semlock/txn_try_lv_unlock_all", |b| {
        b.iter(|| {
            let mut txn = Txn::new();
            txn.try_lv(&lock, mode).expect("uncontended");
            txn.unlock_all();
        })
    });
    c.bench_function("semlock/txn_lv_deadline_unlock_all", |b| {
        b.iter(|| {
            let mut txn = Txn::new();
            txn.lv_timeout(&lock, mode, std::time::Duration::from_secs(1))
                .expect("uncontended");
            txn.unlock_all();
        })
    });
}

fn bench_mode_select(c: &mut Criterion) {
    let (table, site) = cia_table(64);
    let mut k = 0u64;
    c.bench_function("semlock/mode_select", |b| {
        b.iter(|| {
            k = k.wrapping_add(0x9E37);
            std::hint::black_box(table.select(site, &[Value(k)]))
        })
    });
}

fn bench_spec_eval(c: &mut Criterion) {
    let spec = adts::spec_of("Map");
    let schema = spec.schema().clone();
    let a = Operation::new(schema.method("put"), vec![Value(1), Value(2)]);
    let b_op = Operation::new(schema.method("get"), vec![Value(3)]);
    c.bench_function("semlock/spec_commutes_concrete", |b| {
        b.iter(|| std::hint::black_box(spec.commutes(&a, &b_op)))
    });
}

fn bench_table_build(c: &mut Criterion) {
    c.bench_function("semlock/mode_table_build_n64", |b| {
        b.iter_batched(
            || (),
            |()| std::hint::black_box(cia_table(64)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_synthesis(c: &mut Criterion) {
    use synth::ir::fig1_section;
    use synth::{ClassRegistry, Synthesizer};
    let mut registry = ClassRegistry::new();
    for class in ["Map", "Set", "Queue"] {
        registry.register(class, adts::schema_of(class), adts::spec_of(class));
    }
    c.bench_function("synth/fig1_full_pipeline", |b| {
        b.iter(|| {
            let out = Synthesizer::new(registry.clone())
                .phi(Phi::fib(16))
                .synthesize(&[fig1_section()]);
            std::hint::black_box(out.sections.len())
        })
    });
}

fn bench_interp_txn(c: &mut Criterion) {
    use interp::{Env, Interp, Strategy};
    use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};
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
            .phi(Phi::fib(64))
            .synthesize(&[section]),
    );
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    let interp = Interp::new(env, Strategy::Semantic);
    let mut k = 0u64;
    c.bench_function("interp/counter_txn_semantic", |b| {
        b.iter(|| {
            k = (k + 1) % 512;
            interp.run("counter", &[("map", map), ("k", Value(k))])
        })
    });
}

fn bench_adts(c: &mut Criterion) {
    let map = adts::MapAdt::new();
    for i in 0..1000u64 {
        map.put(Value(i), Value(i));
    }
    let mut k = 0u64;
    c.bench_function("adts/map_get", |b| {
        b.iter(|| {
            k = (k + 7) % 1000;
            std::hint::black_box(map.get(Value(k)))
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_lock_uncontended, bench_txn_overhead, bench_bounded_api,
              bench_mode_select, bench_spec_eval, bench_table_build,
              bench_synthesis, bench_interp_txn, bench_adts
}
criterion_main!(benches);
