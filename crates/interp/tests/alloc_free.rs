//! Heap-allocation counts of warm, uncontended compiled runs.
//!
//! A counting `#[global_allocator]` tallies every allocation made by the
//! current thread. After warm-up (the per-thread scratch pool, the φ
//! inline cache and the ADTs' keys are in place), the tests assert that
//!
//! * `Interp::try_run_compiled` allocates nothing, and
//! * `Interp::run_with_retry` on the compiled engine, with bounded lock
//!   waits (`with_lock_timeout`), no faults and no contention, allocates
//!   nothing either: the frame it returns is the dense `CompiledFrame`,
//!   the attempt's txn id is stored inline, and a bounded acquisition
//!   that is admitted at once builds no watchdog snapshot.

use interp::{Engine, Env, Interp, Strategy};
use semlock::retry::RetryPolicy;
use semlock::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;
use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
use synth::{ClassRegistry, Synthesizer};

/// The system allocator, counting allocations per thread (tests run on
/// parallel threads, so a global count would mix them).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A two-instance read-modify-write, shaped like the server's `transfer`.
fn transfer_section() -> AtomicSection {
    AtomicSection::new(
        "transfer",
        [
            ptr("src", "Map"),
            ptr("dst", "Map"),
            scalar("ka"),
            scalar("kb"),
            scalar("va"),
            scalar("vb"),
        ],
        Body::new()
            .call_into("va", "src", "get", vec![var("ka")])
            .call_into("vb", "dst", "get", vec![var("kb")])
            .if_else(
                is_null(var("va")),
                Body::new().call("src", "put", vec![var("ka"), konst(1)]),
                Body::new().call("src", "put", vec![var("ka"), add(var("va"), konst(1))]),
            )
            .if_else(
                is_null(var("vb")),
                Body::new().call("dst", "put", vec![var("kb"), konst(1)]),
                Body::new().call("dst", "put", vec![var("kb"), add(var("vb"), konst(1))]),
            )
            .build(),
    )
}

/// A compiled interpreter over two fresh Map instances.
fn setup(timeout: Option<Duration>) -> (Interp, Value, Value) {
    let mut registry = ClassRegistry::new();
    registry.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
    let program = Arc::new(
        Synthesizer::new(registry)
            .phi(semlock::phi::Phi::fib(64))
            .synthesize(&[transfer_section()]),
    );
    let env = Arc::new(Env::new(program));
    let (src, dst) = (env.new_instance("Map"), env.new_instance("Map"));
    let mut interp = Interp::new(env, Strategy::Semantic).with_engine(Engine::Compiled);
    if let Some(t) = timeout {
        interp = interp.with_lock_timeout(t);
    }
    (interp, src, dst)
}

const KEYS: u64 = 8;
const WARM: u64 = 64;
const RUNS: u64 = 256;

fn args(src: Value, dst: Value, i: u64) -> [(&'static str, Value); 4] {
    [
        ("src", src),
        ("dst", dst),
        ("ka", Value(i % KEYS)),
        ("kb", Value((i + 3) % KEYS)),
    ]
}

#[test]
fn warm_try_run_compiled_allocates_nothing() {
    let (interp, src, dst) = setup(None);
    for i in 0..WARM {
        interp
            .try_run_compiled("transfer", &args(src, dst, i))
            .unwrap();
    }
    let n = allocations_in(|| {
        for i in 0..RUNS {
            let frame = interp
                .try_run_compiled("transfer", &args(src, dst, i))
                .unwrap();
            assert!(!frame["va"].is_null());
        }
    });
    assert_eq!(n, 0, "{n} allocations in {RUNS} warm compiled runs");
}

#[test]
fn warm_uncontended_run_with_retry_allocates_nothing() {
    let (interp, src, dst) = setup(Some(Duration::from_millis(100)));
    let policy = RetryPolicy::new(7);
    for i in 0..WARM {
        interp
            .run_with_retry("transfer", &args(src, dst, i), &policy)
            .unwrap();
    }
    let n = allocations_in(|| {
        for i in 0..RUNS {
            let run = interp
                .run_with_retry("transfer", &args(src, dst, i), &policy)
                .unwrap();
            assert_eq!(run.attempts, 1);
            assert_eq!(run.txns.len(), 1);
            assert!(run.backoffs.is_empty());
            assert!(!run
                .frame
                .get("vb")
                .copied()
                .unwrap_or(Value::NULL)
                .is_null());
        }
    });
    assert_eq!(n, 0, "{n} allocations in {RUNS} warm run_with_retry calls");
}

/// The counter itself sees allocations, so the zero counts above mean no
/// allocation happened, not that counting is disabled.
#[test]
fn counter_sees_allocations() {
    let n = allocations_in(|| {
        std::hint::black_box(vec![1u8; 16]);
    });
    assert_eq!(n, 1);
}
