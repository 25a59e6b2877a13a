//! Heavier cross-strategy runs of the five evaluation workloads, checking
//! each workload's correctness invariant under every synchronization
//! strategy (the benchmarks must agree on semantics before their
//! performance can be compared).

use semlock::phi::Phi;
use workloads::driver::run_fixed_ops;
use workloads::{
    CacheBench, ComputeIfAbsent, GossipBench, GraphBench, IntruderBench, IntruderConfig, SyncKind,
};

const THREADS: usize = 4;
const OPS: u64 = 1_500;

#[test]
fn compute_if_absent_all_strategies() {
    for kind in SyncKind::WITH_V8 {
        let bench = ComputeIfAbsent::with_phi(kind, 256, Phi::fib(32));
        run_fixed_ops(THREADS, OPS, 42, &|t, rng| bench.op(t, rng));
        bench.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn graph_all_strategies() {
    for kind in SyncKind::STANDARD {
        let bench = GraphBench::with_phi(kind, 64, Phi::fib(8), 512);
        run_fixed_ops(THREADS, OPS, 43, &|t, rng| bench.op(t, rng));
        bench.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn cache_all_strategies() {
    for kind in SyncKind::STANDARD {
        // Small capacity: the overflow/drain path runs many times.
        let bench = CacheBench::with_phi(kind, 512, 64, Phi::fib(16));
        run_fixed_ops(THREADS, OPS, 44, &|t, rng| bench.op(t, rng));
        bench.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn intruder_all_strategies() {
    let config = IntruderConfig {
        attack_percent: 10,
        max_length: 128,
        num_flows: 600,
        seed: 7,
        max_fragments: 8,
    };
    for kind in SyncKind::STANDARD {
        let bench = IntruderBench::with_phi(kind, config, Phi::fib(32));
        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(|| bench.worker())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, bench.packets_total(), "{kind}: packets lost");
        bench.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn gossip_all_strategies() {
    use semlock::value::Value;
    for kind in SyncKind::STANDARD {
        let bench = GossipBench::with_phi(kind, 4, 4, Phi::fib(16));
        let routed = std::sync::Mutex::new(vec![0u64; 4]);
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let bench = &bench;
                let routed = &routed;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(t);
                    let mut local = vec![0u64; 4];
                    for _ in 0..OPS {
                        let g = rng.gen_range(0..4u64);
                        bench.route(Value(g));
                        local[g as usize] += 1;
                    }
                    let mut acc = routed.lock().unwrap();
                    for (a, b) in acc.iter_mut().zip(local) {
                        *a += b;
                    }
                });
            }
        });
        bench
            .validate_routes(&routed.lock().unwrap())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn semantic_contention_is_low_for_disjoint_keys() {
    // With many more key classes than threads, semantic locking should
    // almost never block — the mechanism's contended counter stays small
    // relative to acquisitions.
    let bench = ComputeIfAbsent::with_phi(SyncKind::Semantic, 4096, Phi::fib(64));
    run_fixed_ops(THREADS, 4_000, 45, &|t, rng| bench.op(t, rng));
    let (acquisitions, contended) = bench.contention();
    assert!(acquisitions >= 4_000 * THREADS as u64);
    assert!(
        (contended as f64) < 0.05 * acquisitions as f64,
        "contended {contended} of {acquisitions} — semantic admission too coarse"
    );
    bench.validate().unwrap();
}

/// Layout census: synthesize the cia, intruder, graph and server sections
/// with the φ and mode cap their workloads use, and check the counter
/// layout `Auto` gives every partition. cia and intruder run entirely on
/// the packed word, graph and server entirely on the wide counters, so the
/// shipped workloads exercise both sides of the one layout selection.
#[test]
fn auto_layout_census_puts_workloads_on_both_layouts() {
    use semlock::mech::{Mech, MechLayout, WaitStrategy};
    use synth::{SynthOutput, Synthesizer};
    use workloads::server::{balance_section, scan_mutate_section, transfer_section};
    use workloads::synthesis::{cia_section, graph_sections, intruder_sections, registry};

    let layouts = |out: &SynthOutput| -> Vec<MechLayout> {
        out.tables
            .classes()
            .flat_map(|class| out.tables.table(class).partition_sizes().to_vec())
            .map(|sz| Mech::new(sz as usize, WaitStrategy::Block).layout())
            .collect()
    };
    let synth = || Synthesizer::new(registry()).phi(Phi::fib(64));
    let census = [
        (
            "cia",
            synth().synthesize(&[cia_section()]),
            MechLayout::Packed,
        ),
        (
            "intruder",
            synth().synthesize(&intruder_sections()),
            MechLayout::Packed,
        ),
        (
            "graph",
            synth().cap(2048).synthesize(&graph_sections()),
            MechLayout::Wide,
        ),
        (
            "server",
            synth().synthesize(&[transfer_section(), balance_section(), scan_mutate_section()]),
            MechLayout::Wide,
        ),
    ];
    for (name, out, want) in census {
        let got = layouts(&out);
        assert!(!got.is_empty(), "{name}: no partitions");
        assert!(
            got.iter().all(|&l| l == want),
            "{name}: expected every partition {want:?}, got {got:?}"
        );
    }
}
