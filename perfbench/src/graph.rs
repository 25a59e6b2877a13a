//! `graph`: Graph (Fig. 22) on the native `Txn` API.
//!
//! 1024 nodes, op mix 35/35/20/10 (find successors / find predecessors /
//! insert edge / remove edge) over two `Multimap` instances; an edge
//! update locks both in unique-id order. The `Multimap` table has 152
//! modes in one partition, so admission is Wide. Every trial starts from
//! an empty graph because an op's cost grows as edges accumulate.

use crate::closed::{self, Native, Series};
use crate::ladder::{self, Inputs, Prepared};
use crate::report::{Outcome, Row};
use crate::{common, stats, Args};
use adts::MultimapAdt;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use semlock::phi::Phi;
use semlock::retry::RetryPolicy;
use semlock::value::Value;
use std::hint::black_box;
use synth::Synthesizer;
use workloads::graph::{MIX_FIND_PRED, MIX_FIND_SUCC, MIX_INSERT};
use workloads::synthesis::{graph_sections, registry};
use workloads::{GraphBench, SyncKind};

/// Graph nodes.
const NODES: u64 = 1024;
/// Ops per thread per trial.
const OPS: usize = 40_000;
/// Section names, indexed by op kind.
const SECTIONS: [&str; 4] = [
    "find_successors",
    "find_predecessors",
    "insert_edge",
    "remove_edge",
];

/// One pre-generated op: kind (index into [`SECTIONS`]) and two nodes.
#[derive(Clone, Copy)]
struct Op {
    kind: u8,
    a: u16,
    b: u16,
}

struct Graph(GraphBench);

impl Native for Graph {
    type Op = Op;
    fn section(op: &Op) -> &'static str {
        SECTIONS[op.kind as usize]
    }
    fn run(&self, op: &Op) {
        let (a, b) = (Value(u64::from(op.a)), Value(u64::from(op.b)));
        match op.kind {
            0 => {
                black_box(self.0.find_successors(a));
            }
            1 => {
                black_box(self.0.find_predecessors(a));
            }
            2 => self.0.insert_edge(a, b),
            _ => self.0.remove_edge(a, b),
        }
    }
    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }
}

fn build() -> Graph {
    Graph(GraphBench::new(SyncKind::Semantic, NODES))
}

/// The program `GraphBench::new` synthesizes (same φ and mode cap).
fn synthesize() -> synth::SynthOutput {
    Synthesizer::new(registry())
        .phi(Phi::fib(64))
        .cap(2048)
        .synthesize(&graph_sections())
}

fn inputs(seed: u64) -> [Vec<Op>; 2] {
    [0u64, 1].map(|t| {
        let mut rng = SmallRng::seed_from_u64(common::stream(seed, 0x6A0 + t));
        (0..OPS)
            .map(|_| {
                let roll = rng.gen_range(0..100u64);
                let a = rng.gen_range(0..NODES) as u16;
                let b = rng.gen_range(0..NODES) as u16;
                let kind = if roll < MIX_FIND_SUCC {
                    0
                } else if roll < MIX_FIND_SUCC + MIX_FIND_PRED {
                    1
                } else if roll < MIX_FIND_SUCC + MIX_FIND_PRED + MIX_INSERT {
                    2
                } else {
                    3
                };
                Op { kind, a, b }
            })
            .collect()
    })
}

/// Run the `graph` workload.
pub fn run(args: &Args) -> Outcome {
    let ops = inputs(args.seed);
    let mut out = Outcome::new(args);
    out.row = Row::describe(&synthesize(), "native Txn (no interp)", args);
    let (series, retries) = closed::run_trials(args, &build, &ops, &mut |_: &Graph| {});
    if args.trace {
        traced(args, &ops, &series, retries, &mut out);
    } else {
        out.closed_loop_metrics(&series);
    }
    out.count(series.ops, 0, &series.invalid);
    out
}

fn traced(args: &Args, ops: &[Vec<Op>; 2], series: &Series, retries: u64, out: &mut Outcome) {
    let (env, it, synth_ms, compile_ms) = ladder::interp_for(synthesize);
    let (succ, pred) = (env.new_instance("Multimap"), env.new_instance("Multimap"));
    let policy = RetryPolicy::new(args.seed);
    let reqs = [0, 1].map(|t| {
        let mut per_kind = [0usize; 4];
        ops[t]
            .iter()
            .filter(|op| {
                per_kind[op.kind as usize] += 1;
                per_kind[op.kind as usize] <= common::RUNG_REQS
            })
            .map(|op| {
                let (a, b) = (Value(u64::from(op.a)), Value(u64::from(op.b)));
                let k = op.kind as usize;
                let args = if k < 2 {
                    vec![("succ", succ), ("pred", pred), ("n", a)]
                } else {
                    vec![("succ", succ), ("pred", pred), ("a", a), ("b", b)]
                };
                (k, SECTIONS[k], args)
            })
            .collect()
    });
    let inputs = Inputs::prepare(&env, reqs);
    // The ADT rung works on a graph of its own, grown by replaying the
    // inputs once, so its ops see edges as the workload's do.
    let (s_adt, p_adt) = (MultimapAdt::new(), MultimapAdt::new());
    let adt_op = |p: &Prepared| {
        let a = p.args[2].1;
        match p.section {
            0 => {
                black_box(s_adt.get(a));
            }
            1 => {
                black_box(p_adt.get(a));
            }
            2 => {
                let b = p.args[3].1;
                s_adt.put(a, b);
                p_adt.put(b, a);
            }
            _ => {
                let b = p.args[3].1;
                s_adt.remove(a, b);
                p_adt.remove(b, a);
            }
        }
    };
    for p in &inputs.lists[0] {
        adt_op(p);
    }
    let before = common::contention(&env, &[succ, pred]);
    let (rungs, tally) = ladder::run_rungs(&inputs, &SECTIONS, &env, &it, &policy, &adt_op);
    let after = common::contention(&env, &[succ, pred]);
    out.check_holds(&env, &[succ, pred]);
    let weights: Vec<f64> = (0..4)
        .map(|k| ops[0].iter().filter(|op| op.kind as usize == k).count() as f64)
        .collect();
    let rows: Vec<stats::LadderRow> = (0..4)
        .map(|k| stats::LadderRow {
            weight: weights[k],
            service_ns: stats::percentile(&series.trace[0].durations(SECTIONS[k]), 0.5) as f64,
            rung_sum_ns: ladder::native_sum(&rungs, k),
        })
        .collect();
    out.ladder_metrics(&rungs, &weights);
    out.retry_metrics(&tally);
    out.rung_failures(&tally);
    out.synth_metrics(&env.program, synth_ms, compile_ms);
    out.service_metrics(&series.trace, None);
    // GraphBench keeps its locks private, so the admission counters come
    // from the rung instances, which run the same modes at 1 and 2 threads.
    out.counter_metrics(
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
        retries,
    );
    out.trace_metrics(
        common::overhead_pct(&series.ops_per_s[1], &series.traced_ops_per_s[1]),
        stats::ladder_residual_pct(&rows),
    );
    out.print_rungs(&rungs, &SECTIONS);
    out.write_spans(args, &[&series.trace[0], &series.trace[1]]);
}
