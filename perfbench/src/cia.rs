//! `cia`: ComputeIfAbsent (Fig. 21) on the native `Txn` API.
//!
//! `SyncKind::Semantic` over 8192 uniform keys: one `Map` whose 64 modes
//! sit in 64 one-mode partitions, so `Auto` admission is Packed. The
//! workload never enters `synth` output, `interp` or retry, which makes
//! it the no-change control for interpreter work and the workload most
//! sensitive to per-acquisition costs.

use crate::closed::{self, Native, Series};
use crate::ladder::{self, Inputs, Prepared};
use crate::report::{Outcome, Row};
use crate::{common, stats, Args};
use adts::MapAdt;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use semlock::phi::Phi;
use semlock::retry::RetryPolicy;
use semlock::value::Value;
use synth::Synthesizer;
use workloads::synthesis::{cia_section, registry};
use workloads::{ComputeIfAbsent, SyncKind};

/// Keys drawn uniformly from `0..KEYS`.
const KEYS: u64 = 8192;
/// Ops per thread per trial.
const OPS: usize = 100_000;

struct Cia(ComputeIfAbsent);

impl Native for Cia {
    type Op = u64;
    fn section(_: &u64) -> &'static str {
        "cia"
    }
    fn run(&self, k: &u64) {
        self.0.invoke(Value(*k));
    }
    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }
}

fn build() -> Cia {
    Cia(ComputeIfAbsent::new(SyncKind::Semantic, KEYS))
}

fn synthesize() -> synth::SynthOutput {
    Synthesizer::new(registry())
        .phi(Phi::fib(64))
        .synthesize(&[cia_section()])
}

fn inputs(seed: u64) -> [Vec<u64>; 2] {
    [0u64, 1].map(|t| {
        let mut rng = SmallRng::seed_from_u64(common::stream(seed, 0xC1A0 + t));
        (0..OPS).map(|_| rng.gen_range(0..KEYS)).collect()
    })
}

/// Run the `cia` workload.
pub fn run(args: &Args) -> Outcome {
    let ops = inputs(args.seed);
    let mut out = Outcome::new(args);
    out.row = Row::describe(&synthesize(), "native Txn (no interp)", args);
    let mut contention = (0u64, 0u64);
    let mut after = |w: &Cia| {
        let (a, c) = w.0.contention();
        contention.0 += a;
        contention.1 += c;
    };
    let (series, retries) = closed::run_trials(args, &build, &ops, &mut after);
    if args.trace {
        traced(args, &ops, &series, contention, retries, &mut out);
    } else {
        out.closed_loop_metrics(&series);
    }
    out.count(series.ops, 0, &series.invalid);
    out
}

fn traced(
    args: &Args,
    ops: &[Vec<u64>; 2],
    series: &Series,
    contention: (u64, u64),
    retries: u64,
    out: &mut Outcome,
) {
    let (env, it, synth_ms, compile_ms) = ladder::interp_for(synthesize);
    let map = env.new_instance("Map");
    let policy = RetryPolicy::new(args.seed);
    let reqs = [0, 1].map(|t| {
        ops[t][..common::RUNG_REQS.min(ops[t].len())]
            .iter()
            .map(|&k| (0, "cia", vec![("map", map), ("k", Value(k))]))
            .collect()
    });
    let inputs = Inputs::prepare(&env, reqs);
    // The ADT rung works on a map of its own, warmed with the inputs, as
    // the workload's map is warm after its first few thousand ops.
    let adt = MapAdt::new();
    let adt_op = |p: &Prepared| {
        let k = p.args[1].1;
        if !adt.contains_key(k) {
            adt.put(k, Value(k.0 + 1));
        }
    };
    for p in &inputs.lists[0] {
        adt_op(p);
    }
    let (rungs, tally) = ladder::run_rungs(&inputs, &["cia"], &env, &it, &policy, &adt_op);
    out.check_holds(&env, &[map]);
    let service = series.trace[0].durations("cia");
    let residual = stats::ladder_residual_pct(&[stats::LadderRow {
        weight: 1.0,
        service_ns: stats::percentile(&service, 0.5) as f64,
        rung_sum_ns: ladder::native_sum(&rungs, 0),
    }]);
    out.ladder_metrics(&rungs, &[1.0]);
    out.retry_metrics(&tally);
    out.rung_failures(&tally);
    out.synth_metrics(&env.program, synth_ms, compile_ms);
    out.service_metrics(&series.trace, None);
    out.counter_metrics(contention.0, contention.1, 0, retries);
    out.trace_metrics(
        common::overhead_pct(&series.ops_per_s[1], &series.traced_ops_per_s[1]),
        residual,
    );
    out.print_rungs(&rungs, &["cia"]);
    out.write_spans(args, &[&series.trace[0], &series.trace[1]]);
}
