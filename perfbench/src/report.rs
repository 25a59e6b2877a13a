//! What a run prints: the description of what it ran, the rung table,
//! and the final result line.

use crate::ladder::{self, RungTable, Tally};
use crate::trace::Trace;
use crate::{common, stats, Args};
use interp::Env;
use semlock::mech::{Mech, WaitStrategy};
use semlock::value::Value;
use synth::SynthOutput;

/// End-to-end metrics and units, as listed in `BENCHMARK.json`.
pub const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("throughput_1t_ops_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("p50_us_hi", "us"),
    ("p99_us_hi", "us"),
    ("completed_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, as listed in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("workloads.queue_us_p50", "us"),
    ("workloads.queue_us_p99", "us"),
    ("workloads.service_us_p50.1t", "us"),
    ("workloads.service_us_p50.2t", "us"),
    ("workloads.service_us_p99.1t", "us"),
    ("workloads.service_us_p99.2t", "us"),
    ("workloads.gen_late_us_p99", "us"),
    ("workloads.all_p99_us", "us"),
    ("workloads.all_p99_us_hi", "us"),
    ("workloads.failed_ratio", "ratio"),
    ("interp.run_with_retry_ns.1t", "ns"),
    ("interp.run_with_retry_ns.2t", "ns"),
    ("interp.try_run_compiled_ns.1t", "ns"),
    ("interp.try_run_compiled_ns.2t", "ns"),
    ("interp.resolve_ns.1t", "ns"),
    ("interp.resolve_ns.2t", "ns"),
    ("interp.retry_wrap_ns.1t", "ns"),
    ("interp.retry_wrap_ns.2t", "ns"),
    ("interp.self_ns.1t", "ns"),
    ("interp.self_ns.2t", "ns"),
    ("interp.attempts_per_request", "count"),
    ("interp.backoff_ms", "ms"),
    ("interp.escalations", "count"),
    ("interp.compile_ms", "ms"),
    ("semlock.select_ns.1t", "ns"),
    ("semlock.select_ns.2t", "ns"),
    ("semlock.acquire_unlock_ns.1t", "ns"),
    ("semlock.acquire_unlock_ns.2t", "ns"),
    ("semlock.txn_ns.1t", "ns"),
    ("semlock.txn_ns.2t", "ns"),
    ("semlock.mech_ns.1t", "ns"),
    ("semlock.mech_ns.2t", "ns"),
    ("semlock.cas_ns.1t", "ns"),
    ("semlock.cas_ns.2t", "ns"),
    ("semlock.acquisitions", "count"),
    ("semlock.contended", "count"),
    ("semlock.contended_ratio", "ratio"),
    ("semlock.timeouts", "count"),
    ("semlock.retries", "count"),
    ("adts.ops_ns.1t", "ns"),
    ("adts.ops_ns.2t", "ns"),
    ("synth.synthesize_ms", "ms"),
    ("synth.modes", "count"),
    ("synth.partitions", "count"),
    ("synth.max_partition_modes", "count"),
    ("synth.tape_ops_raw", "count"),
    ("synth.tape_ops_opt", "count"),
    ("synth.tape_opt_fused", "count"),
    ("synth.tape_opt_batches", "count"),
    ("synth.tape_opt_hoisted", "count"),
    ("trace.overhead_pct", "%"),
    ("ladder.residual_pct", "%"),
];

/// Tape sizes before and after `synth::tape_opt`, summed over sections:
/// `(raw ops, optimized ops, fused, batches, hoisted)`.
fn tape_stats(program: &SynthOutput) -> (usize, usize, u32, u32, u32) {
    synth::lower::lower_program(program)
        .iter()
        .fold((0, 0, 0, 0, 0), |acc, raw| {
            let (opt, st) = synth::tape_opt::optimize(raw);
            (
                acc.0 + raw.ops.len(),
                acc.1 + opt.ops.len(),
                acc.2 + st.fused,
                acc.3 + st.batches,
                acc.4 + st.hoisted,
            )
        })
}

/// What a run actually ran, printed with every result so rows with
/// different settings cannot be mixed up.
#[derive(Default)]
pub struct Row(String);

impl Row {
    /// Describe a run of `program` on `engine`.
    pub fn describe(program: &SynthOutput, engine: &str, args: &Args) -> Row {
        let tables: Vec<String> = program
            .tables
            .classes()
            .map(|class| {
                let t = program.tables.table(class);
                let sizes = t.partition_sizes();
                let mut layouts: Vec<String> = sizes
                    .iter()
                    .map(|&sz| {
                        let mech = Mech::new(sz as usize, WaitStrategy::default());
                        format!("\"{:?}\"", mech.layout())
                    })
                    .collect();
                layouts.dedup();
                // Sizes run-length encoded: "1x64" is 64 partitions of 1 mode.
                let mut runs: Vec<(u32, usize)> = Vec::new();
                for &sz in sizes {
                    match runs.last_mut() {
                        Some((last, n)) if *last == sz => *n += 1,
                        _ => runs.push((sz, 1)),
                    }
                }
                let runs: Vec<String> = runs.iter().map(|(sz, n)| format!("\"{sz}x{n}\"")).collect();
                format!(
                    "{{\"class\":\"{class}\",\"modes\":{},\"partition_sizes\":[{}],\"auto_layouts\":[{}]}}",
                    t.mode_count(),
                    runs.join(","),
                    layouts.join(",")
                )
            })
            .collect();
        let (raw, opt, fused, batches, hoisted) = tape_stats(program);
        Row(format!(
            "{{\"row\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"threads\":[1,2],\"cpus\":{},\"tracing\":{},\
             \"semlock_telemetry\":{},\"engine\":\"{engine}\",\"mode_tables\":[{}],\
             \"tape_opt\":{{\"ops_raw\":{raw},\"ops_opt\":{opt},\"fused\":{fused},\"batches\":{batches},\"hoisted\":{hoisted}}}}}}}",
            args.workload,
            args.seed,
            args.seconds,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            args.trace,
            semlock::telemetry::enabled(),
            tables.join(",")
        ))
    }
}

/// End-to-end figures of one run.
pub struct E2e {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Closed-loop throughput at 2 threads, ops/s.
    pub throughput_2t: f64,
    /// Closed-loop throughput at 1 thread, ops/s.
    pub throughput_1t: f64,
    /// (p50, p99) latency at low load, µs.
    pub lo_us: (f64, f64),
    /// (p50, p99) latency at high load, µs.
    pub hi_us: (f64, f64),
}

/// What an open-loop workload measured beyond service times, ns, each
/// sorted ascending.
pub struct OpenFigures<'a> {
    /// Due → start at the high rate.
    pub queue: &'a [u64],
    /// Due → start of requests whose worker was idle (pacing error).
    pub gen_late: &'a [u64],
    /// Due → completion of every request, `[low rate, high rate]`.
    pub lat: [&'a [u64]; 2],
}

/// Everything one run reports.
pub struct Outcome {
    trace: bool,
    /// What the run ran.
    pub row: Row,
    metrics: Vec<(&'static str, f64)>,
    errors: Vec<String>,
    notes: Vec<String>,
    table: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    /// An empty outcome for a run with `args`.
    pub fn new(args: &Args) -> Outcome {
        Outcome {
            trace: args.trace,
            row: Row::default(),
            metrics: Vec::new(),
            errors: Vec::new(),
            notes: Vec::new(),
            table: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record a failed output check.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Record a remark printed with the result.
    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    /// Add to the attempted and failed operation counts; `invalid` are
    /// failed validations.
    pub fn count(&mut self, attempted: u64, failed: u64, invalid: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(invalid.iter().cloned());
    }

    /// Every instance must end with no held mode and unpoisoned.
    pub fn check_holds(&mut self, env: &Env, handles: &[Value]) {
        for &h in handles {
            let adt = env.resolve(h);
            let holds = adt.sem().total_holds();
            if holds != 0 {
                self.fail(format!("instance {} still holds {holds} modes", h.0));
            }
            if adt.sem().is_poisoned() {
                self.fail(format!("instance {} is poisoned", h.0));
            }
        }
    }

    /// The end-to-end metrics of an untraced run (the ratio and memory
    /// figures are added when the run finishes).
    pub fn e2e_metrics(&mut self, e: E2e) {
        self.put("setup_s", e.setup_s);
        self.put("throughput_ops_s", e.throughput_2t);
        self.put("throughput_1t_ops_s", e.throughput_1t);
        self.put("p50_us", e.lo_us.0);
        self.put("p99_us", e.lo_us.1);
        self.put("p50_us_hi", e.hi_us.0);
        self.put("p99_us_hi", e.hi_us.1);
    }

    /// End-to-end metrics of a closed-loop native workload: latency at
    /// low load is 1 thread, at high load 2 threads.
    pub fn closed_loop_metrics(&mut self, s: &crate::closed::Series) {
        self.e2e_metrics(E2e {
            setup_s: stats::median(&s.setup_s),
            throughput_2t: s.throughput(2),
            throughput_1t: s.throughput(1),
            lo_us: s.latency_us(1),
            hi_us: s.latency_us(2),
        });
    }

    /// Service time (per request, from the traced phases at 1 and 2
    /// workers) and, for open-loop workloads, queueing, pacing and the p99
    /// of all requests. A closed loop has no queue or pacing (0), and its
    /// "all requests" p99 is the service p99 at 1 and 2 threads.
    pub fn service_metrics(&mut self, traces: &[Trace; 2], open: Option<OpenFigures>) {
        let us = |v: &[u64], p: f64| stats::percentile(v, p) as f64 / 1e3;
        let svc = |t: &Trace| {
            let mut d: Vec<u64> = t
                .spans
                .iter()
                .filter(|s| s.parent.is_none() && s.name != "queue")
                .map(|s| s.end - s.start)
                .collect();
            d.sort_unstable();
            d
        };
        let (s1, s2) = (svc(&traces[0]), svc(&traces[1]));
        let open = open.unwrap_or(OpenFigures {
            queue: &[],
            gen_late: &[],
            lat: [&s1, &s2],
        });
        self.put("workloads.queue_us_p50", us(open.queue, 0.5));
        self.put("workloads.queue_us_p99", us(open.queue, 0.99));
        self.put("workloads.service_us_p50.1t", us(&s1, 0.5));
        self.put("workloads.service_us_p50.2t", us(&s2, 0.5));
        self.put("workloads.service_us_p99.1t", us(&s1, 0.99));
        self.put("workloads.service_us_p99.2t", us(&s2, 0.99));
        self.put("workloads.gen_late_us_p99", us(open.gen_late, 0.99));
        self.put("workloads.all_p99_us", us(open.lat[0], 0.99));
        self.put("workloads.all_p99_us_hi", us(open.lat[1], 0.99));
    }

    /// Rung figures, weighted by the request mix, plus the two derived
    /// increments: the retry wrapper and the interpreter's own time.
    pub fn ladder_metrics(&mut self, rungs: &RungTable, weights: &[f64]) {
        let mix = |name: &str, t: usize| {
            let pairs: Vec<(f64, f64)> = weights
                .iter()
                .enumerate()
                .map(|(s, &w)| (w, ladder::rung(rungs, s, name)[t]))
                .collect();
            stats::weighted_mean(&pairs)
        };
        for (name, _) in PER_LAYER {
            let Some((base, t)) = name
                .strip_suffix(".1t")
                .map(|b| (b, 0))
                .or_else(|| name.strip_suffix(".2t").map(|b| (b, 1)))
            else {
                continue;
            };
            let v = match base {
                "interp.retry_wrap_ns" => {
                    mix("interp.run_with_retry_ns", t) - mix("interp.try_run_compiled_ns", t)
                }
                "interp.self_ns" => {
                    mix("interp.try_run_compiled_ns", t)
                        - [
                            "semlock.select_ns",
                            "semlock.txn_ns",
                            "adts.ops_ns",
                            "interp.resolve_ns",
                        ]
                        .iter()
                        .map(|r| mix(r, t))
                        .sum::<f64>()
                }
                b if ladder::RUNGS.contains(&b) => mix(b, t),
                _ => continue,
            };
            self.put(name, v);
        }
    }

    /// Note rung calls that gave up on a bounded acquisition.
    pub fn rung_failures(&mut self, t: &Tally) {
        if t.failures > 0 {
            self.note(format!(
                "{} rung calls gave up on a bounded acquisition",
                t.failures
            ));
        }
    }

    /// Retry-runtime counts.
    pub fn retry_metrics(&mut self, t: &Tally) {
        self.put(
            "interp.attempts_per_request",
            t.attempts as f64 / t.requests.max(1) as f64,
        );
        self.put("interp.backoff_ms", t.backoff_ns as f64 / 1e6);
        self.put("interp.escalations", t.escalations as f64);
    }

    /// Compiler figures for the workload's program.
    pub fn synth_metrics(&mut self, program: &SynthOutput, synth_ms: f64, compile_ms: f64) {
        let table = program
            .tables
            .classes()
            .map(|c| program.tables.table(c))
            .max_by_key(|t| t.mode_count())
            .expect("the program locks at least one class");
        let (raw, opt, fused, batches, hoisted) = tape_stats(program);
        self.put("interp.compile_ms", compile_ms);
        self.put("synth.synthesize_ms", synth_ms);
        self.put("synth.modes", table.mode_count() as f64);
        self.put("synth.partitions", table.partition_count() as f64);
        self.put(
            "synth.max_partition_modes",
            table.partition_sizes().iter().copied().max().unwrap_or(0) as f64,
        );
        self.put("synth.tape_ops_raw", raw as f64);
        self.put("synth.tape_ops_opt", opt as f64);
        self.put("synth.tape_opt_fused", f64::from(fused));
        self.put("synth.tape_opt_batches", f64::from(batches));
        self.put("synth.tape_opt_hoisted", f64::from(hoisted));
    }

    /// Admission and retry counters.
    pub fn counter_metrics(
        &mut self,
        acquisitions: u64,
        contended: u64,
        timeouts: u64,
        retries: u64,
    ) {
        self.put("semlock.acquisitions", acquisitions as f64);
        self.put("semlock.contended", contended as f64);
        self.put(
            "semlock.contended_ratio",
            contended as f64 / acquisitions.max(1) as f64,
        );
        self.put("semlock.timeouts", timeouts as f64);
        self.put("semlock.retries", retries as f64);
    }

    /// Tracing overhead and ladder residual.
    pub fn trace_metrics(&mut self, overhead_pct: f64, residual_pct: f64) {
        self.put("trace.overhead_pct", overhead_pct);
        self.put("ladder.residual_pct", residual_pct);
    }

    /// Print the per-section rung table: each rung at 1 and 2 threads,
    /// and what it adds to the rung it is built on.
    pub fn print_rungs(&mut self, rungs: &RungTable, sections: &[&str]) {
        let below = |name: &str| -> &[&str] {
            match name {
                "semlock.mech_ns" => &["semlock.cas_ns"],
                "semlock.acquire_unlock_ns" => &["semlock.mech_ns"],
                "semlock.txn_ns" => &["semlock.acquire_unlock_ns"],
                "interp.try_run_compiled_ns" => &[
                    "semlock.select_ns",
                    "semlock.txn_ns",
                    "interp.resolve_ns",
                    "adts.ops_ns",
                ],
                "interp.run_with_retry_ns" => &["interp.try_run_compiled_ns"],
                _ => &[],
            }
        };
        for (s, sec) in sections.iter().enumerate() {
            for name in ladder::RUNGS {
                let v = ladder::rung(rungs, s, name);
                let base: Vec<&str> = below(name).to_vec();
                let added = |t: usize| {
                    v[t] - base
                        .iter()
                        .map(|b| ladder::rung(rungs, s, b)[t])
                        .sum::<f64>()
                };
                let over = if base.is_empty() {
                    String::new()
                } else {
                    format!(
                        "  (+{:.1} / +{:.1} over {})",
                        added(0),
                        added(1),
                        base.join("+")
                    )
                };
                self.table.push(format!(
                    "rung {sec:<18} {name:<28} 1t {:>9.1} ns  2t {:>9.1} ns  2t/1t {:>5.2}{over}",
                    v[0],
                    v[1],
                    v[1] / v[0].max(1e-9)
                ));
            }
        }
    }

    /// Write the spans of a traced run under the benchmark's `out/`.
    pub fn write_spans(&mut self, args: &Args, traces: &[&Trace]) {
        let mut all = Trace::default();
        for t in traces {
            all.spans.extend_from_slice(&t.spans);
            all.dropped += t.dropped;
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}-spans.csv", args.workload, args.seed));
        let mut names: Vec<&str> = all.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let (d, own) = (all.durations(name), all.self_times(name));
            self.table.push(format!(
                "span {name:<24} n {:>9}  p50 {:>9} ns  self p50 {:>9} ns",
                d.len(),
                stats::percentile(&d, 0.5),
                stats::percentile(&own, 0.5)
            ));
        }
        match all.write_csv(&path, 200_000) {
            Ok(()) => self.note(format!(
                "{} spans ({} dropped), first 200000 written to {}",
                all.spans.len(),
                all.dropped,
                path.display()
            )),
            Err(e) => self.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }

    /// Print the run description, rung table, notes and the result line;
    /// returns the process exit code.
    pub fn finish(mut self) -> i32 {
        let ok_ratio = if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        };
        if self.trace {
            self.put("workloads.failed_ratio", 1.0 - ok_ratio);
        } else {
            self.put("completed_ratio", ok_ratio);
            self.put("peak_rss_mb", common::peak_rss_mb());
        }
        let expected: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &E2E };
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        got.sort_unstable();
        let mut want: Vec<&str> = expected.iter().map(|m| m.0).collect();
        want.sort_unstable();
        if got != want {
            eprintln!("perfbench: metric set mismatch\n  got  {got:?}\n  want {want:?}");
            return 3;
        }
        if let Some((n, v)) = self.metrics.iter().find(|m| !m.1.is_finite()) {
            eprintln!("perfbench: metric {n} is not a number ({v})");
            return 3;
        }
        println!("{}", self.row.0);
        for line in &self.table {
            println!("{line}");
        }
        for n in &self.notes {
            eprintln!("note: {n}");
        }
        for e in &self.errors {
            eprintln!("CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = expected
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1);
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.errors.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("key present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("list closes")].to_string()
        };
        for (key, list) in [("end_to_end", &E2E[..]), ("per_layer", &PER_LAYER[..])] {
            let s = section(key);
            let names = s.matches("\"name\"").count();
            assert_eq!(names, list.len(), "{key}: count differs");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&entry), "{key}: missing {entry}");
            }
        }
    }
}
