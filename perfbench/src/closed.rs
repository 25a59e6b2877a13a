//! Closed-loop trials with a fixed op count per thread, for the native
//! workloads (`cia`, `graph`).
//!
//! Every trial builds a fresh workload instance (timed: that is the
//! workload's set-up), lets `threads` threads each run their own
//! pre-generated op list once, and validates the result. Throughput
//! trials time the whole trial; latency trials also time every op.

use crate::trace::{self, Clock, Span, SpanBuf, Trace};
use crate::{stats, Args};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How a trial times its ops.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Only the whole trial.
    Throughput,
    /// Every op too (latency percentiles).
    PerOp,
    /// Every op, recorded as a span named after its section.
    Traced,
}

/// One finished trial.
pub struct TrialOut {
    /// How the trial was timed.
    pub timing: Timing,
    /// Threads that ran.
    pub threads: usize,
    /// Set-up (construction) time, s.
    pub setup_s: f64,
    /// Ops per second over the trial.
    pub ops_per_s: f64,
    /// Per-op latencies, ns, sorted (per-op trials only).
    pub lat_ns: Vec<u64>,
    /// Spans (traced trials only).
    pub spans: Vec<SpanBuf>,
    /// Validation failure, if any.
    pub invalid: Option<String>,
}

/// A native workload the trials can drive.
pub trait Native: Sync {
    /// One pre-generated op.
    type Op: Sync;
    /// Span name of an op (its section's name).
    fn section(op: &Self::Op) -> &'static str;
    /// Run one op.
    fn run(&self, op: &Self::Op);
    /// Check the workload's invariants after a trial.
    fn validate(&self) -> Result<(), String>;
}

/// Run one trial on a freshly built instance.
pub fn trial<W: Native>(
    build: &dyn Fn() -> W,
    ops: &[Vec<W::Op>; 2],
    threads: usize,
    timing: Timing,
    clock: Clock,
    after: &mut dyn FnMut(&W),
) -> TrialOut {
    let t0 = Instant::now();
    let w = build();
    let setup_s = t0.elapsed().as_secs_f64();
    let gate = Barrier::new(threads);
    let results: Vec<(u64, u64, Vec<u64>, SpanBuf)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                let (gate, list, w) = (&gate, &ops[t], &w);
                s.spawn(move || {
                    let timed = timing != Timing::Throughput;
                    let per_op = timing == Timing::PerOp;
                    let mut lat = Vec::with_capacity(if per_op { list.len() } else { 0 });
                    let traced = timing == Timing::Traced;
                    let mut spans = SpanBuf::with_capacity(if traced {
                        list.len() / trace::SAMPLE as usize + 1
                    } else {
                        0
                    });
                    gate.wait();
                    let start = clock.now_ns();
                    if timed {
                        let mut prev = start;
                        for (i, op) in list.iter().enumerate() {
                            w.run(op);
                            let now = clock.now_ns();
                            if per_op {
                                lat.push(now - prev);
                            }
                            if traced && trace::sampled(i as u64) {
                                spans.push(Span {
                                    req: ((t as u64) << 32) | i as u64,
                                    name: W::section(op),
                                    parent: None,
                                    start: prev,
                                    end: now,
                                });
                            }
                            prev = now;
                        }
                    } else {
                        for op in list {
                            w.run(op);
                        }
                    }
                    (start, clock.now_ns(), lat, spans)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("trial thread panicked"))
            .collect()
    });
    let start = results.iter().map(|r| r.0).min().unwrap_or(0);
    let end = results.iter().map(|r| r.1).max().unwrap_or(0);
    let n: usize = (0..threads).map(|t| ops[t].len()).sum();
    let mut lat_ns = Vec::new();
    let mut spans = Vec::new();
    for (_, _, l, sp) in results {
        lat_ns.extend(l);
        spans.push(sp);
    }
    lat_ns.sort_unstable();
    after(&w);
    TrialOut {
        timing,
        threads,
        setup_s,
        ops_per_s: n as f64 / ((end - start).max(1) as f64 / 1e9),
        lat_ns,
        spans,
        invalid: w.validate().err(),
    }
}

/// Results of a series of trials, split by thread count.
#[derive(Default)]
pub struct Series {
    /// Set-up times of every trial, s.
    pub setup_s: Vec<f64>,
    /// Throughput per untraced throughput trial, `[1 thread, 2 threads]`.
    pub ops_per_s: [Vec<f64>; 2],
    /// Throughput per traced trial, `[1 thread, 2 threads]`.
    pub traced_ops_per_s: [Vec<f64>; 2],
    /// Per-trial `(p50, p99)` latency, ns, `[1 thread, 2 threads]`.
    pub lat: [Vec<(u64, u64)>; 2],
    /// Spans of traced trials, `[1 thread, 2 threads]`.
    pub trace: [Trace; 2],
    /// Ops run.
    pub ops: u64,
    /// Validation failures.
    pub invalid: Vec<String>,
}

impl Series {
    /// Fold one trial in.
    pub fn add(&mut self, t: TrialOut, ops: u64) {
        let i = t.threads - 1;
        self.setup_s.push(t.setup_s);
        self.ops += ops;
        match t.timing {
            Timing::Throughput => self.ops_per_s[i].push(t.ops_per_s),
            Timing::PerOp => self.lat[i].push((
                stats::percentile(&t.lat_ns, 0.50),
                stats::percentile(&t.lat_ns, 0.99),
            )),
            Timing::Traced => self.traced_ops_per_s[i].push(t.ops_per_s),
        }
        for sp in t.spans {
            self.trace[i].absorb(sp);
        }
        self.invalid.extend(t.invalid);
    }

    /// Throughput at `threads`: interquartile mean over trials.
    pub fn throughput(&self, threads: usize) -> f64 {
        stats::iq_mean(&self.ops_per_s[threads - 1])
    }

    /// Interquartile mean over trials of the per-trial p50 and p99 at
    /// `threads`, µs.
    pub fn latency_us(&self, threads: usize) -> (f64, f64) {
        let l = &self.lat[threads - 1];
        let p50: Vec<f64> = l.iter().map(|&(a, _)| a as f64 / 1e3).collect();
        let p99: Vec<f64> = l.iter().map(|&(_, b)| b as f64 / 1e3).collect();
        (stats::iq_mean(&p50), stats::iq_mean(&p99))
    }
}

/// The timed trials of a native workload. An untraced run alternates
/// throughput trials (60% of the budget) and per-op latency trials
/// (40%); a traced run alternates untraced and traced throughput trials
/// (80%, the rest is left to the rungs). Returns the series and the
/// retries the retry runtime counted meanwhile.
pub fn run_trials<W: Native>(
    args: &Args,
    build: &dyn Fn() -> W,
    ops: &[Vec<W::Op>; 2],
    after: &mut dyn FnMut(&W),
) -> (Series, u64) {
    let budget = Duration::from_secs_f64(args.seconds);
    let plan: &[(&[Timing], f64)] = if args.trace {
        &[(&[Timing::Throughput, Timing::Traced], 0.8)]
    } else {
        &[(&[Timing::Throughput], 0.6), (&[Timing::PerOp], 0.4)]
    };
    let mut series = Series::default();
    let before = semlock::telemetry::retry_counters().retries;
    for &(timings, share) in plan {
        alternate(
            &mut series,
            build,
            ops,
            timings,
            budget.mul_f64(share),
            after,
        );
    }
    (
        series,
        semlock::telemetry::retry_counters().retries - before,
    )
}

/// Alternate 1- and 2-thread trials of each timing until `budget` is
/// spent (at least three rounds).
fn alternate<W: Native>(
    series: &mut Series,
    build: &dyn Fn() -> W,
    ops: &[Vec<W::Op>; 2],
    timings: &[Timing],
    budget: Duration,
    after: &mut dyn FnMut(&W),
) {
    let clock = Clock::start();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || t0.elapsed() < budget {
        for &timing in timings {
            for threads in [1, 2] {
                let out = trial(build, ops, threads, timing, clock, after);
                let n: usize = (0..threads).map(|t| ops[t].len()).sum();
                series.add(out, n as u64);
            }
        }
        rounds += 1;
    }
}
