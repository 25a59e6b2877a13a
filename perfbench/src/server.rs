//! `server-mixed`: the product path, open-loop.
//!
//! The request mix of `workloads::server` (40% `transfer`, 10%
//! `scan_mutate`, 50% `balance`; Zipf s = 0.99 over 2^20 keys in 1024
//! `Map` shards) runs through `Interp::run_with_retry` on the compiled
//! engine with a 100 ms lock timeout, no fault injection and no throttle.
//! The `Map` table has 592 modes in one partition, so admission is Wide.
//!
//! There is no generator thread: each of the two workers claims the next
//! request index, waits for its due time (sleeping, yielding, then
//! spinning the last 2 µs) and times the request from when it was due.
//! `workloads::run_server` paces with `thread::sleep` alone, whose
//! overshoot puts its p50 at 30–50 µs at these rates; the spin keeps
//! pacing error to well under a microsecond.

use crate::ladder::{self, Inputs, Prepared};
use crate::report::{OpenFigures, Outcome, Row};
use crate::trace::{self, Clock, Span, SpanBuf, Trace};
use crate::{common, stats, Args};
use interp::{Engine, Env, Interp, RetryRun, SharedAdt, Strategy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use semlock::error::LockError;
use semlock::phi::Phi;
use semlock::retry::RetryPolicy;
use semlock::schema::MethodIdx;
use semlock::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use synth::Synthesizer;
use workloads::server::{balance_section, scan_mutate_section, transfer_section, Zipf};
use workloads::synthesis::registry;

/// `Map` shards.
const SHARDS: usize = 1024;
/// Accounts; key `k` lives in shard `k % SHARDS` under local key `k / SHARDS`.
const KEYS: u64 = 1 << 20;
/// Zipf exponent of the key draw.
const ZIPF_S: f64 = 0.99;
/// Percent of requests that are transfers.
const TRANSFER_PCT: u32 = 40;
/// Percent that are scan+mutate; the rest are balance reads.
const SCAN_PCT: u32 = 10;
/// Open-loop rates, requests per second: about 20% and 40% of the
/// median two-worker saturated rate (about 700k req/s) measured when the
/// benchmark was defined.
const LOW_RATE: f64 = 140_000.0;
/// The high open-loop rate.
const HIGH_RATE: f64 = 280_000.0;
/// Workers serving requests.
const WORKERS: usize = 2;
/// Requests per worker in a closed-loop pool (cycled).
const POOL: usize = 1 << 18;
/// Rounds an untraced run is split into (a traced run has half as many).
const ROUNDS: usize = 12;
/// An open-loop segment whose last tenth waited longer than this (median
/// due→start) ended behind its schedule.
const BACKLOG_LIMIT_NS: u64 = 250_000;
/// Requests per latency window of an open-loop segment.
const WINDOW_REQS: usize = 1000;
/// Sections, indexed by request kind.
const SECTIONS: [&str; 3] = ["transfer", "balance", "scan_mutate"];
const TRANSFER: u8 = 0;
const BALANCE: u8 = 1;
const SCAN: u8 = 2;

/// One pre-generated request.
#[derive(Clone, Copy)]
struct Req {
    kind: u8,
    s1: u16,
    s2: u16,
    l1: u32,
    l2: u32,
}

/// Draw one request, exactly as `workloads::server` does.
fn draw(zipf: &Zipf, rng: &mut SmallRng) -> Req {
    let roll = rng.gen_range(0..100u32);
    let k1 = zipf.sample(rng);
    let shards = SHARDS as u64;
    let (s1, l1) = ((k1 % shards) as u16, (k1 / shards) as u32);
    if roll < TRANSFER_PCT {
        // Distinct shards, so src and dst never alias.
        let mut k2 = zipf.sample(rng);
        if k2 % shards == u64::from(s1) {
            k2 = (k2 + 1) % KEYS;
        }
        return Req {
            kind: TRANSFER,
            s1,
            l1,
            s2: (k2 % shards) as u16,
            l2: (k2 / shards) as u32,
        };
    }
    let kind = if roll < TRANSFER_PCT + SCAN_PCT {
        SCAN
    } else {
        BALANCE
    };
    Req {
        kind,
        s1,
        l1,
        s2: 0,
        l2: 0,
    }
}

fn draw_n(zipf: &Zipf, seed: u64, tag: u64, n: usize) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(common::stream(seed, tag));
    (0..n).map(|_| draw(zipf, &mut rng)).collect()
}

/// Everything a run serves requests with.
struct Server {
    env: Arc<Env>,
    interp: Interp,
    shards: Vec<Value>,
    adts: Vec<Arc<SharedAdt>>,
}

struct SetupTimes {
    total_s: f64,
    synth_ms: f64,
    compile_ms: f64,
}

fn synthesize() -> synth::SynthOutput {
    Synthesizer::new(registry()).phi(Phi::fib(64)).synthesize(&[
        transfer_section(),
        balance_section(),
        scan_mutate_section(),
    ])
}

/// Synthesize, build the environment and shards, compile the tapes.
fn setup() -> (Server, SetupTimes) {
    let t0 = Instant::now();
    let program = Arc::new(synthesize());
    let synth_ms = t0.elapsed().as_secs_f64() * 1e3;
    let env = Arc::new(Env::new(program));
    let shards: Vec<Value> = (0..SHARDS).map(|_| env.new_instance("Map")).collect();
    let t1 = Instant::now();
    let interp = Interp::new(env.clone(), Strategy::Semantic)
        .with_lock_timeout(ladder::LOCK_TIMEOUT)
        .with_engine(Engine::Compiled);
    let compile_ms = t1.elapsed().as_secs_f64() * 1e3;
    let total_s = t0.elapsed().as_secs_f64();
    let adts = shards.iter().map(|&h| env.resolve(h)).collect();
    (
        Server {
            env,
            interp,
            shards,
            adts,
        },
        SetupTimes {
            total_s,
            synth_ms,
            compile_ms,
        },
    )
}

impl Server {
    /// The section bindings of a request; the first `n` entries are used.
    #[inline]
    fn bindings(&self, r: &Req) -> ([(&'static str, Value); 4], usize) {
        let h1 = self.shards[r.s1 as usize];
        let k1 = Value(u64::from(r.l1));
        let unused = ("", Value::NULL);
        match r.kind {
            TRANSFER => (
                [
                    ("src", h1),
                    ("dst", self.shards[r.s2 as usize]),
                    ("ka", k1),
                    ("kb", Value(u64::from(r.l2))),
                ],
                4,
            ),
            BALANCE => ([("acct", h1), ("k", k1), unused, unused], 2),
            _ => ([("m", h1), ("k", k1), unused, unused], 2),
        }
    }

    /// Serve one request through the retry runtime.
    #[inline]
    fn serve(&self, r: &Req, policy: &RetryPolicy) -> Result<RetryRun, LockError> {
        let (b, n) = self.bindings(r);
        self.interp
            .run_with_retry(SECTIONS[r.kind as usize], &b[..n], policy)
    }
}

/// How much a completed request adds to the sum of all account values:
/// +1 per account of a transfer; +1 for a scan_mutate that found its key,
/// `n + 1` (the shard size it read) for one that did not.
fn ledger_delta(r: &Req, run: &RetryRun) -> u64 {
    match r.kind {
        TRANSFER => 2,
        SCAN => {
            let v = run.frame.get("v").copied().unwrap_or(Value::NULL);
            if v.is_null() {
                run.frame.get("n").map_or(0, |n| n.0) + 1
            } else {
                1
            }
        }
        _ => 0,
    }
}

/// Outcome counts of one worker (and, merged, of a phase).
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    completed: u64,
    failed: u64,
    attempts: u64,
    escalations: u64,
    backoff_ns: u64,
    ledger: u64,
}

impl Tally {
    #[inline]
    fn record(&mut self, r: &Req, out: Result<RetryRun, LockError>) {
        self.attempted += 1;
        match out {
            Ok(run) => {
                self.completed += 1;
                self.attempts += u64::from(run.attempts);
                self.escalations += u64::from(run.escalated);
                self.backoff_ns += run.backoffs.iter().sum::<Duration>().as_nanos() as u64;
                self.ledger += ledger_delta(r, &run);
            }
            Err(_) => self.failed += 1,
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.attempts += o.attempts;
        self.escalations += o.escalations;
        self.backoff_ns += o.backoff_ns;
        self.ledger += o.ledger;
    }
}

/// One finished open-loop phase.
#[derive(Default)]
struct Open {
    tally: Tally,
    /// Per-window `(p50, p99)` latency from due time to completion, ns.
    windows: Vec<(u64, u64)>,
    /// Every latency from due time to completion, ns.
    lat: Vec<u64>,
    /// Due → start, ns, sorted.
    queue: Vec<u64>,
    /// Due → start of requests whose worker was idle when they fell due
    /// (pure pacing error), ns, sorted.
    gen_late: Vec<u64>,
    /// Median due → start over the last tenth of each segment's
    /// schedule, ns, one entry per segment.
    tail_queue_p50: Vec<u64>,
}

impl Open {
    /// Latency `(p50, p99)`, µs, over windows of [`WINDOW_REQS`]
    /// requests: the interquartile mean of the window p50s, and the lower
    /// quartile of the window p99s. On a shared host, stalls and noisy
    /// neighbours inflate the tail of about half of all windows, so a
    /// central statistic of the window p99s, or the p99 of all requests,
    /// measures the host more than the program; the lower quartile is the
    /// tail the program shows when the host leaves it alone. The p99 of
    /// all requests is reported by the traced run.
    fn latency_us(&self) -> (f64, f64) {
        let p50: Vec<f64> = self.windows.iter().map(|w| w.0 as f64 / 1e3).collect();
        let mut p99: Vec<u64> = self.windows.iter().map(|w| w.1).collect();
        p99.sort_unstable();
        (
            stats::iq_mean(&p50),
            stats::percentile(&p99, 0.25) as f64 / 1e3,
        )
    }

    /// Fold in another segment of the same rate.
    fn absorb(&mut self, seg: Open) {
        self.tally.merge(&seg.tally);
        self.windows.extend(seg.windows);
        self.lat.extend(seg.lat);
        self.queue.extend(seg.queue);
        self.gen_late.extend(seg.gen_late);
        self.tail_queue_p50.extend(seg.tail_queue_p50);
    }

    /// Did this rate's schedule run away? A segment whose last tenth
    /// waited more than [`BACKLOG_LIMIT_NS`] (median) ended behind; the
    /// phase fell behind when most of its segments did. A single stall of
    /// the host delays the end of one segment, while a rate the program
    /// cannot serve leaves every segment behind.
    fn fell_behind(&self) -> bool {
        let late = self
            .tail_queue_p50
            .iter()
            .filter(|&&q| q > BACKLOG_LIMIT_NS)
            .count();
        2 * late > self.tail_queue_p50.len()
    }
}

/// Serve `reqs` open-loop at `rate` with [`WORKERS`] self-pacing workers.
fn open_loop<const TRACE: bool>(
    sv: &Server,
    reqs: &[Req],
    rate: f64,
    policy: &RetryPolicy,
    trace: &mut Trace,
) -> Open {
    let clock = Clock::start();
    let next = AtomicU64::new(0);
    let period = 1e9 / rate;
    let t0 = 1_000_000; // first request due 1 ms after the clock starts
    let gate = Barrier::new(WORKERS);
    type Rec = (u32, u64, u64, bool); // index, due→start, due→end, idle
    let per_worker: Vec<(Tally, Vec<Rec>, SpanBuf)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (next, gate) = (&next, &gate);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut recs: Vec<Rec> = Vec::with_capacity(reqs.len() / WORKERS + 1024);
                    let cap = if TRACE {
                        3 * reqs.len() / trace::SAMPLE as usize + 3
                    } else {
                        0
                    };
                    let mut spans = SpanBuf::with_capacity(cap);
                    gate.wait();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= reqs.len() {
                            break;
                        }
                        let due = t0 + (i as f64 * period) as u64;
                        let mut now = clock.now_ns();
                        let idle = now < due;
                        if idle {
                            if due - now > 200_000 {
                                std::thread::sleep(Duration::from_nanos(due - now - 100_000));
                            }
                            // Yield while far from due, so a worker that shares a
                            // CPU with the other one never holds it up; spin the
                            // last 2 µs.
                            while now < due {
                                if due - now > 2_000 {
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                                now = clock.now_ns();
                            }
                        }
                        let start = now;
                        let r = &reqs[i];
                        let out = sv.serve(r, policy);
                        let called = clock.now_ns();
                        tally.record(r, out);
                        let end = if TRACE { clock.now_ns() } else { called };
                        recs.push((i as u32, start - due, end - due, idle));
                        if TRACE && trace::sampled(i as u64) {
                            let req = i as u64;
                            let name = SECTIONS[r.kind as usize];
                            spans.push(Span {
                                req,
                                name: "queue",
                                parent: None,
                                start: due,
                                end: start,
                            });
                            spans.push(Span {
                                req,
                                name,
                                parent: None,
                                start,
                                end,
                            });
                            spans.push(Span {
                                req,
                                name: "interp.run_with_retry",
                                parent: Some(name),
                                start,
                                end: called,
                            });
                        }
                    }
                    (tally, recs, spans)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let mut out = Open::default();
    let n = reqs.len().max(1);
    let nw = (n / WINDOW_REQS).max(1);
    let mut windows: Vec<Vec<u64>> = vec![Vec::with_capacity(WINDOW_REQS); nw];
    let mut tail = Vec::new();
    for (tally, recs, spans) in per_worker {
        out.tally.merge(&tally);
        for (i, q, l, idle) in recs {
            out.queue.push(q);
            out.lat.push(l);
            windows[(i as usize / WINDOW_REQS).min(nw - 1)].push(l);
            if idle {
                out.gen_late.push(q);
            }
            if i as usize >= n - n / 10 {
                tail.push(q);
            }
        }
        trace.absorb(spans);
    }
    tail.sort_unstable();
    out.windows = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_unstable();
            (stats::percentile(w, 0.5), stats::percentile(w, 0.99))
        })
        .collect();
    out.tail_queue_p50 = vec![stats::percentile(&tail, 0.5)];
    out
}

/// Where each closed-loop worker is in its request pool, and the index
/// the next chunk's spans start from.
struct Cursors {
    pos: [usize; 2],
    req: u64,
}

/// Serve from the per-worker pools closed-loop with `workers` workers for
/// `dur`; returns (completions per second, tally).
fn closed_chunk<const TRACE: bool>(
    sv: &Server,
    pools: &[Vec<Req>; 2],
    cur: &mut Cursors,
    workers: usize,
    dur: Duration,
    policy: &RetryPolicy,
    trace: &mut Trace,
) -> (f64, Tally) {
    let clock = Clock::start();
    let gate = Barrier::new(workers);
    let stop = dur.as_nanos() as u64;
    let req0 = cur.req;
    let per_worker: Vec<(Tally, u64, usize, SpanBuf)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..workers)
            .map(|w| {
                let (gate, pool, mut pos) = (&gate, &pools[w], cur.pos[w]);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut spans = SpanBuf::with_capacity(if TRACE { 1 << 18 } else { 0 });
                    gate.wait();
                    let mut now = clock.now_ns();
                    let mut n = 0u64;
                    while now < stop {
                        let r = &pool[pos];
                        pos = (pos + 1) % pool.len();
                        let start = now;
                        let out = sv.serve(r, policy);
                        let called = clock.now_ns();
                        tally.record(r, out);
                        now = if TRACE { clock.now_ns() } else { called };
                        if TRACE && trace::sampled(n) {
                            let req = req0 + ((w as u64) << 40) + n;
                            let name = SECTIONS[r.kind as usize];
                            spans.push(Span {
                                req,
                                name,
                                parent: None,
                                start,
                                end: now,
                            });
                            spans.push(Span {
                                req,
                                name: "interp.run_with_retry",
                                parent: Some(name),
                                start,
                                end: called,
                            });
                        }
                        n += 1;
                    }
                    (tally, now, pos, spans)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("closed-loop worker panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut end = 0;
    for (w, (t, e, pos, spans)) in per_worker.into_iter().enumerate() {
        tally.merge(&t);
        end = end.max(e);
        cur.pos[w] = pos;
        trace.absorb(spans);
    }
    cur.req += tally.attempted;
    (tally.completed as f64 / (end as f64 / 1e9), tally)
}

/// Generated inputs of one run.
struct Inputs3 {
    low: Vec<Req>,
    high: Vec<Req>,
    pools: [Vec<Req>; 2],
}

fn inputs(seed: u64, low_n: usize, high_n: usize) -> Inputs3 {
    let zipf = Zipf::new(KEYS, ZIPF_S);
    Inputs3 {
        low: draw_n(&zipf, seed, 0x10, low_n),
        high: draw_n(&zipf, seed, 0x20, high_n),
        pools: [0, 1].map(|w| draw_n(&zipf, seed, 0x30 + w, POOL)),
    }
}

/// Post-run checks: settled ledger, value sum, no held modes, no poison.
fn check(sv: &Server, tally: &Tally, out: &mut Outcome) {
    if tally.completed + tally.failed != tally.attempted {
        out.fail(format!(
            "ledger not settled: completed {} + failed {} != attempted {}",
            tally.completed, tally.failed, tally.attempted
        ));
    }
    let get: MethodIdx = adts::schema_of("Map").method("get");
    let per_shard = KEYS / SHARDS as u64;
    let sum: u64 = sv
        .adts
        .iter()
        .map(|a| {
            (0..per_shard)
                .map(|l| a.obj.invoke(get, &[Value(l)]))
                .filter(|v| !v.is_null())
                .map(|v| v.0)
                .sum::<u64>()
        })
        .sum();
    if sum != tally.ledger {
        out.fail(format!(
            "account values sum to {sum}, the returned frames imply {}",
            tally.ledger
        ));
    }
    out.check_holds(&sv.env, &sv.shards);
}

/// Run the `server-mixed` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args);
    let policy = RetryPolicy::new(args.seed);
    let s = args.seconds;
    // Shares of the run spent open-loop at each rate and closed-loop; a
    // traced run also spends closed-loop time on traced chunks.
    let (open_share, closed_share, rounds, chunks) = if args.trace {
        (0.15, 0.55, ROUNDS / 2, 4)
    } else {
        (0.2, 0.5, ROUNDS, 2)
    };
    let inp = inputs(
        args.seed,
        (LOW_RATE * s * open_share) as usize,
        (HIGH_RATE * s * open_share) as usize,
    );
    let (sv, t) = setup();
    let mut times = vec![t];
    let base_id = sv.shards[0].0;
    assert!(
        sv.shards
            .iter()
            .enumerate()
            .all(|(i, h)| h.0 == base_id + i as u64),
        "shard handles are not consecutive"
    );
    out.row = Row::describe(&sv.env.program, "compiled + run_with_retry", args);
    let mut total = Tally::default();
    let mut trace_open = Trace::default();
    let mut trace_closed = [Trace::default(), Trace::default()];
    let mut scratch = Trace::default();
    let counters0 = common::contention(&sv.env, &sv.shards);
    let retries0 = semlock::telemetry::retry_counters().retries;

    // The run is a series of rounds, each an open-loop segment at either
    // rate, a 2-worker and a 1-worker closed-loop chunk (and, traced, a
    // traced chunk of each) and one more timed set-up, so that every
    // figure samples the whole run rather than one stretch of it.
    let mut cur = Cursors {
        pos: [0; 2],
        req: 1 << 48,
    };
    let chunk = Duration::from_secs_f64(s * closed_share / (rounds * chunks) as f64);
    let (_, warm) =
        closed_chunk::<false>(&sv, &inp.pools, &mut cur, 2, chunk, &policy, &mut scratch);
    total.merge(&warm);
    let (mut low, mut high) = (Open::default(), Open::default());
    let (mut tp, mut tp_traced) = ([vec![], vec![]], [vec![], vec![]]);
    for r in 0..rounds {
        for (rate, reqs, acc) in [
            (LOW_RATE, &inp.low, &mut low),
            (HIGH_RATE, &inp.high, &mut high),
        ] {
            let seg_len = reqs.len().div_ceil(rounds);
            let seg = &reqs[(r * seg_len).min(reqs.len())..((r + 1) * seg_len).min(reqs.len())];
            let ph = if args.trace {
                open_loop::<true>(&sv, seg, rate, &policy, &mut trace_open)
            } else {
                open_loop::<false>(&sv, seg, rate, &policy, &mut scratch)
            };
            acc.absorb(ph);
        }
        for workers in [2, 1] {
            let (rate, t) = closed_chunk::<false>(
                &sv,
                &inp.pools,
                &mut cur,
                workers,
                chunk,
                &policy,
                &mut scratch,
            );
            total.merge(&t);
            tp[workers - 1].push(rate);
            if args.trace {
                let tr = &mut trace_closed[workers - 1];
                let (rate, t) =
                    closed_chunk::<true>(&sv, &inp.pools, &mut cur, workers, chunk, &policy, tr);
                total.merge(&t);
                tp_traced[workers - 1].push(rate);
            }
        }
        let (extra, t) = setup();
        times.push(t);
        drop(extra);
    }
    for (name, ph) in [("low", &mut low), ("high", &mut high)] {
        total.merge(&ph.tally);
        for v in [&mut ph.lat, &mut ph.queue, &mut ph.gen_late] {
            v.sort_unstable();
        }
        let late = ph
            .tail_queue_p50
            .iter()
            .filter(|&&q| q > BACKLOG_LIMIT_NS)
            .count();
        if ph.fell_behind() {
            out.fail(format!(
                "{name}-rate phase fell behind its schedule in {late} of {} segments",
                ph.tail_queue_p50.len()
            ));
        }
        out.note(format!(
            "{name} rate: {} requests in {} windows, {late} of {} segments ended behind, \
             gen late p99 {} ns, p99 of all requests {} µs, largest {} µs",
            ph.tally.attempted,
            ph.windows.len(),
            ph.tail_queue_p50.len(),
            stats::percentile(&ph.gen_late, 0.99),
            stats::percentile(&ph.lat, 0.99) / 1000,
            ph.lat.last().copied().unwrap_or(0) / 1000
        ));
    }
    out.note(format!(
        "{} requests, {} attempts, {} escalated, {:.3} ms backoff",
        total.completed,
        total.attempts,
        total.escalations,
        total.backoff_ns as f64 / 1e6
    ));
    let counters1 = common::contention(&sv.env, &sv.shards);
    let retries = semlock::telemetry::retry_counters().retries - retries0;
    check(&sv, &total, &mut out);
    out.count(total.attempted, total.failed, &[]);

    if !args.trace {
        out.e2e_metrics(crate::report::E2e {
            setup_s: stats::median(&times.iter().map(|t| t.total_s).collect::<Vec<_>>()),
            throughput_2t: stats::iq_mean(&tp[1]),
            throughput_1t: stats::iq_mean(&tp[0]),
            lo_us: low.latency_us(),
            hi_us: high.latency_us(),
        });
        return out;
    }

    // Traced run: per-layer figures.
    let mut gen_late: Vec<u64> = low.gen_late.iter().chain(&high.gen_late).copied().collect();
    gen_late.sort_unstable();
    out.service_metrics(
        &trace_closed,
        Some(OpenFigures {
            queue: &high.queue,
            gen_late: &gen_late,
            lat: [&low.lat, &high.lat],
        }),
    );
    out.counter_metrics(
        counters1.0 - counters0.0,
        counters1.1 - counters0.1,
        counters1.2 - counters0.2,
        retries,
    );
    let e2e = &total;
    out.retry_metrics(&ladder::Tally {
        requests: e2e.completed,
        attempts: e2e.attempts,
        backoff_ns: e2e.backoff_ns,
        escalations: e2e.escalations,
        failures: e2e.failed,
    });
    out.synth_metrics(
        &sv.env.program,
        stats::median(&times.iter().map(|t| t.synth_ms).collect::<Vec<_>>()),
        stats::median(&times.iter().map(|t| t.compile_ms).collect::<Vec<_>>()),
    );

    // Rungs, on the workload's own (now warm) shards and interpreter.
    let reqs = [0, 1].map(|w| {
        let mut per_kind = [0usize; 3];
        inp.pools[w]
            .iter()
            .filter(|r| {
                per_kind[r.kind as usize] += 1;
                per_kind[r.kind as usize] <= common::RUNG_REQS
            })
            .map(|r| {
                let (b, n) = sv.bindings(r);
                let k = r.kind as usize;
                (k, SECTIONS[k], b[..n].to_vec())
            })
            .collect()
    });
    let rung_inputs = Inputs::prepare(&sv.env, reqs);
    let schema = adts::schema_of("Map");
    let (get, put, size) = (
        schema.method("get"),
        schema.method("put"),
        schema.method("size"),
    );
    let shard = |h: Value| &sv.adts[(h.0 - base_id) as usize].obj;
    let incr = |v: Value| {
        if v.is_null() {
            Value(1)
        } else {
            Value(v.0 + 1)
        }
    };
    let adt_op = |p: &Prepared| match p.section {
        0 => {
            let (src, dst, ka, kb) = (
                shard(p.args[0].1),
                shard(p.args[1].1),
                p.args[2].1,
                p.args[3].1,
            );
            let va = src.invoke(get, &[ka]);
            let vb = dst.invoke(get, &[kb]);
            src.invoke(put, &[ka, incr(va)]);
            dst.invoke(put, &[kb, incr(vb)]);
        }
        1 => {
            std::hint::black_box(shard(p.args[0].1).invoke(get, &[p.args[1].1]));
        }
        _ => {
            let (m, k) = (shard(p.args[0].1), p.args[1].1);
            let n = m.invoke(size, &[]);
            let v = m.invoke(get, &[k]);
            let nv = if v.is_null() {
                Value(n.0 + 1)
            } else {
                Value(v.0 + 1)
            };
            m.invoke(put, &[k, nv]);
        }
    };
    let (rungs, rung_tally) = ladder::run_rungs(
        &rung_inputs,
        &SECTIONS,
        &sv.env,
        &sv.interp,
        &policy,
        &adt_op,
    );
    out.check_holds(&sv.env, &sv.shards);
    out.rung_failures(&rung_tally);
    let weights: Vec<f64> = (0..3)
        .map(|k| inp.pools[0].iter().filter(|r| r.kind as usize == k).count() as f64)
        .collect();
    out.ladder_metrics(&rungs, &weights);
    // The incremental rungs telescope: select + txn + resolve + adts +
    // interp self + retry wrap = run_with_retry.
    let rows: Vec<stats::LadderRow> = (0..3)
        .map(|k| stats::LadderRow {
            weight: weights[k],
            service_ns: stats::percentile(&trace_closed[0].durations(SECTIONS[k]), 0.5) as f64,
            rung_sum_ns: ladder::rung(&rungs, k, "interp.run_with_retry_ns")[0],
        })
        .collect();
    out.trace_metrics(
        common::overhead_pct(&tp[1], &tp_traced[1]),
        stats::ladder_residual_pct(&rows),
    );
    out.print_rungs(&rungs, &SECTIONS);
    out.write_spans(args, &[&trace_open, &trace_closed[0], &trace_closed[1]]);
    out
}
