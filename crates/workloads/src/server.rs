//! The open-loop server harness: the overload workload the retry runtime
//! exists for.
//!
//! A sharded keyspace — `keys` accounts spread across `shards` `Map`
//! instances, each guarded by its own [`semlock::manager::SemLock`] with
//! per-key-class modes — serves a mixed transaction load through
//! [`interp::Interp::run_with_retry`]:
//!
//! * **transfer** — a two-shard read-modify-write (the classic hot path
//!   for cross-instance deadlocks; acquisition order is the request's
//!   natural order, so opposing transfers genuinely cycle and the
//!   watchdog + retry layer must resolve them);
//! * **balance** — a read-mostly single-key `get`;
//! * **scan+mutate** — `size()` (a whole-container mode that conflicts
//!   with every mutation) followed by a keyed `put`.
//!
//! Requests are generated **open-loop**: request `i`'s arrival time is
//! fixed at `start + i / arrival_rate` regardless of how the server is
//! doing, so latency includes queueing delay when the server falls
//! behind — the regime where closed-loop harnesses silently flatter the
//! system under test. Keys are drawn from a Zipfian distribution
//! (precomputed CDF, seeded), so a handful of accounts are hot enough to
//! force aborts.
//!
//! An optional [`AdmissionThrottle`] caps in-flight transactions;
//! saturated arrivals are **shed** — counted separately and excluded from
//! the eventual-completion ratio, never silently folded into failures.
//! The report carries goodput (completions per second of wall clock) and
//! p50/p99/p999 latency, plus the retry/escalation/shed accounting and a
//! process-global [`semlock::telemetry`] retry-counter delta.

use crate::synthesis::registry;
use interp::{Engine, Env, Interp, Strategy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use semlock::error::LockError;
use semlock::fault::{self, FaultPlan};
use semlock::phi::Phi;
use semlock::retry::{AdmissionThrottle, RetryPolicy, ThrottleDecision};
use semlock::telemetry;
use semlock::value::Value;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
use synth::Synthesizer;

/// Configuration of one open-loop server run.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Seed for the Zipfian sampler, per-thread mix streams, the retry
    /// jitter, and (when enabled) the fault plan.
    pub seed: u64,
    /// Worker threads serving requests.
    pub threads: usize,
    /// `Map` shards (each a distinct ADT instance with its own lock).
    pub shards: usize,
    /// Total keys across the keyspace; key `k` lives in shard
    /// `k % shards` under per-shard key `k / shards`.
    pub keys: u64,
    /// Total requests to offer.
    pub requests: u64,
    /// Open-loop arrival rate, requests per second.
    pub arrival_rate: f64,
    /// Zipf exponent (`s` ≈ 0.99 is the classic YCSB skew).
    pub zipf_s: f64,
    /// Percent of requests that are two-shard transfers.
    pub transfer_pct: u32,
    /// Percent that are scan+mutate (`size` + `put`); the remainder are
    /// balance reads.
    pub scan_pct: u32,
    /// Deadline for each attempt's semantic acquisitions.
    pub lock_timeout: Duration,
    /// Abort-retry policy (jitter keyed by txn id; see `SEMLOCK_RETRY`).
    pub retry: RetryPolicy,
    /// In-flight cap; `None` admits everything.
    pub admission_cap: Option<u64>,
    /// Forced-timeout injection probability, parts per million.
    pub timeout_ppm: u32,
    /// Injected-delay probability, ppm.
    pub delay_ppm: u32,
    /// Injected-panic probability, ppm.
    pub panic_ppm: u32,
    /// Which execution engine runs the sections.
    pub engine: Engine,
}

impl ServerConfig {
    /// A run sized for unit tests and the CI smoke job: small keyspace,
    /// high arrival rate, faults off.
    pub fn smoke(seed: u64) -> ServerConfig {
        ServerConfig {
            seed,
            threads: 8,
            shards: 16,
            keys: 1 << 12,
            requests: 2_000,
            arrival_rate: 100_000.0,
            zipf_s: 0.99,
            transfer_pct: 40,
            scan_pct: 10,
            lock_timeout: Duration::from_millis(100),
            retry: RetryPolicy::new(seed),
            admission_cap: None,
            timeout_ppm: 0,
            delay_ppm: 0,
            panic_ppm: 0,
            engine: Engine::Compiled,
        }
    }

    /// The chaos soak: the smoke shape plus injected forced timeouts and
    /// delays, so a meaningful fraction of first attempts abort and the
    /// ≥99% *eventual* completion bar is doing real work.
    pub fn soak(seed: u64) -> ServerConfig {
        ServerConfig {
            timeout_ppm: 20_000,
            delay_ppm: 10_000,
            ..ServerConfig::smoke(seed)
        }
    }

    /// The benchmark shape: a ≥1M-key keyspace over 1024 shards with an
    /// admission cap and mild forced-timeout injection (so the goodput
    /// table actually crosses the retry path), sized to finish in
    /// seconds on a laptop.
    pub fn bench(seed: u64) -> ServerConfig {
        ServerConfig {
            shards: 1024,
            keys: 1 << 20,
            requests: 40_000,
            arrival_rate: 400_000.0,
            admission_cap: Some(64),
            timeout_ppm: 10_000,
            retry: RetryPolicy::from_env(seed),
            ..ServerConfig::smoke(seed)
        }
    }
}

/// What happened during a server run (totals across threads).
#[derive(Debug, Default)]
pub struct ServerReport {
    /// Requests offered by the open-loop generator.
    pub offered: u64,
    /// Requests that eventually completed (any attempt).
    pub completed: u64,
    /// Requests shed at admission (excluded from the completion ratio).
    pub shed: u64,
    /// Requests whose retry budget exhausted (final aborts).
    pub failed: u64,
    /// Requests torn mid-flight by an injected panic (never retried).
    pub interrupted: u64,
    /// Completions that needed more than one attempt.
    pub retried_completions: u64,
    /// Re-execution attempts beyond each request's first.
    pub retry_attempts: u64,
    /// Requests that crossed the starvation threshold and escalated.
    pub escalations: u64,
    /// Did the throttle ever report `Degraded`?
    pub degraded_observed: bool,
    /// Completions per second of wall-clock time.
    pub goodput_per_sec: f64,
    /// Latency percentiles, µs, measured from *scheduled arrival* to
    /// completion (so queueing delay counts).
    pub p50_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// 99.9th percentile latency, µs.
    pub p999_us: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Process-global retry-counter deltas over the run (exact when the
    /// run owns the process, e.g. in the bench binary; a lower bound
    /// under concurrent test threads).
    pub telemetry: telemetry::RetryCounters,
}

impl ServerReport {
    /// Eventual-completion ratio with sheds excluded: `completed /
    /// (offered − shed)`. The acceptance bar is ≥ 0.99.
    pub fn completion_ratio(&self) -> f64 {
        let denom = self.offered.saturating_sub(self.shed);
        if denom == 0 {
            return 1.0;
        }
        self.completed as f64 / denom as f64
    }

    /// Every non-shed request reached exactly one final outcome — the
    /// no-livelock ledger.
    pub fn settled(&self) -> bool {
        self.completed + self.failed + self.interrupted + self.shed == self.offered
    }
}

/// Seeded Zipfian sampler over `0..n` via a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the CDF for ranks `1..=n` with exponent `s`.
    pub fn new(n: u64, s: f64) -> Zipf {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `0..n` (rank 0 is the hottest).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        // The vendored rand shim only samples integers; 53 bits is a full
        // f64 mantissa of uniformity.
        let u = rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// The two-shard transfer: read-modify-write on one account in each of
/// two instances. Opposing transfers acquire in opposite orders, so this
/// is the section that manufactures genuine cross-instance deadlocks.
pub fn transfer_section() -> AtomicSection {
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

/// The read-mostly balance check: a single keyed `get`.
pub fn balance_section() -> AtomicSection {
    AtomicSection::new(
        "balance",
        [ptr("acct", "Map"), scalar("k"), scalar("v")],
        Body::new()
            .call_into("v", "acct", "get", vec![var("k")])
            .build(),
    )
}

/// The scan+mutate mix component: `size()` takes a whole-container mode
/// that conflicts with every `put` on the shard, then writes one key —
/// the coarse-conflict shape that keeps retry pressure realistic.
pub fn scan_mutate_section() -> AtomicSection {
    AtomicSection::new(
        "scan_mutate",
        [ptr("m", "Map"), scalar("k"), scalar("n"), scalar("v")],
        Body::new()
            .call_into("n", "m", "size", vec![])
            .call_into("v", "m", "get", vec![var("k")])
            .if_else(
                is_null(var("v")),
                Body::new().call("m", "put", vec![var("k"), add(var("n"), konst(1))]),
                Body::new().call("m", "put", vec![var("k"), add(var("v"), konst(1))]),
            )
            .build(),
    )
}

struct Shared<'a> {
    cfg: &'a ServerConfig,
    interp: &'a Interp,
    env: &'a Env,
    shards: &'a [Value],
    zipf: &'a Zipf,
    throttle: Option<&'a AdmissionThrottle>,
    next: &'a AtomicU64,
    start: Instant,
    completed: &'a AtomicU64,
    shed: &'a AtomicU64,
    failed: &'a AtomicU64,
    interrupted: &'a AtomicU64,
    retried_completions: &'a AtomicU64,
    retry_attempts: &'a AtomicU64,
    escalations: &'a AtomicU64,
    degraded: &'a AtomicBool,
}

/// Run one open-loop server workload; `Err` describes the first violated
/// invariant, prefixed with the seed for replay.
pub fn run_server(cfg: &ServerConfig) -> Result<ServerReport, String> {
    assert!(cfg.shards >= 2, "transfers need at least two shards");
    assert!(cfg.keys >= cfg.shards as u64);
    assert!(cfg.transfer_pct + cfg.scan_pct <= 100);
    assert!(cfg.arrival_rate > 0.0);
    fault::silence_injected_panics();
    let program = Arc::new(Synthesizer::new(registry()).phi(Phi::fib(64)).synthesize(&[
        transfer_section(),
        balance_section(),
        scan_mutate_section(),
    ]));
    let env = Arc::new(Env::new(program));
    let shards: Vec<Value> = (0..cfg.shards).map(|_| env.new_instance("Map")).collect();
    let mut interp = Interp::new(env.clone(), Strategy::Semantic)
        .with_lock_timeout(cfg.lock_timeout)
        .with_engine(cfg.engine);
    if cfg.timeout_ppm > 0 || cfg.delay_ppm > 0 || cfg.panic_ppm > 0 {
        interp = interp.with_faults(Arc::new(
            FaultPlan::new(cfg.seed)
                .with_timeouts(cfg.timeout_ppm)
                .with_delays(cfg.delay_ppm, Duration::from_micros(100))
                .with_panics(cfg.panic_ppm),
        ));
    }
    let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
    let throttle = cfg.admission_cap.map(AdmissionThrottle::new);

    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let interrupted = AtomicU64::new(0);
    let retried_completions = AtomicU64::new(0);
    let retry_attempts = AtomicU64::new(0);
    let escalations = AtomicU64::new(0);
    let degraded = AtomicBool::new(false);

    let before = telemetry::retry_counters();
    let start = Instant::now();
    let shared = Shared {
        cfg,
        interp: &interp,
        env: &env,
        shards: &shards,
        zipf: &zipf,
        throttle: throttle.as_ref(),
        next: &next,
        start,
        completed: &completed,
        shed: &shed,
        failed: &failed,
        interrupted: &interrupted,
        retried_completions: &retried_completions,
        retry_attempts: &retry_attempts,
        escalations: &escalations,
        degraded: &degraded,
    };
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let shared = &shared;
                scope.spawn(move || serve(shared, t as u64))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("server worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let after = telemetry::retry_counters();

    // Quiescence: a retried-to-death request must not strand a mode.
    for (i, &h) in shards.iter().enumerate() {
        let holds = env.resolve(h).sem().total_holds();
        if holds != 0 {
            let msg = format!(
                "server soak [seed {}]: shard {i} leaked {holds} mode holds",
                cfg.seed
            );
            eprintln!("{msg}");
            return Err(msg);
        }
    }

    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as f64 * p).round() as usize]
        }
    };
    Ok(ServerReport {
        offered: cfg.requests,
        completed: completed.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        interrupted: interrupted.load(Ordering::Relaxed),
        retried_completions: retried_completions.load(Ordering::Relaxed),
        retry_attempts: retry_attempts.load(Ordering::Relaxed),
        escalations: escalations.load(Ordering::Relaxed),
        degraded_observed: degraded.load(Ordering::Relaxed),
        goodput_per_sec: completed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        elapsed,
        telemetry: telemetry::RetryCounters {
            retries: after.retries.saturating_sub(before.retries),
            escalations: after.escalations.saturating_sub(before.escalations),
            sheds: after.sheds.saturating_sub(before.sheds),
            exhausted: after.exhausted.saturating_sub(before.exhausted),
        },
    })
}

/// One worker: pull the next request index, wait for its scheduled
/// arrival, classify it by the mix, and serve it through
/// `run_with_retry`. Returns this worker's completion latencies (µs).
fn serve(sh: &Shared<'_>, tid: u64) -> Vec<u64> {
    let cfg = sh.cfg;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ tid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut lats = Vec::new();
    loop {
        let i = sh.next.fetch_add(1, Ordering::Relaxed);
        if i >= cfg.requests {
            break;
        }
        let arrival = sh.start + Duration::from_secs_f64(i as f64 / cfg.arrival_rate);
        let now = Instant::now();
        if now < arrival {
            std::thread::sleep(arrival - now);
        }
        let _permit = match sh.throttle {
            Some(th) => match th.admit() {
                ThrottleDecision::Admitted(p) => {
                    if th.is_degraded() {
                        sh.degraded.store(true, Ordering::Relaxed);
                    }
                    Some(p)
                }
                // `ThrottleDecision` is non-exhaustive; anything that is not an
                // admission sheds the request.
                _ => {
                    sh.degraded.store(true, Ordering::Relaxed);
                    sh.shed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            },
            None => None,
        };
        let kind = rng.gen_range(0..100u32);
        let k1 = sh.zipf.sample(&mut rng);
        let (s1, l1) = (k1 % cfg.shards as u64, k1 / cfg.shards as u64);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if kind < cfg.transfer_pct {
                // Force distinct shards so `src`/`dst` never alias; the
                // acquisition order stays the request's own, so opposing
                // transfers still deadlock and must retry their way out.
                let mut k2 = sh.zipf.sample(&mut rng);
                if k2 % cfg.shards as u64 == s1 {
                    k2 = (k2 + 1) % cfg.keys;
                }
                let (s2, l2) = (k2 % cfg.shards as u64, k2 / cfg.shards as u64);
                sh.interp.run_with_retry(
                    "transfer",
                    &[
                        ("src", sh.shards[s1 as usize]),
                        ("dst", sh.shards[s2 as usize]),
                        ("ka", Value(l1)),
                        ("kb", Value(l2)),
                    ],
                    &cfg.retry,
                )
            } else if kind < cfg.transfer_pct + cfg.scan_pct {
                sh.interp.run_with_retry(
                    "scan_mutate",
                    &[("m", sh.shards[s1 as usize]), ("k", Value(l1))],
                    &cfg.retry,
                )
            } else {
                sh.interp.run_with_retry(
                    "balance",
                    &[("acct", sh.shards[s1 as usize]), ("k", Value(l1))],
                    &cfg.retry,
                )
            }
        }));
        match outcome {
            Ok(Ok(run)) => {
                sh.completed.fetch_add(1, Ordering::Relaxed);
                if run.attempts > 1 {
                    sh.retried_completions.fetch_add(1, Ordering::Relaxed);
                    sh.retry_attempts
                        .fetch_add(u64::from(run.attempts - 1), Ordering::Relaxed);
                }
                if run.escalated {
                    sh.escalations.fetch_add(1, Ordering::Relaxed);
                }
                lats.push(arrival.elapsed().as_micros() as u64);
            }
            Ok(Err(e)) => {
                sh.failed.fetch_add(1, Ordering::Relaxed);
                if let LockError::Poisoned { instance } = e {
                    recover_poison(sh, instance);
                }
            }
            Err(payload) => {
                if fault::injected(&*payload).is_none() {
                    panic::resume_unwind(payload);
                }
                sh.interrupted.fetch_add(1, Ordering::Relaxed);
                // The panic may have poisoned whichever shard it tore;
                // sweep and recover so the run keeps serving.
                for &h in sh.shards {
                    let adt = sh.env.resolve(h);
                    if adt.sem().is_poisoned() {
                        adt.sem().clear_poison();
                    }
                }
            }
        }
    }
    lats
}

/// Clear poison on the shard that rejected an acquirer.
fn recover_poison(sh: &Shared<'_>, instance: u64) {
    for &h in sh.shards {
        let adt = sh.env.resolve(h);
        if adt.sem().unique() == instance && adt.sem().is_poisoned() {
            adt.sem().clear_poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(1 << 10, 0.99);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..64).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay the same keys");
        let mut rng = SmallRng::seed_from_u64(1);
        let hot = (0..4_000).filter(|_| z.sample(&mut rng) == 0).count();
        // Rank 0 carries ~13% of the mass at s=0.99 over 1024 keys.
        assert!(
            hot > 200,
            "rank 0 drawn only {hot}/4000 times — not Zipfian"
        );
        let max = (0..4_000).map(|_| z.sample(&mut rng)).max().unwrap();
        assert!(max < 1 << 10);
    }

    #[test]
    fn quiet_server_completes_everything() {
        let mut cfg = ServerConfig::smoke(3);
        cfg.threads = 4;
        cfg.requests = 800;
        let r = run_server(&cfg).unwrap();
        assert!(r.settled(), "outcome ledger out of balance: {r:?}");
        assert_eq!(r.shed, 0);
        assert_eq!(r.interrupted, 0);
        assert!(
            r.completion_ratio() >= 0.99,
            "quiet run below the SLO: {r:?}"
        );
        assert!(r.goodput_per_sec > 0.0);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us, "{r:?}");
    }

    #[test]
    fn saturated_admission_sheds_and_stays_accounted() {
        let mut cfg = ServerConfig::smoke(5);
        cfg.threads = 8;
        cfg.requests = 1_500;
        cfg.admission_cap = Some(1);
        // Every request sleeps at its fault boundaries while it holds the
        // only permit, so other workers arrive during the hold however
        // fast the host serves requests. Without it a fast build can
        // finish all 1,500 requests inside one scheduler time slice on a
        // small host and never run two workers at once.
        cfg.delay_ppm = 1_000_000;
        cfg.arrival_rate = 1e9; // everyone arrives at once
        let r = run_server(&cfg).unwrap();
        assert!(r.settled(), "{r:?}");
        assert!(r.shed > 0, "cap of 1 under 8 threads never shed: {r:?}");
        assert!(r.degraded_observed, "{r:?}");
        assert!(
            r.telemetry.sheds >= r.shed,
            "sheds missing from telemetry: {r:?}"
        );
        // Sheds are excluded: everything admitted still completes.
        assert!(r.completion_ratio() >= 0.99, "{r:?}");
    }

    #[test]
    fn soak_meets_completion_slo_on_both_engines() {
        for engine in [Engine::TreeWalk, Engine::Compiled] {
            let mut cfg = ServerConfig::soak(11);
            cfg.engine = engine;
            cfg.threads = 4;
            cfg.requests = 600;
            let r = run_server(&cfg).unwrap();
            assert!(r.settled(), "{engine:?}: {r:?}");
            assert!(
                r.completion_ratio() >= 0.99,
                "{engine:?} below the SLO: {r:?}"
            );
            assert!(
                r.retried_completions > 0,
                "{engine:?}: faults injected but nothing retried: {r:?}"
            );
            assert!(r.telemetry.retries >= r.retry_attempts, "{engine:?}: {r:?}");
        }
    }
}
