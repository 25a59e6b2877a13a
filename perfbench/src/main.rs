//! The layered benchmark of the semantic-locking stack.
//!
//! ```text
//! perfbench --workload <server-mixed|cia|graph> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics: the rung ladder at 1 and 2
//! threads, counters, and the tracing overhead. The last line of standard
//! output is the result object; see the README next to this crate.

mod cia;
mod closed;
mod common;
mod graph;
mod ladder;
mod report;
mod server;
mod stats;
mod trace;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <server-mixed|cia|graph> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["server-mixed", "cia", "graph"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Timed runs never record semlock telemetry events, whatever the
    // environment says; the traced run measures from outside instead.
    semlock::telemetry::set_enabled(false);
    let outcome = match args.workload.as_str() {
        "server-mixed" => server::run(&args),
        "cia" => cia::run(&args),
        _ => graph::run(&args),
    };
    std::process::exit(outcome.finish());
}
