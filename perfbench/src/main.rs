//! The EPCM benchmark.
//!
//! ```text
//! epcm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public APIs of the simulator's crates
//! for `--seconds` seconds, checks the outputs, and prints as its last
//! line one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.
//!
//! Every workload is a closed loop with one caller, this thread. One
//! iteration is a set-up (input generation from the seed and state
//! preparation, timed as `setup_s`) followed by the measured work (timed
//! as throughput). Simulated statistics are deterministic, so every
//! iteration must reproduce the first one's digest. Throughput is
//! reported per reference second (see `calibrate`): a calibration kernel
//! runs between iterations, so host-speed drift divides out.

mod calibrate;
mod dbms_table4;
mod economy_stress;
mod machine_stats;
mod metrics;
mod pager_zipf;
mod paper_apps;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::{cpu_time, Calibrator, CHUNKS_PER_REF_S};
use spans::{Ctx, Tracer};
use stats::{median, share};

/// Fewest measured iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: u64 = 4;

/// Host time over which one iteration's set-up is repeated.
const SETUP_BLOCK: Duration = Duration::from_millis(2);

/// One check on the program's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool) -> Self {
        Check {
            name: name.into(),
            ok,
        }
    }
}

/// What one measured iteration produced, in simulated terms.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations performed, in the workload's unit (fixed by the input).
    pub ops: u64,
    /// Calls into the program that returned an error.
    pub errors: u64,
    /// Operations the simulation refused without error (starved
    /// lane-epochs): failed in `served_share`, not fast operations.
    pub refused: u64,
    /// Mean simulated µs per operation.
    pub sim_us_per_op: f64,
    /// 99th percentile simulated µs of the workload's latency unit.
    pub sim_p99_us: f64,
    pub checks: Vec<Check>,
    /// Digest over every simulated statistic and counter.
    pub digest: u64,
    /// The workload's own names for its headline numbers, printed in
    /// the human-readable summary: `(name, value, unit)`.
    pub headline: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer simulated counters, by catalogue name.
    pub layer: BTreeMap<&'static str, f64>,
}

/// A benchmark workload.
pub trait Workload {
    type Input;
    type Output;
    /// The unit of `ops`, for the summary.
    const OP: &'static str;
    /// The workload's own name for its operations, as in `refs_per_host_s`.
    const RATE: &'static str;
    /// Generates the inputs from `seed` and prepares the program state.
    fn setup(&self, seed: u64, ctx: Ctx) -> Self::Input;
    /// The measured work: calls into the program only.
    fn run(&self, input: Self::Input, ctx: Ctx) -> Self::Output;
    /// Reads the simulated statistics and checks them (not timed).
    fn outcome(&self, output: Self::Output) -> Outcome;
    /// Checks that need another program run, made once after the timed
    /// loop and its memory reading.
    fn final_checks(&self, _seed: u64, _reference: &Outcome) -> Vec<Check> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload.as_str() {
        "paper-apps" => measure(&paper_apps::PaperApps, &args),
        "pager-zipf" => measure(&pager_zipf::PagerZipf, &args),
        "dbms-table4" => measure(&dbms_table4::DbmsTable4, &args),
        "economy-stress" => measure(&economy_stress::EconomyStress, &args),
        other => {
            eprintln!("error: unknown workload {other} (paper-apps, pager-zipf, dbms-table4, economy-stress)");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Host-time samples of one kind of iteration.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    /// Operations per host (wall-clock) second.
    ops_per_s: Vec<f64>,
    /// Operations per reference second.
    ops_per_ref_s: Vec<f64>,
    /// Reference seconds per CPU second around each iteration (the
    /// host's speed; ops per CPU second / speed = ops per reference second).
    host_speed: Vec<f64>,
}

/// Runs the timed loop, prints the summary and the result line; returns
/// whether the span file (traced runs) was written.
fn measure<W: Workload>(w: &W, args: &Args) -> bool {
    let tracer = Tracer::default();
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut reference: Option<Outcome> = None;
    let mut checks: Vec<Check> = Vec::new();
    let mut deterministic = true;
    let (mut attempted, mut errors) = (0u64, 0u64);
    let mut peak_rss_mb = 0.0;
    // Made after the warm-up, so its memory is not in `peak_rss_mb`.
    let mut calibrator: Option<Calibrator> = None;
    let mut speed_before = 0.0;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // Iteration 0 warms caches and the allocator: its timings are
    // dropped, its outcome is the reference every later one must
    // reproduce, and the memory high-water mark is read right after it,
    // so `peak_rss_mb` is the peak of one workload run in a fresh process.
    let mut iteration = 0u64;
    while iteration <= MIN_ITERATIONS || started.elapsed() < budget {
        // Traced runs alternate untraced and traced iterations, so the
        // tracing overhead is measured under the same conditions.
        let on = args.trace && iteration > 0 && iteration.is_multiple_of(2);
        tracer.set_run(iteration);
        let ctx = if on { Ctx::on(&tracer) } else { Ctx::off() };
        // A set-up shorter than SETUP_BLOCK is repeated until the block
        // is filled, so that µs-scale set-ups are timed above timer and
        // scheduler noise; setup_s is the mean of one set-up, in CPU time
        // converted to reference seconds like the throughput.
        let (t0, c0) = (Instant::now(), cpu_time());
        let mut setups = 0u32;
        let input = ctx.span("bench", "setup", |c| loop {
            let input = w.setup(args.seed, c);
            setups += 1;
            if t0.elapsed() >= SETUP_BLOCK {
                break input;
            }
        });
        let (t1, c1) = (Instant::now(), cpu_time());
        let output = ctx.span("bench", "iteration", |c| w.run(input, c));
        let (t2, c2) = (Instant::now(), cpu_time());
        // Host speed around the iteration: the mean of the calibrations
        // just before and just after it.
        let speed = calibrator.as_mut().map_or(0.0, |c| {
            let speed_after = c.measure(c2 - c1);
            let speed = (speed_before + speed_after) / 2.0 / CHUNKS_PER_REF_S;
            speed_before = speed_after;
            speed
        });
        let outcome = w.outcome(output);
        attempted += outcome.ops;
        errors += outcome.errors;
        match &reference {
            None => {
                peak_rss_mb = stats::peak_rss_mb();
                reference = Some(outcome);
                let mut c = Calibrator::default();
                speed_before = c.measure(c2 - c1);
                calibrator = Some(c);
            }
            Some(r) => {
                deterministic &= r.digest == outcome.digest;
                let samples = if on { &mut traced } else { &mut untraced };
                samples
                    .setup_s
                    .push((c1 - c0).as_secs_f64() * speed / f64::from(setups));
                let ops = outcome.ops as f64;
                samples.ops_per_s.push(ops / (t2 - t1).as_secs_f64());
                samples
                    .ops_per_ref_s
                    .push(ops / (c2 - c1).as_secs_f64() / speed);
                samples.host_speed.push(speed);
            }
        }
        iteration += 1;
    }
    let reference = reference.expect("at least one iteration ran");
    checks.extend(reference.checks.iter().cloned());
    checks.push(Check::new(
        "iterations reproduce the first digest",
        deterministic,
    ));
    checks.extend(w.final_checks(args.seed, &reference));
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    let attempted = attempted + checks.len() as u64;
    let failed = errors + failed_checks;
    // Simulated outcomes repeat exactly, so the share of failed operations
    // is that of the reference iteration plus the run's checks.
    let failed_share = share(
        (reference.errors + reference.refused + failed_checks) as f64,
        (reference.ops + checks.len() as u64) as f64,
    );

    println!(
        "workload {} seed {} iterations {} (1 warm-up, {} untraced) in {:.2} s; op = {}",
        args.workload,
        args.seed,
        iteration,
        untraced.ops_per_s.len(),
        started.elapsed().as_secs_f64(),
        W::OP
    );
    for c in &checks {
        println!("  check {:<4} {}", if c.ok { "ok" } else { "FAIL" }, c.name);
    }
    println!(
        "  failed_share {failed_share:.6}; ops_per_ref_s is {}_per_ref_s",
        W::RATE
    );
    println!(
        "  {}_per_host_s {:.1} at host speed {:.4} ref_s/s (medians)",
        W::RATE,
        median(&mut untraced.ops_per_s.clone()),
        median(&mut untraced.host_speed.clone())
    );
    for (name, value, unit) in &reference.headline {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    println!(
        "digest {} seed {} {:016x}",
        args.workload, args.seed, reference.digest
    );

    let mut written = true;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            written = false;
        }
        per_layer(&tracer, &reference, &mut untraced, &mut traced)
    } else {
        let values = [
            median(&mut untraced.setup_s),
            median(&mut untraced.ops_per_ref_s),
            peak_rss_mb,
            1.0 - failed_share,
            reference.sim_us_per_op,
            reference.sim_p99_us,
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    written
}

/// The per-layer metrics of a traced run: counters from the reference
/// outcome, host times from the spans of the traced iterations.
fn per_layer(
    tracer: &Tracer,
    reference: &Outcome,
    untraced: &mut Samples,
    traced: &mut Samples,
) -> Vec<(&'static str, f64, &'static str)> {
    use metrics::Source;
    for name in reference.layer.keys() {
        assert!(
            metrics::is_counter(name),
            "{name} is not a catalogued counter"
        );
    }
    let iterations = traced.ops_per_s.len().max(1) as f64;
    let self_ns = tracer.self_ns();
    metrics::PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let durations = |layer, span| -> Vec<f64> {
                tracer
                    .durations(layer, span)
                    .into_iter()
                    .map(|d| d as f64)
                    .collect()
            };
            let value = match source {
                Source::Counter => reference.layer.get(name).copied().unwrap_or(0.0),
                Source::Median(layer, span) => {
                    median(&mut durations(layer, span)) / metrics::ns_per_unit(unit)
                }
                Source::P99(layer, span) => {
                    stats::quantile(&mut durations(layer, span), 0.99) / metrics::ns_per_unit(unit)
                }
                Source::PerIteration(layer, span) => {
                    durations(layer, span).iter().fold(0.0, |a, d| a + d)
                        / iterations
                        / metrics::ns_per_unit(unit)
                }
                Source::SelfTime(layer) => {
                    self_ns.get(layer).copied().unwrap_or(0) as f64
                        / iterations
                        / metrics::ns_per_unit(unit)
                }
                Source::Overhead => {
                    let plain = median(&mut untraced.ops_per_ref_s);
                    let with_spans = median(&mut traced.ops_per_ref_s);
                    (share(plain, with_spans) - 1.0) * 100.0
                }
                Source::WallRate => median(&mut untraced.ops_per_s),
                Source::HostSpeed => median(&mut untraced.host_speed),
                Source::SpanCount => tracer.recorded() as f64 / iterations,
            };
            (name, value, unit)
        })
        .collect()
}
