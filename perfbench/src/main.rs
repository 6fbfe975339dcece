//! `perfbench`: the suite's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <bench_coherence|fleet_sweep|daemon_stream> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process calls each layer's public functions. The seed generates the
//! workload's inputs; the program under test only sees those inputs.
//!
//! * `--trace 0` (gated mode): set the workload up several times, then run
//!   operations in a closed loop for `--seconds`, checking every output.
//!   Prints the end-to-end metrics.
//! * `--trace 1` (ladder mode): alternate untraced and traced operations of
//!   the same workload (tracing overhead, span rollup, unattributed share),
//!   then time the calls into every layer on inputs generated from the same
//!   seed. Prints the per-layer metrics.
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod coherence;
mod daemon;
mod fleet;
mod host;
mod ladder;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use likwid::trace;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Set-up repetitions of a gated run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Operations run even when `--seconds` is shorter than they take.
const MIN_OPS: usize = 5;
/// Scratch space for sockets and memo stores, relative to the working
/// directory (the checkout root) and removed before exit.
const TMP_ROOT: &str = "perfbench-tmp";

/// One set-up workload, driven by the measurement loop.
pub trait Workload {
    /// Run one operation and check its output; `Err` describes the mismatch.
    fn op(&mut self) -> Result<(), String>;
    /// Untimed work after each operation (cleanup, fresh connections).
    fn after_op(&mut self) {}
    /// Units of work one operation completes.
    fn work_per_op(&self) -> f64;
    /// Name of that unit of work.
    fn work_unit(&self) -> &'static str;
    /// The seed-generated inputs, for the log.
    fn inputs(&self) -> String;
    /// The workload's own report document (the rendering ladder times it).
    fn report(&self) -> &likwid::Report;
    /// Ungated numbers printed beside the gated ones: `(name, value, unit)`.
    fn extras(&self) -> Vec<(String, f64, &'static str)> {
        Vec::new()
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BenchCoherence,
    FleetSweep,
    DaemonStream,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "bench_coherence" => Some(Kind::BenchCoherence),
            "fleet_sweep" => Some(Kind::FleetSweep),
            "daemon_stream" => Some(Kind::DaemonStream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::BenchCoherence => "bench_coherence",
            Kind::FleetSweep => "fleet_sweep",
            Kind::DaemonStream => "daemon_stream",
        }
    }

    fn setup(self, seed: u64, tmp: &Path) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::BenchCoherence => Box::new(coherence::BenchCoherence::setup(seed)?),
            Kind::FleetSweep => Box::new(fleet::FleetSweep::setup(seed, tmp)?),
            Kind::DaemonStream => Box::new(daemon::DaemonStream::setup(seed, tmp)?),
        })
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} value '{value}'"));
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return Err(format!("bad --trace value '{value}' (0 or 1)")),
            },
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: traced.unwrap_or(false),
    })
}

/// A metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Operation outcomes of a measurement loop.
#[derive(Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Outcomes {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

fn main() -> ExitCode {
    host::fix_malloc_thresholds();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(TMP_ROOT).join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&tmp)
        .map_err(|e| format!("create {}: {e}", tmp.display()))
        .and_then(|_| run(&args, &tmp));
    let _ = std::fs::remove_dir_all(&tmp);
    // Leave the shared root only when no concurrent run still uses it.
    let _ = std::fs::remove_dir(TMP_ROOT);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, tmp: &Path) -> Result<String, String> {
    let host_start = host::Counters::sample();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Duration::from_secs(args.seconds);
    let (outcomes, metrics) = if args.trace {
        let mut workload = args.kind.setup(args.seed, tmp)?;
        traced_run(args, workload.as_mut(), budget, tmp)?
    } else {
        gated_run(args, tmp, budget)?
    };
    println!("host {}", host::fingerprint(&host_start));
    if let Some(e) = &outcomes.first_error {
        println!("first failed check: {e}");
    }
    let mut members = Vec::new();
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        members
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.failed == 0,
        outcomes.attempted,
        outcomes.failed,
        members.join(", ")
    ))
}

/// Gated mode: the end-to-end metrics, tracing off.
fn gated_run(args: &Args, tmp: &Path, budget: Duration) -> Result<(Outcomes, Vec<Metric>), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous instance down first: the daemon's server
        // thread and the memo directories must not overlap.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(args.kind.setup(args.seed, tmp)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");

    let mut outcomes = Outcomes::default();
    let mut op_ms = Vec::new();
    let deadline = Instant::now() + budget;
    while op_ms.len() < MIN_OPS || Instant::now() < deadline {
        let started = Instant::now();
        let result = workload.op();
        op_ms.push(started.elapsed().as_secs_f64() * 1e3);
        workload.after_op();
        outcomes.record(result);
    }

    let setup_median = stats::median(&setup_s);
    let op_p50 = stats::median(&op_ms);
    let work_per_s = workload.work_per_op() / (op_p50 / 1e3);
    let ok_ratio = (outcomes.attempted - outcomes.failed) as f64 / outcomes.attempted as f64;
    println!("inputs: {}", workload.inputs());
    println!("work unit: {} ({} per op)", workload.work_unit(), workload.work_per_op());
    for (name, value, unit) in workload.extras() {
        println!("extra {name} {value} {unit}");
    }
    drop(workload);
    println!("peak_rss_mb {} (resident; varies with allocator arenas)", host::peak_rss_mb()?);

    let n = op_ms.len();
    let tail = stats::tail_percentile(n);
    println!("ops {n} (closed loop, after {SETUP_REPS} set-ups)");
    println!(
        "op_ms min {:.3} p10 {:.3} p25 {:.3} p50 {op_p50:.3} p{:.0} {:.3} max {:.3}",
        stats::percentile(&op_ms, 0.0),
        stats::percentile(&op_ms, 0.1),
        stats::percentile(&op_ms, 0.25),
        tail * 100.0,
        stats::percentile(&op_ms, tail),
        stats::percentile(&op_ms, 1.0)
    );
    println!("setup_s samples {setup_s:?}");
    println!("error_rate {}", outcomes.failed as f64 / outcomes.attempted as f64);
    let metrics = vec![
        Metric { name: "op_p50_ms", value: op_p50, unit: "ms" },
        Metric { name: "work_per_s", value: work_per_s, unit: "1/s" },
        Metric { name: "peak_heap_mb", value: host::peak_heap_mb(), unit: "MB" },
        Metric { name: "ok_ratio", value: ok_ratio, unit: "ratio" },
        Metric { name: "setup_s", value: setup_median, unit: "s" },
    ];
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    Ok((outcomes, metrics))
}

/// Ladder mode: tracing overhead, span rollup and the per-layer metrics.
fn traced_run(
    args: &Args,
    workload: &mut dyn Workload,
    budget: Duration,
    tmp: &Path,
) -> Result<(Outcomes, Vec<Metric>), String> {
    let mut outcomes = Outcomes::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut rollup = spans::Rollup::default();
    let deadline = Instant::now() + budget;
    // Alternate untraced and traced operations, so host drift over the run
    // lands on both sides of the overhead difference alike.
    while traced_ms.len() < MIN_OPS || Instant::now() < deadline {
        let started = Instant::now();
        let result = workload.op();
        plain_ms.push(started.elapsed().as_secs_f64() * 1e3);
        workload.after_op();
        outcomes.record(result);

        trace::start();
        let window_start = trace::now();
        let started = Instant::now();
        let result = workload.op();
        traced_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let window_end = trace::now();
        workload.after_op();
        rollup.add(&trace::stop(), window_start, window_end);
        outcomes.record(result);
    }
    let overhead_ms = stats::median(&traced_ms) - stats::median(&plain_ms);
    println!(
        "ops {} untraced (p50 {:.3} ms) and {} traced (p50 {:.3} ms), alternating",
        plain_ms.len(),
        stats::median(&plain_ms),
        traced_ms.len(),
        stats::median(&traced_ms)
    );
    rollup.print();

    let mut values = ladder::run(args.kind, args.seed, workload, tmp)?;
    values.insert("trace.unattributed_share", rollup.unattributed_share());
    values.insert("trace.overhead_ms", overhead_ms);
    let mut metrics = Vec::new();
    for layer in ladder::LAYER_METRICS {
        let value = *values
            .get(layer.name)
            .ok_or_else(|| format!("the ladder did not measure {}", layer.name))?;
        println!("layer {:<36} {:>16.6} {:<6} -> {}", layer.name, value, layer.unit, layer.maps_to);
        metrics.push(Metric { name: layer.name, value, unit: layer.unit });
    }
    Ok((outcomes, metrics))
}
