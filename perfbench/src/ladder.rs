//! The per-layer ladder: one number per layer of the stack.
//!
//! Every rung times calls into one layer's public functions on inputs
//! generated from the run's seed. A traced run of any workload measures
//! every rung (each on the inputs of the workload it maps to), so the
//! per-layer metric set is the same for all workloads; only the report
//! rendering rungs and the two `trace.*` numbers are of the traced workload
//! itself.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use likwid::perfctr::timeline::demo_slice;
use likwid::perfctr::{parse_measurement_spec, PerfCtr, PerfCtrConfig, TimelineSession};
use likwid::report::{Ascii, Csv, Json, Render, Report};
use likwid_perf_events::{CounterSlot, EventEngine, PerfMon};
use likwid_x86_machine::{MachinePreset, Msr, MsrPermission, SimMachine};

use crate::stats;
use crate::{coherence, daemon, fleet, Kind, Workload};

/// One per-layer metric: its name, unit, and the end-to-end metric and
/// workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub maps_to: &'static str,
}

const fn rung(name: &'static str, unit: &'static str, maps_to: &'static str) -> LayerMetric {
    LayerMetric { name, unit, maps_to }
}

/// Every per-layer metric, in print order (`BENCHMARK.json` lists the same).
pub const LAYER_METRICS: &[LayerMetric] = &[
    rung("cache_sim.replay_ms", "ms", "bench_coherence/op_p50_ms, work_per_s"),
    rung("cache_sim.queue_build_ms", "ms", "bench_coherence/op_p50_ms"),
    rung("cache_sim.epochs_parallel", "count", "bench_coherence (exact; speed changes keep it)"),
    rung("cache_sim.epochs_serial", "count", "bench_coherence (exact; speed changes keep it)"),
    rung("cache_sim.replay_speedup_w2", "ratio", "ungated: 2 workers over 1"),
    rung("cache_sim.hierarchy_new_us", "us", "fleet_sweep/work_per_s"),
    rung("cache_sim.host_ns_per_access", "ns", "fleet_sweep/work_per_s"),
    rung("workloads.sample_ms", "ms", "fleet_sweep/work_per_s"),
    rung("workloads.experiment_overhead_ms", "ms", "fleet_sweep/work_per_s"),
    rung(
        "core.perfctr.session_setup_us",
        "us",
        "fleet_sweep/work_per_s; daemon_stream/work_per_s (once per session)",
    ),
    rung("core.timeline.tick_us", "us", "daemon_stream/op_p50_ms (interval gap)"),
    rung("core.report.render_us.ascii", "us", "bench_coherence, fleet_sweep/op_p50_ms"),
    rung("core.report.render_us.csv", "us", "bench_coherence, fleet_sweep/op_p50_ms"),
    rung("core.report.render_us.json", "us", "bench_coherence, fleet_sweep/op_p50_ms"),
    rung("core.report.from_json_us", "us", "ungated baseline"),
    rung("perf_events.perfmon_read_ns", "ns", "daemon_stream/op_p50_ms (interval gap)"),
    rung("perf_events.engine_apply_us", "us", "daemon_stream/op_p50_ms (interval gap)"),
    rung("x86_machine.msr_op_ns", "ns", "daemon_stream/op_p50_ms (interval gap)"),
    rung("daemon.frame_encode_us", "us", "daemon_stream/work_per_s"),
    rung("daemon.frame_decode_us", "us", "daemon_stream/work_per_s"),
    rung("daemon.turn_wait_us", "us", "daemon_stream/op_p50_ms (interval gap)"),
    rung("daemon.open_ms", "ms", "ungated: too noisy to gate"),
    rung("fleet.expand_us", "us", "fleet_sweep/setup_s"),
    rung("fleet.memo_store_us", "us", "fleet_sweep/work_per_s"),
    rung("fleet.report_ms", "ms", "fleet_sweep/op_p50_ms"),
    rung("fleet.memo_lookup_us", "us", "ungated: warm sweeps"),
    rung("fleet.memo_hit_ratio", "ratio", "ungated: must be 1"),
    rung("fleet.sched_speedup_w2", "ratio", "ungated: 2 workers over 1"),
    rung("trace.unattributed_share", "ratio", "traced workload: wall time no span covers"),
    rung("trace.overhead_ms", "ms", "traced workload/op_p50_ms, traced minus untraced"),
];

const PRESET: MachinePreset = MachinePreset::NehalemEp2S;
/// Calls per batch of the nanosecond-scale rungs.
const BATCH: u32 = 20_000;

/// Measure every rung except the two `trace.*` numbers.
pub fn run(
    kind: Kind,
    seed: u64,
    workload: &dyn Workload,
    tmp: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    coherence::ladder(seed, &mut out)?;
    fleet::ladder(seed, tmp, &mut out)?;
    daemon::ladder(seed, &mut out)?;
    counter_rungs(&mut out)?;
    report_rungs(workload.report(), &mut out)?;
    println!("ladder measured on seed {seed}; report rungs on the {} report", kind.name());
    Ok(out)
}

fn median_of<T>(reps: usize, mut f: impl FnMut() -> Result<f64, T>) -> Result<f64, T> {
    let samples = (0..reps).map(|_| f()).collect::<Result<Vec<f64>, T>>()?;
    Ok(stats::median(&samples))
}

fn us_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// Counter session set-up, timeline ticks, event credit, `PerfMon` reads
/// and raw MSR device accesses on the Nehalem EP node.
fn counter_rungs(out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let machine = SimMachine::new(PRESET);
    let table = likwid_perf_events::tables::for_arch(machine.arch());
    let spec = |group: &str| parse_measurement_spec(group, &table).map_err(|e| e.to_string());

    // The fleet points' `-g MEM` session on one thread pair per socket.
    let mem = spec("MEM")?;
    out.insert(
        "core.perfctr.session_setup_us",
        median_of(50, || {
            let config = PerfCtrConfig { cpus: vec![0, 1, 4, 5], spec: mem.clone() };
            let started = Instant::now();
            let session = PerfCtr::new(&machine, config).map_err(|e| e.to_string())?;
            let us = us_since(started);
            drop(session);
            Ok::<f64, String>(us)
        })?,
    );

    // The daemon sessions' timeline: credit a demo slice, close the interval.
    let cpus = vec![0, 1, 2, 3];
    let config = PerfCtrConfig { cpus: cpus.clone(), spec: spec("FLOPS_DP")? };
    let mut session = TimelineSession::new(&machine, config, 1e-3).map_err(|e| e.to_string())?;
    session.start().map_err(|e| e.to_string())?;
    let engine = EventEngine::new(&machine);
    let (mut apply_us, mut tick_us) = (Vec::new(), Vec::new());
    for i in 0..500 {
        let t0 = i as f64 * 1e-3;
        let sample = demo_slice(&machine, &cpus, t0, t0 + 1e-3);
        let started = Instant::now();
        engine.apply(&machine, &sample);
        apply_us.push(us_since(started));
        let started = Instant::now();
        session.tick(1e-3).map_err(|e| e.to_string())?;
        tick_us.push(us_since(started));
    }
    out.insert("perf_events.engine_apply_us", stats::median(&apply_us));
    out.insert("core.timeline.tick_us", stats::median(&tick_us));
    drop(session);

    let perfmon = PerfMon::new(&machine, &cpus).map_err(|e| format!("{e:?}"))?;
    out.insert(
        "perf_events.perfmon_read_ns",
        median_of(5, || {
            let started = Instant::now();
            for _ in 0..BATCH {
                black_box(perfmon.read(0, CounterSlot::Pmc(0))?);
            }
            Ok(started.elapsed().as_secs_f64() * 1e9 / f64::from(BATCH))
        })
        .map_err(|e: likwid_perf_events::PerfMonError| format!("{e:?}"))?,
    );

    let device = machine.msr(0, MsrPermission::ReadWrite).map_err(|e| e.to_string())?;
    out.insert(
        "x86_machine.msr_op_ns",
        median_of(5, || {
            let started = Instant::now();
            for i in 0..BATCH / 2 {
                let value = device.read(Msr::IA32_PMC0)?;
                device.write(Msr::IA32_PMC0, black_box(value + u64::from(i & 1)))?;
            }
            device.write(Msr::IA32_PMC0, 0)?;
            Ok(started.elapsed().as_secs_f64() * 1e9 / f64::from(BATCH))
        })
        .map_err(|e: likwid_x86_machine::MachineError| e.to_string())?,
    );
    Ok(())
}

/// Render the traced workload's own report in each format, and parse the
/// JSON rendering back.
fn report_rungs(report: &Report, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let renderers: [(&'static str, &dyn Render); 3] = [
        ("core.report.render_us.ascii", &Ascii),
        ("core.report.render_us.csv", &Csv),
        ("core.report.render_us.json", &Json),
    ];
    for (name, renderer) in renderers {
        let us = median_of(20, || {
            let started = Instant::now();
            black_box(renderer.render(report));
            Ok::<f64, String>(us_since(started))
        })?;
        out.insert(name, us);
    }
    let json = Json.render(report);
    out.insert(
        "core.report.from_json_us",
        median_of(20, || {
            let started = Instant::now();
            let parsed = Report::from_json(&json)?;
            let us = us_since(started);
            if &parsed != report {
                return Err("the report does not survive a JSON round trip".to_string());
            }
            Ok(us)
        })?,
    );
    Ok(())
}
