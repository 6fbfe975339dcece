//! `fleet_sweep`: cold `likwid-fleet` sweeps of many small points.
//!
//! One operation runs the sweep with one scheduler worker into a fresh memo
//! store (so every point executes and writes its memo entry), then builds
//! and renders the cross-point report and encodes the trajectory. Both must
//! match the set-up reference byte for byte, with no point errors.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use likwid::report::{Ascii, Render, Report};
use likwid::trace;
use likwid_cache_sim::{AccessKind, HierarchyConfig, NodeCacheSystem, NumaPolicy};
use likwid_fleet::{
    fleet_report, run_sweep, MemoStore, PlacementAxis, PrefetcherState, RunOptions, SeedRule,
    SweepOutcome, SweepSpec, ThreadsAxis, Trajectory, WorkloadSpec,
};
use likwid_workloads::{JacobiVariant, Placement, Workload, WorkloadRun};
use likwid_x86_machine::{MachinePreset, SimMachine};

use crate::stats::{self, SplitMix};

const PRESET: MachinePreset = MachinePreset::NehalemEp2S;
const THREADS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Streaming kernels of the sweep: `(name, nominal working set)`.
const KERNELS: [(&str, u64); 4] =
    [("copy", 64 << 10), ("copy", 256 << 10), ("triad", 64 << 10), ("triad", 256 << 10)];
const CHASE_BYTES: u64 = 64 << 10;
const JACOBI_SIZE: usize = 24;
const JACOBI_STEPS: usize = 2;

/// The seed's sweep. Working sets shrink by up to seven lines from their
/// nominal sizes (the work per point stays within one percent); the seed
/// also drives the unpinned placements.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    let mut rng = SplitMix::new(seed, 2);
    let mut jitter = |bytes: u64| bytes - 64 * rng.below(8);
    let mut workloads: Vec<WorkloadSpec> = KERNELS
        .iter()
        .map(|&(name, bytes)| WorkloadSpec::Kernel {
            name: name.to_string(),
            working_set_bytes: jitter(bytes),
            passes: 1,
        })
        .collect();
    workloads.push(WorkloadSpec::Kernel {
        name: "chase".to_string(),
        working_set_bytes: jitter(CHASE_BYTES),
        passes: 1,
    });
    workloads.push(WorkloadSpec::Jacobi {
        variant: JacobiVariant::Threaded,
        size: JACOBI_SIZE,
        time_steps: JACOBI_STEPS,
    });
    let mut spec = SweepSpec::new(workloads[0].clone(), PRESET);
    spec.workloads = workloads;
    spec.placements = vec![PlacementAxis::Scatter, PlacementAxis::Unpinned];
    spec.prefetchers = vec![PrefetcherState::Enabled, PrefetcherState::Disabled];
    spec.threads = ThreadsAxis::Counts(THREADS.to_vec());
    spec.counters = Some("MEM".to_string());
    spec.seed = SeedRule::Fixed(seed);
    spec
}

pub struct FleetSweep {
    spec: SweepSpec,
    memo_root: PathBuf,
    ops: u64,
    reference: (String, String),
    report: Report,
    points: usize,
}

impl FleetSweep {
    pub fn setup(seed: u64, tmp: &Path) -> Result<Self, String> {
        let spec = sweep_spec(seed);
        let points = spec.expand().map_err(|e| e.to_string())?.len();
        let mut sweep = FleetSweep {
            spec,
            memo_root: tmp.join("fleet-memo"),
            ops: 0,
            reference: (String::new(), String::new()),
            report: Report::new("likwid-fleet"),
            points,
        };
        let (report, outputs) = sweep.cold_sweep()?;
        sweep.after_cold_sweep();
        sweep.report = report;
        sweep.reference = outputs;
        Ok(sweep)
    }

    /// One cold sweep: its report and `(rendered report, trajectory)`.
    fn cold_sweep(&mut self) -> Result<(Report, (String, String)), String> {
        let memo = MemoStore::open(self.memo_dir(), None);
        let opts = RunOptions { workers: 1, memo: Some(&memo), daemons: &[] };
        let outcome = run_sweep(&self.spec, &opts).map_err(|e| e.to_string())?;
        check_outcome(&outcome, self.points)?;
        let report = {
            let _span = trace::span(trace::cat::BENCH, "fleet_report");
            fleet_report(&self.spec, &outcome)
        };
        let text = {
            let _span = trace::span(trace::cat::BENCH, "render.ascii");
            Ascii.render(&report)
        };
        let trajectory = {
            let _span = trace::span(trace::cat::BENCH, "trajectory.encode");
            Trajectory::from_outcome(&outcome).encode()
        };
        Ok((report, (text, trajectory)))
    }

    fn memo_dir(&self) -> PathBuf {
        self.memo_root.join(self.ops.to_string())
    }

    fn after_cold_sweep(&mut self) {
        let _ = std::fs::remove_dir_all(self.memo_dir());
        self.ops += 1;
    }
}

/// A cold sweep executes every point, and none may fail.
fn check_outcome(outcome: &SweepOutcome, points: usize) -> Result<(), String> {
    let stats = &outcome.stats;
    if let Some((point, Err(e))) = outcome.points.iter().find(|(_, r)| r.is_err()) {
        return Err(format!("point {} {}: {}", point.key(), e.status(), e.message()));
    }
    if stats.total != points
        || stats.executed != points
        || stats.memo_hits != 0
        || stats.errors != 0
    {
        return Err(format!("cold sweep of {points} points: {}", stats.summary_line()));
    }
    Ok(())
}

impl Drop for FleetSweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.memo_root);
    }
}

impl crate::Workload for FleetSweep {
    fn op(&mut self) -> Result<(), String> {
        let (_, outputs) = self.cold_sweep()?;
        if outputs.0 != self.reference.0 {
            return Err("fleet report differs from the set-up reference".into());
        }
        if outputs.1 != self.reference.1 {
            return Err("trajectory differs from the set-up reference".into());
        }
        Ok(())
    }

    fn after_op(&mut self) {
        self.after_cold_sweep();
    }

    fn work_per_op(&self) -> f64 {
        self.points as f64
    }

    fn work_unit(&self) -> &'static str {
        "sweep points"
    }

    fn inputs(&self) -> String {
        let workloads: Vec<String> = self.spec.workloads.iter().map(|w| w.canonical()).collect();
        format!(
            "{} x scatter/unpinned x pf-on/off x threads {THREADS:?}, -g MEM",
            workloads.join(" ")
        )
    }

    fn report(&self) -> &Report {
        &self.report
    }
}

/// A workload wrapper that clocks [`Workload::run`] inside the harness.
struct Timed<'a> {
    inner: &'a dyn Workload,
    run_s: Cell<f64>,
}

impl Workload for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn flops_per_iteration(&self) -> f64 {
        self.inner.flops_per_iteration()
    }

    fn bytes_per_iteration(&self) -> f64 {
        self.inner.bytes_per_iteration()
    }

    fn working_set_bytes(&self) -> u64 {
        self.inner.working_set_bytes()
    }

    fn run(&self, machine: &SimMachine, placement: &Placement) -> WorkloadRun {
        let started = Instant::now();
        let run = self.inner.run(machine, placement);
        self.run_s.set(self.run_s.get() + started.elapsed().as_secs_f64());
        run
    }
}

fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// The workload, cache-simulator and fleet rungs measured on this sweep.
pub fn ladder(seed: u64, tmp: &Path, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let spec = sweep_spec(seed);
    let expand_us: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let points = spec.expand();
            let us = elapsed_us(started);
            drop(points);
            us
        })
        .collect();
    out.insert("fleet.expand_us", stats::median(&expand_us));
    let points = spec.expand().map_err(|e| e.to_string())?;

    // Experiment::run per point, with Workload::run clocked inside it.
    let (mut sample_s, mut overhead_s) = (0.0, 0.0);
    for point in &points {
        let (exp, workload) = point.build().map_err(|e| e.to_string())?;
        let timed = Timed { inner: workload.as_ref(), run_s: Cell::new(0.0) };
        let started = Instant::now();
        exp.run(&timed).map_err(|e| e.to_string())?;
        let total = started.elapsed().as_secs_f64();
        sample_s += timed.run_s.get();
        overhead_s += total - timed.run_s.get();
    }
    let n = points.len() as f64;
    out.insert("workloads.sample_ms", sample_s / n * 1e3);
    out.insert("workloads.experiment_overhead_ms", overhead_s / n * 1e3);

    // Scheduler: one worker against two, alternating, no memo store.
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut outcome = None;
    for _ in 0..2 {
        for (workers, times) in [(1, &mut one), (2, &mut two)] {
            let opts = RunOptions { workers, memo: None, daemons: &[] };
            let started = Instant::now();
            let result = run_sweep(&spec, &opts).map_err(|e| e.to_string())?;
            times.push(started.elapsed().as_secs_f64());
            check_outcome(&result, points.len())
                .map_err(|e| e.replace("cold sweep", "memo-less sweep"))?;
            outcome = Some(result);
        }
    }
    out.insert("fleet.sched_speedup_w2", stats::median(&one) / stats::median(&two));
    let outcome = outcome.expect("the sweep ran");

    let report_ms: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let report = fleet_report(&spec, &outcome);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            drop(report);
            ms
        })
        .collect();
    out.insert("fleet.report_ms", stats::median(&report_ms));

    // Memo store: write every point once, then look every point up.
    let store = MemoStore::open(tmp.join("ladder-memo"), None);
    let (mut store_us, mut lookup_us, mut hits) = (0.0, 0.0, 0usize);
    for (point, result) in &outcome.points {
        let result = result.as_ref().map_err(|e| e.message().to_string())?;
        let started = Instant::now();
        store.store(point, result).map_err(|e| format!("memo store: {e}"))?;
        store_us += elapsed_us(started);
    }
    for (point, result) in &outcome.points {
        let started = Instant::now();
        let found = store.lookup(point);
        lookup_us += elapsed_us(started);
        hits += usize::from(found.as_ref() == result.as_ref().ok());
    }
    let _ = std::fs::remove_dir_all(store.root());
    out.insert("fleet.memo_store_us", store_us / n);
    out.insert("fleet.memo_lookup_us", lookup_us / n);
    out.insert("fleet.memo_hit_ratio", hits as f64 / n);

    hierarchy_and_access_rungs(&spec, out);
    Ok(())
}

/// Lines per block of the streaming kernels' blocked loop.
const BLOCK_LINES: u64 = 64;
/// Byte gap between the arrays of a streaming kernel.
const ARRAY_GAP: u64 = 1 << 21;
/// Passes over each kernel stream in the access rung.
const ACCESS_PASSES: u64 = 20;

/// `HierarchyConfig::from_machine` + `NodeCacheSystem::new` per point, and
/// the flat engine's host time per access on the sweep's kernel streams:
/// each copy/triad working set streamed by one thread in line blocks,
/// loads of the read arrays followed by the store array, as the kernels
/// issue them.
fn hierarchy_and_access_rungs(spec: &SweepSpec, out: &mut BTreeMap<&'static str, f64>) {
    let machine = SimMachine::new(PRESET);
    let new_us: Vec<f64> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let hierarchy =
                HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: 0 });
            let sys = NodeCacheSystem::new(hierarchy);
            let us = elapsed_us(started);
            drop(sys);
            us
        })
        .collect();
    out.insert("cache_sim.hierarchy_new_us", stats::median(&new_us));

    let (mut accesses, mut host_s) = (0u64, 0.0);
    for workload in &spec.workloads {
        let WorkloadSpec::Kernel { name, working_set_bytes, .. } = workload else { continue };
        let read_streams = match name.as_str() {
            "copy" => 1,
            "triad" => 2,
            _ => continue,
        };
        let arrays = read_streams + 1;
        let lines = ((working_set_bytes / (8 * arrays)) & !7).max(8) / 8;
        let base = |array: u64| array * (lines * 64 + ARRAY_GAP);
        let hierarchy =
            HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: 0 });
        let mut sys = NodeCacheSystem::new(hierarchy);
        let started = Instant::now();
        for _ in 0..ACCESS_PASSES {
            let mut block = 0;
            while block < lines {
                let count = BLOCK_LINES.min(lines - block);
                for array in 0..arrays {
                    let kind =
                        if array < read_streams { AccessKind::Load } else { AccessKind::Store };
                    sys.access_run(0, base(array) + block * 64, 64, count, 64, kind);
                }
                accesses += count * arrays;
                block += count;
            }
        }
        host_s += started.elapsed().as_secs_f64();
    }
    out.insert("cache_sim.host_ns_per_access", host_s * 1e9 / accesses.max(1) as f64);
}
