//! `bench_coherence`: full `likwid-bench` store-coherence reports.
//!
//! One operation is the report of
//! `likwid-bench -t coherence -w <ws> -c S0:0-1@S1:0-1 -g MEM -W 1` on the
//! Nehalem EP node, rendered as ASCII and compared byte for byte with the
//! report built during set-up. Nearly all of its time is the sharded
//! replay of the coherence queue, with one simulation worker.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use likwid::report::{Ascii, Render, Report};
use likwid::trace;
use likwid_affinity::parse_pin_list_lenient;
use likwid_bench::microbench::{likwid_bench_report, likwid_bench_spec};
use likwid_cache_sim::{HierarchyConfig, NodeCacheSystem, NumaPolicy, ShardedCacheSystem};
use likwid_workloads::{Placement, StoreCoherence};
use likwid_x86_machine::{MachinePreset, SimMachine};

use crate::stats::{self, SplitMix};

const PRESET: MachinePreset = MachinePreset::NehalemEp2S;
/// Two hardware threads on each socket: one shard per socket.
const PIN_LIST: &str = "S0:0-1@S1:0-1";
/// Nominal per-thread private stream (16 MiB = 1024 rounds of 256 lines).
const NOMINAL_BYTES: u64 = 16 << 20;
/// Replays per timed ladder entry.
const LADDER_REPS: usize = 3;

static EQUIVALENCE_CHECKED: AtomicBool = AtomicBool::new(false);

/// The seed's working set: the nominal one shortened by up to 255 lines.
/// Every such size needs the same 1024 rounds, so the queue has the same
/// number of accesses and only the wrap point of the private streams moves.
pub fn working_set(seed: u64) -> u64 {
    NOMINAL_BYTES - 64 * SplitMix::new(seed, 1).below(256)
}

pub struct BenchCoherence {
    argv: Vec<String>,
    args: likwid::ParsedArgs,
    reference: String,
    report: Report,
    accesses: u64,
}

impl BenchCoherence {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let ws = working_set(seed);
        let argv: Vec<String> = [
            "-t",
            "coherence",
            "-w",
            &ws.to_string(),
            "-c",
            PIN_LIST,
            "-g",
            "MEM",
            "-W",
            "1",
            "--machine",
            PRESET.id(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = likwid_bench_spec().parse(&argv).map_err(|e| e.to_string())?;
        let report = likwid_bench_report(&args).map_err(|e| e.to_string())?;
        let reference = Ascii.render(&report);

        let machine = SimMachine::new(PRESET);
        let queue = StoreCoherence::new(ws, 1).replay_queue(&machine, &placement(&machine)?);
        if !EQUIVALENCE_CHECKED.swap(true, Ordering::Relaxed) {
            // The sharded engine must agree with the sequential drain of the
            // same queue, statistic for statistic. Checked in the first
            // set-up of a run only: it costs two more full replays.
            let hierarchy = hierarchy(&machine);
            let mut sequential = NodeCacheSystem::new(hierarchy.clone());
            sequential.replay(&queue);
            let mut sharded = ShardedCacheSystem::with_workers(hierarchy, 1);
            sharded.replay(&queue);
            if sharded.stats() != sequential.stats() {
                return Err("sharded NodeStats differ from the sequential drain".into());
            }
        }
        let accesses = queue.total_accesses();
        if !reference.contains(&format!("Iterations: {accesses}\n")) {
            return Err(format!("the report does not count the queue's {accesses} accesses"));
        }
        Ok(BenchCoherence { argv, args, reference, report, accesses })
    }
}

impl crate::Workload for BenchCoherence {
    fn op(&mut self) -> Result<(), String> {
        let report = likwid_bench_report(&self.args).map_err(|e| e.to_string())?;
        let text = {
            let _span = trace::span(trace::cat::BENCH, "render.ascii");
            Ascii.render(&report)
        };
        if text != self.reference {
            return Err("likwid-bench report differs from the set-up reference".into());
        }
        Ok(())
    }

    fn work_per_op(&self) -> f64 {
        self.accesses as f64
    }

    fn work_unit(&self) -> &'static str {
        "simulated accesses"
    }

    fn inputs(&self) -> String {
        format!("likwid-bench {}", self.argv.join(" "))
    }

    fn report(&self) -> &Report {
        &self.report
    }
}

fn placement(machine: &SimMachine) -> Result<Placement, String> {
    let cpus = parse_pin_list_lenient(PIN_LIST, machine.topology()).map_err(|e| e.to_string())?;
    Ok(Placement::pinned(cpus))
}

/// The hierarchy `StoreCoherence::run` simulates.
fn hierarchy(machine: &SimMachine) -> HierarchyConfig {
    HierarchyConfig::from_machine(
        machine,
        NumaPolicy::interleave_over(4096, machine.topology().sockets.max(1)),
    )
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    stats::median(&samples)
}

/// The cache-simulator rungs measured on this workload's queue.
pub fn ladder(seed: u64, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let machine = SimMachine::new(PRESET);
    let placement = placement(&machine)?;
    let kernel = StoreCoherence::new(working_set(seed), 1);
    out.insert(
        "cache_sim.queue_build_ms",
        median_ms(LADDER_REPS, || {
            let started = Instant::now();
            let queue = kernel.replay_queue(&machine, &placement);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            drop(queue);
            ms
        }),
    );
    let queue = kernel.replay_queue(&machine, &placement);
    let hierarchy = hierarchy(&machine);
    let mut epochs = (0, 0);
    let replay_ms = |workers: usize, epochs: &mut (u64, u64)| {
        median_ms(LADDER_REPS, || {
            let mut sys = ShardedCacheSystem::with_workers(hierarchy.clone(), workers);
            let started = Instant::now();
            sys.replay(&queue);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            *epochs = (sys.epochs_parallel(), sys.epochs_serial());
            ms
        })
    };
    let one = replay_ms(1, &mut epochs);
    let mut epochs_w2 = (0, 0);
    let two = replay_ms(2, &mut epochs_w2);
    if epochs != epochs_w2 {
        return Err(format!(
            "epoch classification depends on workers: {epochs:?} vs {epochs_w2:?}"
        ));
    }
    out.insert("cache_sim.replay_ms", one);
    out.insert("cache_sim.replay_speedup_w2", one / two);
    out.insert("cache_sim.epochs_parallel", epochs.0 as f64);
    out.insert("cache_sim.epochs_serial", epochs.1 as f64);
    Ok(())
}
