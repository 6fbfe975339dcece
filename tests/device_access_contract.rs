//! The counter path may get cheaper, never chattier: how many
//! device-mediated (`MsrDevice`) accesses a daemon session makes is part of
//! its contract, because a fault plan sees every one of them — the
//! `dead=cpu@budget` fault fires on a cpu's `budget + 1`-th access, so
//! adding, dropping or reordering a single access moves where a degraded
//! run degrades. Machine-internal accesses (event credit, wide shadows) are
//! invisible to fault plans and are not counted.
//!
//! Accesses are counted through the public fault interface only: the
//! smallest dead-cpu budget a session survives without dropping that cpu
//! is exactly the number of device accesses the session made on it.

use likwid_suite::daemon::{Daemon, OpenRequest};
use likwid_suite::x86_machine::{FaultPlan, MachinePreset, SimMachine};

/// A two-cpu `FLOPS_DP` daemon session of four 1 ms intervals.
fn flops_dp_request() -> OpenRequest {
    OpenRequest {
        machine: None,
        cpus: "0,1".to_string(),
        group: "FLOPS_DP".to_string(),
        interval: "1ms".to_string(),
        duration: "4ms".to_string(),
    }
}

/// Run the session to completion with `cpu` dying after `budget` device
/// accesses; whether the session had to drop that cpu.
fn session_drops_cpu(preset: MachinePreset, cpu: usize, budget: u64) -> bool {
    let machine = SimMachine::new(preset);
    machine.inject_faults(FaultPlan { dead: vec![(cpu, budget)], ..FaultPlan::default() });
    let daemon = Daemon::new(&machine);
    let mut handle = daemon.open(&flops_dp_request()).expect("session admitted");
    while handle.next_interval().expect("a dead cpu degrades, never fails").is_some() {}
    let (_, result) = handle.finish().expect("finish");
    let subject = format!("cpu {cpu}");
    result.aggregate_results.iter().any(|r| r.diagnostics.iter().any(|d| d.subject == subject))
}

/// The number of device accesses the session makes on `cpu`: the smallest
/// budget it survives (dropping the cpu is monotone in the budget).
fn device_accesses(preset: MachinePreset, cpu: usize) -> u64 {
    let mut high = 1;
    while session_drops_cpu(preset, cpu, high) {
        high *= 2;
    }
    let mut low = 0;
    // Invariant: `low` drops the cpu (or is 0), `high` does not.
    while high - low > 1 {
        let mid = low + (high - low) / 2;
        if session_drops_cpu(preset, cpu, mid) {
            low = mid;
        } else {
            high = mid;
        }
    }
    if low == 0 && !session_drops_cpu(preset, cpu, 0) {
        0
    } else {
        high
    }
}

#[test]
fn a_flops_dp_daemon_session_makes_a_pinned_number_of_device_accesses() {
    // Opening programs and verifies the group; every interval resumes
    // (reprogram, verify, start), reads, stops, reads again and suspends
    // (reprogram, verify). Both cpus run the same sequence.
    for (preset, expected) in [(MachinePreset::WestmereEp2S, 286), (MachinePreset::Core2Quad, 250)]
    {
        let counted: Vec<u64> = (0..2).map(|cpu| device_accesses(preset, cpu)).collect();
        assert_eq!(counted, vec![expected; 2], "{}", preset.id());
    }
}
