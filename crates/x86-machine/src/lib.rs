//! Simulated x86 multicore machine substrate.
//!
//! The LIKWID tool suite talks to the hardware through exactly three
//! interfaces: the `cpuid` instruction, the model-specific registers exposed
//! by the Linux `msr` module, and the operating system's notion of hardware
//! threads. This crate provides a faithful software model of those
//! interfaces for a family of machine presets (Intel Core 2, Nehalem EP,
//! Westmere EP, Atom, Pentium M and AMD K8/K10), so that the tools in the
//! `likwid` crate can be developed, tested and benchmarked without root
//! access or specific silicon.
//!
//! The central type is [`SimMachine`]: a node-level model holding the thread
//! and cache topology, one MSR register file per hardware thread, and the
//! per-package feature state (`IA32_MISC_ENABLE`, prefetcher switches, …).
//! [`SimMachine::cpuid`] returns bit-exact register images for the leaves the
//! real tool decodes, and [`SimMachine::msr`] hands out `/dev/cpu/*/msr`-like
//! device handles.

pub mod apic;
pub mod cache;
pub mod clock;
pub mod cpuid;
pub mod error;
pub mod fault;
pub mod features;
pub mod machine;
pub mod msr;
pub mod presets;
pub mod topology;
pub mod vendor;

pub use cache::{CacheKind, CacheSpec};
pub use clock::ClockDomain;
pub use cpuid::{CpuidLeaf, CpuidResult};
pub use error::{MachineError, Result};
pub use fault::{FaultPlan, TransientSpec, MAX_CONSECUTIVE_LIMIT};
pub use features::{CpuFeature, FeatureState, MiscEnable, Prefetcher};
pub use machine::SimMachine;
pub use msr::{Msr, MsrDevice, MsrFile, MsrPermission, MsrSpace};
pub use presets::MachinePreset;
pub use topology::{HwThread, HwThreadId, NumaNode, TopologySpec};
pub use vendor::{Microarch, Vendor};
