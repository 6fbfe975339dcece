//! Property-based tests over the substrate crates: invariants that must
//! hold for arbitrary inputs, not just the machines of the paper.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use likwid_suite::affinity::{parse_pin_list, PthreadPinner, SkipMask};
use likwid_suite::cache_sim::{
    Access, AccessKind, CacheLevelConfig, HierarchyConfig, NodeCacheSystem, NumaPolicy,
    PrefetchConfig, ReplacementPolicy, WritePolicy,
};
use likwid_suite::likwid::perfctr::Formula;
use likwid_suite::likwid::topology::CpuTopology;
use likwid_suite::x86_machine::msr::{register_map, MsrDescriptor, MsrScope, MsrSpace};
use likwid_suite::x86_machine::topology::EnumerationOrder;
use likwid_suite::x86_machine::{MachineError, MachinePreset, Microarch, SimMachine, TopologySpec};

/// A small synthetic hierarchy for property runs.
fn tiny_hierarchy(prefetch_on: bool) -> HierarchyConfig {
    let level = |level, sets, ways, shared| CacheLevelConfig {
        level,
        sets,
        ways,
        line_size: 64,
        inclusive: level == 3,
        shared_by_threads: shared,
        write_policy: WritePolicy::WriteBackAllocate,
        replacement: ReplacementPolicy::Lru,
    };
    HierarchyConfig {
        levels: vec![level(1, 8, 2, 1), level(2, 32, 4, 1), level(3, 128, 8, 2)],
        num_threads: 4,
        thread_socket: vec![0, 0, 1, 1],
        thread_core: vec![0, 1, 2, 3],
        num_sockets: 2,
        prefetch: if prefetch_on {
            PrefetchConfig::all_enabled()
        } else {
            PrefetchConfig::all_disabled()
        },
        numa_policy: NumaPolicy::interleave(4096),
        memory_line_size: 64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every cache level, demand hits + misses always equals demand
    /// accesses and loads + stores equals accesses, whatever the access mix.
    #[test]
    fn cache_sim_counters_are_consistent(
        ops in prop::collection::vec((0usize..4, 0u64..4096, prop::bool::ANY, prop::bool::ANY), 1..400),
        prefetch_on in prop::bool::ANY,
    ) {
        let mut sys = NodeCacheSystem::new(tiny_hierarchy(prefetch_on));
        for (thread, line, is_store, is_nt) in ops {
            let kind = match (is_store, is_nt) {
                (true, true) => AccessKind::NonTemporalStore,
                (true, false) => AccessKind::Store,
                _ => AccessKind::Load,
            };
            sys.access(thread, Access { address: line * 64, size: 8, kind });
        }
        let stats = sys.stats();
        for level in &stats.levels {
            for inst in &level.instances {
                prop_assert!(inst.is_consistent(), "level {} instance inconsistent: {:?}", level.level, inst);
            }
        }
    }

    /// Memory traffic is monotone in the working-set size for a streaming
    /// load pattern: touching more distinct lines never reads fewer bytes.
    #[test]
    fn streaming_traffic_is_monotone(lines_a in 1u64..2000, lines_b in 1u64..2000) {
        let run = |lines: u64| {
            let mut sys = NodeCacheSystem::new(tiny_hierarchy(false));
            for i in 0..lines {
                sys.access(0, Access::load(i * 64));
            }
            sys.stats().total_memory_bytes()
        };
        let (small, large) = if lines_a <= lines_b { (lines_a, lines_b) } else { (lines_b, lines_a) };
        prop_assert!(run(small) <= run(large));
    }

    /// Pin-list parsing of plain numeric expressions round-trips: every id
    /// appears, in order, and within the machine's range.
    #[test]
    fn numeric_pin_lists_round_trip(ids in prop::collection::vec(0usize..24, 1..24)) {
        let topo = MachinePreset::WestmereEp2S.topology();
        let expr = ids.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let parsed = parse_pin_list(&expr, &topo).unwrap();
        prop_assert_eq!(parsed, ids);
    }

    /// The wrapper pin logic never pins two worker threads to the same
    /// pin-list entry and never pins a skipped thread, for arbitrary skip
    /// masks and list lengths.
    #[test]
    fn pinner_assignments_are_unique(skip_mask in 0u64..64, list_len in 1usize..16, creations in 1usize..24) {
        let pin_list: Vec<usize> = (0..list_len).collect();
        let mut pinner = PthreadPinner::new(pin_list, SkipMask(skip_mask));
        let mut assigned = Vec::new();
        for i in 0..creations {
            let outcome = pinner.on_thread_create();
            if SkipMask(skip_mask).skips(i) {
                prop_assert_eq!(outcome.cpu(), None, "skipped threads are never pinned");
            }
            if let Some(cpu) = outcome.cpu() {
                prop_assert!(!assigned.contains(&cpu), "entry {cpu} assigned twice");
                assigned.push(cpu);
            }
        }
    }

    /// The metric formula parser never panics and evaluation is exact for
    /// simple linear combinations.
    #[test]
    fn formula_linear_combination(a in -1.0e6..1.0e6f64, b in -1.0e6..1.0e6f64, x in -1.0e3..1.0e3f64) {
        let f = Formula::parse("A*X+B").unwrap();
        let vars: std::collections::HashMap<String, f64> =
            [("A".to_string(), a), ("B".to_string(), b), ("X".to_string(), x)].into_iter().collect();
        let value = f.evaluate(&vars).unwrap();
        prop_assert!((value - (a * x + b)).abs() <= 1e-6 * (1.0 + value.abs()));
    }

    /// Arbitrary garbage never makes the formula parser panic.
    #[test]
    fn formula_parser_is_total(src in "[A-Za-z0-9+*/()., -]{0,40}") {
        let _ = Formula::parse(&src);
    }
}

/// The cpuid-decoded topology matches the ground truth for every preset —
/// run as a plain test here as well so the workspace-level suite covers it.
#[test]
fn decoded_topology_matches_ground_truth_everywhere() {
    for &preset in MachinePreset::all() {
        let machine = SimMachine::new(preset);
        let probed = CpuTopology::probe(&machine).unwrap();
        let truth = machine.topology();
        assert_eq!(probed.sockets, truth.sockets);
        assert_eq!(probed.cores_per_socket, truth.cores_per_socket);
        assert_eq!(probed.threads_per_core, truth.threads_per_core);
        assert_eq!(probed.hw_threads.len(), truth.num_hw_threads());
    }
}

/// Reference model of one machine's MSR space: the descriptors and the
/// `(narrow, wide)` value pair of every `(address, scope instance)` in plain
/// ordered maps, with each rule of the register file spelled out directly.
struct MsrModel {
    descriptors: BTreeMap<u32, MsrDescriptor>,
    cells: BTreeMap<(u32, usize), (u64, u64)>,
    thread_core: Vec<usize>,
    thread_socket: Vec<usize>,
}

impl MsrModel {
    fn new(arch: Microarch, topo: &TopologySpec) -> Self {
        MsrModel {
            descriptors: register_map(arch).into_iter().map(|d| (d.address, d)).collect(),
            cells: BTreeMap::new(),
            thread_core: topo
                .hw_threads
                .iter()
                .map(|t| (t.socket * topo.cores_per_socket + t.core_index) as usize)
                .collect(),
            thread_socket: topo.hw_threads.iter().map(|t| t.socket as usize).collect(),
        }
    }

    /// The descriptor, cell key and current cell of `(cpu, address)`.
    fn cell(
        &self,
        cpu: usize,
        address: u32,
    ) -> Result<(MsrDescriptor, (u32, usize), (u64, u64)), MachineError> {
        let available = self.thread_core.len();
        if cpu >= available {
            return Err(MachineError::NoSuchCpu { cpu, available });
        }
        let desc =
            self.descriptors.get(&address).ok_or(MachineError::UnknownMsr { cpu, address })?;
        let instance = match desc.scope {
            MsrScope::Thread => cpu,
            MsrScope::Core => self.thread_core[cpu],
            MsrScope::Package => self.thread_socket[cpu],
        };
        let key = (address, instance);
        let cell = self.cells.get(&key).copied().unwrap_or((desc.reset_value, desc.reset_value));
        Ok((desc.clone(), key, cell))
    }

    fn mask(desc: &MsrDescriptor) -> u64 {
        if desc.width >= 64 {
            u64::MAX
        } else {
            (1 << desc.width) - 1
        }
    }

    fn read(&self, cpu: usize, address: u32) -> Result<u64, MachineError> {
        self.cell(cpu, address).map(|(desc, _, (narrow, _))| narrow & Self::mask(&desc))
    }

    fn wide_value(&self, cpu: usize, address: u32) -> Result<u64, MachineError> {
        self.cell(cpu, address).map(|(_, _, (_, wide))| wide)
    }

    fn write(&mut self, cpu: usize, address: u32, value: u64) -> Result<(), MachineError> {
        let (desc, key, _) = self.cell(cpu, address)?;
        if !desc.writable {
            return Err(MachineError::ReadOnlyMsr { cpu, address });
        }
        if value & desc.reserved_mask != 0 {
            let reserved_mask = desc.reserved_mask;
            return Err(MachineError::ReservedBits { cpu, address, value, reserved_mask });
        }
        let value = value & Self::mask(&desc);
        self.cells.insert(key, (value, value));
        Ok(())
    }

    fn increment(&mut self, cpu: usize, address: u32, delta: u64) -> Result<(), MachineError> {
        let (desc, key, (narrow, wide)) = self.cell(cpu, address)?;
        let narrow = narrow.wrapping_add(delta) & Self::mask(&desc);
        self.cells.insert(key, (narrow, wide.wrapping_add(delta)));
        Ok(())
    }
}

/// Every address any architecture implements, plus neighbours that no
/// architecture does.
fn msr_candidate_addresses() -> Vec<u32> {
    let mut addresses: BTreeSet<u32> = Microarch::all()
        .iter()
        .flat_map(|&arch| register_map(arch).into_iter().map(|d| d.address))
        .collect();
    addresses.extend([0, 0x11, 0x185, 0x3FF, 0xDEAD, 0xC001_0008, u32::MAX]);
    addresses.into_iter().collect()
}

/// The operand of a write or increment: small, counter-sized, near a
/// counter width (to wrap), or arbitrary (to hit reserved bits).
fn msr_operand(shape: u8, raw: u64) -> u64 {
    match shape {
        0 => raw & 0xFFFF,
        1 => raw & 0xFFFF_FFFF,
        2 => ((1u64 << [40, 44, 48][(raw % 3) as usize]) - 1).wrapping_sub(raw & 0xF),
        _ => raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The address-sorted register table behaves exactly like a plain
    /// ordered-map model on every architecture's register map: values,
    /// wide shadows, scope sharing and every error variant.
    #[test]
    fn msr_space_matches_an_ordered_map_model(
        arch in prop::sample::select(Microarch::all().to_vec()),
        order in prop::sample::select(vec![
            EnumerationOrder::SmtLast,
            EnumerationOrder::SocketsFirstSmtAdjacent,
            EnumerationOrder::RoundRobinSockets,
        ]),
        ops in prop::collection::vec(
            (0u8..4, 0usize..10, prop::sample::select(msr_candidate_addresses()), 0u8..4, 0u64..u64::MAX),
            1..300,
        ),
    ) {
        let topo = TopologySpec::new(2, 2, 2, None, order, 1 << 30).unwrap();
        let mut space = MsrSpace::new(arch, &topo);
        let mut model = MsrModel::new(arch, &topo);

        let known = space.known_registers();
        prop_assert!(known.windows(2).all(|w| w[0] < w[1]), "{arch:?}: not strictly sorted");
        prop_assert_eq!(&known, &model.descriptors.keys().copied().collect::<Vec<u32>>());
        for address in msr_candidate_addresses() {
            prop_assert_eq!(space.has_register(address), model.descriptors.contains_key(&address));
        }

        for (op, cpu, address, shape, raw) in ops {
            let value = msr_operand(shape, raw);
            match op {
                0 => prop_assert_eq!(space.read(cpu, address), model.read(cpu, address)),
                1 => prop_assert_eq!(
                    space.write(cpu, address, value),
                    model.write(cpu, address, value)
                ),
                2 => prop_assert_eq!(
                    space.hardware_increment(cpu, address, value),
                    model.increment(cpu, address, value)
                ),
                _ => prop_assert_eq!(space.wide_value(cpu, address), model.wide_value(cpu, address)),
            }
        }
        // Final state: every register on every cpu (and one cpu past the end).
        for cpu in 0..=topo.num_hw_threads() {
            for &address in &known {
                prop_assert_eq!(space.read(cpu, address), model.read(cpu, address));
                prop_assert_eq!(space.wide_value(cpu, address), model.wide_value(cpu, address));
            }
        }
    }
}
