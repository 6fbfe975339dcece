//! Host fingerprint and memory accounting of a run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// `/proc/stat` steal and total ticks at the start of a run.
pub struct Counters {
    steal: u64,
    total: u64,
    started: Instant,
}

impl Counters {
    pub fn sample() -> Counters {
        let (steal, total) = cpu_ticks().unwrap_or((0, 0));
        Counters { steal, total, started: Instant::now() }
    }
}

/// Steal and total ticks of the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint as one JSON object: processor count, CPU model, compiler
/// and the share of CPU time the hypervisor stole since `start`.
pub fn fingerprint(start: &Counters) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (steal, total) = cpu_ticks().unwrap_or((start.steal, start.total));
    let steal_ticks = steal.saturating_sub(start.steal);
    let total_ticks = total.saturating_sub(start.total).max(1);
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"steal_ticks\": {steal_ticks}, \
         \"steal_share\": {:.4}, \"wall_s\": {:.3}}}",
        cpu_model(),
        rustc_version(),
        steal_ticks as f64 / total_ticks as f64,
        start.started.elapsed().as_secs_f64()
    )
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The system allocator, counting live heap bytes so a run can report its
/// peak heap. Unlike the resident set, the peak of live bytes does not
/// depend on how the allocator's arenas happened to fragment.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

/// Fix glibc malloc's trim and mmap thresholds for the whole run.
///
/// By default glibc raises its mmap threshold as large blocks are freed,
/// and whether the simulator's multi-megabyte per-point hierarchies then
/// come from recycled heap or from fresh pages differed from run to run:
/// `fleet_sweep` operations took 0 or up to 185 000 minor page faults each,
/// and 200 or 500 ms accordingly. With both thresholds fixed, blocks up to
/// 32 MiB stay in the heap and every run recycles them alike.
pub fn fix_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator tuning parameters; it runs
        // first thing in `main`, before any other thread exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Peak live heap of this process so far, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
