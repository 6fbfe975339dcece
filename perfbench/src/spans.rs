//! Rollup of the trace recorder's spans over traced operations.
//!
//! The recorder (`likwid::trace`) holds the program's own spans; the
//! benchmark adds `bench` spans around the calls it makes into each layer.
//! Per operation window this module measures how much wall time any span on
//! any thread covers, and per span name its count, total and self time
//! (duration minus the time its direct children on the same thread cover).

use std::collections::BTreeMap;

use likwid::trace::{Phase, TraceEvent, VIRTUAL_TID_BASE};

struct Interval {
    name: String,
    tid: u64,
    start: u64,
    end: u64,
}

#[derive(Default)]
struct NameTotals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Accumulated coverage and per-name totals over traced operations.
#[derive(Default)]
pub struct Rollup {
    windows: u64,
    window_ns: u64,
    covered_ns: u64,
    by_name: BTreeMap<String, NameTotals>,
}

impl Rollup {
    /// Fold the events of one traced operation running from `start` to
    /// `end` (recorder timestamps).
    pub fn add(&mut self, events: &[TraceEvent], start: u64, end: u64) {
        let intervals = intervals(events);
        self.windows += 1;
        self.window_ns += end.saturating_sub(start);
        self.covered_ns += covered(&intervals, start, end);
        for (interval, self_ns) in intervals.iter().zip(self_times(&intervals)) {
            let totals = self.by_name.entry(interval.name.clone()).or_default();
            totals.count += 1;
            totals.total_ns += interval.end - interval.start;
            totals.self_ns += self_ns;
        }
    }

    /// Share of operation wall time that no span covers.
    pub fn unattributed_share(&self) -> f64 {
        1.0 - self.covered_ns as f64 / self.window_ns.max(1) as f64
    }

    /// Print the per-span rollup, per traced operation.
    pub fn print(&self) {
        let per_op = self.windows.max(1) as f64;
        println!(
            "trace windows {} covered {:.3} ms/op of {:.3} ms/op, unattributed share {:.4}",
            self.windows,
            self.covered_ns as f64 / per_op / 1e6,
            self.window_ns as f64 / per_op / 1e6,
            self.unattributed_share()
        );
        for (name, totals) in &self.by_name {
            println!(
                "span {:<32} count/op {:>10.1} total {:>10.3} ms/op self {:>10.3} ms/op",
                name,
                totals.count as f64 / per_op,
                totals.total_ns as f64 / per_op / 1e6,
                totals.self_ns as f64 / per_op / 1e6
            );
        }
    }
}

/// Pair begin/end events per thread and take complete events as they are;
/// virtual-clock tracks are skipped (their timestamps are not wall time).
fn intervals(events: &[TraceEvent]) -> Vec<Interval> {
    let mut open: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events.iter().filter(|e| e.tid < VIRTUAL_TID_BASE) {
        match &e.phase {
            Phase::Begin => {
                open.entry(e.tid).or_default().push((format!("{}.{}", e.cat, e.name), e.ts_ns))
            }
            Phase::End => {
                if let Some((name, start)) = open.entry(e.tid).or_default().pop() {
                    out.push(Interval { name, tid: e.tid, start, end: e.ts_ns.max(start) });
                }
            }
            Phase::Complete { dur_ns } => out.push(Interval {
                name: format!("{}.{}", e.cat, e.name),
                tid: e.tid,
                start: e.ts_ns,
                end: e.ts_ns + dur_ns,
            }),
            Phase::Counter { .. } => {}
        }
    }
    out
}

/// Length of the union of all intervals, clipped to `[start, end]`.
fn covered(intervals: &[Interval], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|i| (i.start.max(start), i.end.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every interval, in input order: its duration minus the
/// durations of its direct children on the same thread.
fn self_times(intervals: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| {
        (intervals[i].tid, intervals[i].start, std::cmp::Reverse(intervals[i].end))
    });
    let mut child_ns = vec![0u64; intervals.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let cur = &intervals[i];
        while let Some(&top) = stack.last() {
            let parent = &intervals[top];
            if parent.tid == cur.tid && cur.start < parent.end {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += cur.end.min(intervals[parent].end) - cur.start;
        }
        stack.push(i);
    }
    intervals.iter().zip(child_ns).map(|(i, c)| (i.end - i.start).saturating_sub(c)).collect()
}
