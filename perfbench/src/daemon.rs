//! `daemon_stream`: two clients streaming sessions from `likwid-perfctrd`.
//!
//! The daemon serves on a Unix socket in the run's scratch directory. Two
//! client connections, one thread each, stream core-only `FLOPS_DP`
//! sessions (1 ms interval, 100 ms of virtual time) whose cpu sets share two
//! hardware threads of socket 0, so the broker arbitrates turns on those.
//! One operation is a fixed batch of sessions per client; every session's
//! interval deltas must telescope to its `done` aggregate, and `done` must
//! count every interval.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use likwid::report::Report;
use likwid::trace;
use likwid_daemon::server::serve;
use likwid_daemon::{Daemon, Frame, OpenRequest, SocketClient};
use likwid_x86_machine::{MachinePreset, SimMachine};

use crate::stats::{self, Histogram, SplitMix};

const PRESET: MachinePreset = MachinePreset::NehalemEp2S;
const GROUP: &str = "FLOPS_DP";
const INTERVAL: &str = "1ms";
const DURATION: &str = "100ms";
/// Interval frames of one session.
const INTERVALS: usize = 100;
/// Sessions each client streams per operation.
const SESSIONS: usize = 4;

/// The seed's two overlapping cpu sets: `S0:a-(a+3)` and `S0:(a+2)-(a+5)`.
pub fn requests(seed: u64) -> [OpenRequest; 2] {
    let a = SplitMix::new(seed, 3).below(3);
    let request = |first: u64| OpenRequest {
        machine: None,
        cpus: format!("S0:{first}-{}", first + 3),
        group: GROUP.to_string(),
        interval: INTERVAL.to_string(),
        duration: DURATION.to_string(),
    };
    [request(a), request(a + 2)]
}

pub struct DaemonStream {
    requests: [OpenRequest; 2],
    socket: PathBuf,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<likwid::Result<()>>>,
    clients: Vec<SocketClient>,
    /// Gaps between consecutive interval frames at a client, nanoseconds.
    gaps: Histogram,
    report: Report,
}

impl DaemonStream {
    pub fn setup(seed: u64, tmp: &Path) -> Result<Self, String> {
        let socket = tmp.join("daemon.sock");
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let (socket, shutdown) = (socket.clone(), shutdown.clone());
            std::thread::spawn(move || serve(&SimMachine::new(PRESET), &socket, &shutdown))
        };
        let mut stream = DaemonStream {
            requests: requests(seed),
            socket,
            shutdown,
            server: Some(server),
            clients: Vec::new(),
            gaps: Histogram::new(),
            report: Report::new("likwid-perfctrd"),
        };
        stream.wait_for_socket()?;
        stream.connect()?;
        let session = stream.clients[0]
            .run_session(&stream.requests[0], |_| {})
            .and_then(|accumulator| accumulator.result())
            .map_err(|e| e.to_string())?;
        stream.report = session.report();
        crate::Workload::op(&mut stream)?;
        stream.gaps.clear();
        Ok(stream)
    }

    fn wait_for_socket(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.socket.exists() {
            if self.server.as_ref().is_some_and(|s| s.is_finished()) {
                let result = self.server.take().expect("checked").join();
                return Err(format!("the daemon exited before listening: {result:?}"));
            }
            if Instant::now() > deadline {
                return Err("the daemon socket did not appear".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    fn connect(&mut self) -> Result<(), String> {
        self.clients.clear();
        for _ in &self.requests {
            let (client, _hello) =
                SocketClient::connect(&self.socket).map_err(|e| e.to_string())?;
            self.clients.push(client);
        }
        Ok(())
    }
}

impl Drop for DaemonStream {
    fn drop(&mut self) {
        self.clients.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// Stream `SESSIONS` sessions on one connection and check each; returns the
/// interval-frame gaps seen at the client.
fn run_batch(client: &mut SocketClient, request: &OpenRequest) -> Result<Vec<u64>, String> {
    let mut gaps = Vec::with_capacity(SESSIONS * INTERVALS);
    for _ in 0..SESSIONS {
        let mut last: Option<Instant> = None;
        let mut done_intervals = None;
        let accumulator = client
            .run_session(request, |frame| match frame {
                Frame::Interval(_) => {
                    let now = Instant::now();
                    if let Some(previous) = last {
                        gaps.push((now - previous).as_nanos() as u64);
                    }
                    last = Some(now);
                }
                Frame::Done(done) => done_intervals = Some(done.intervals),
                _ => {}
            })
            .map_err(|e| e.to_string())?;
        if done_intervals != Some(INTERVALS) {
            return Err(format!("done frame counts {done_intervals:?} intervals, not {INTERVALS}"));
        }
        accumulator.verify_telescoping().map_err(|e| e.to_string())?;
    }
    Ok(gaps)
}

impl crate::Workload for DaemonStream {
    fn op(&mut self) -> Result<(), String> {
        if self.clients.len() != self.requests.len() {
            return Err("a client connection is missing".into());
        }
        let requests = &self.requests;
        let batches: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(requests)
                .map(|(client, request)| scope.spawn(move || run_batch(client, request)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                .collect()
        });
        for batch in batches {
            batch?.iter().for_each(|&ns| self.gaps.record(ns));
        }
        Ok(())
    }

    fn after_op(&mut self) {
        // Fresh connections, hence fresh handler threads, for every
        // operation: with connections (and so handler threads) kept for the
        // whole run, whole runs landed in a slow mode (op_p50_ms 101 and
        // 111 against 77 to 87 for the others).
        self.clients.clear();
        if trace::enabled() {
            // The broker's spans sit in the connection handlers' thread
            // buffers until the handlers exit: give them a moment to hand
            // their spans over before the recorder stops.
            std::thread::sleep(Duration::from_millis(20));
        }
        if let Err(e) = self.connect() {
            eprintln!("perfbench: reconnect: {e}");
            self.clients.clear();
        }
    }

    fn work_per_op(&self) -> f64 {
        (self.requests.len() * SESSIONS * INTERVALS) as f64
    }

    fn work_unit(&self) -> &'static str {
        "interval frames"
    }

    fn inputs(&self) -> String {
        let [a, b] = &self.requests;
        format!(
            "{GROUP} sessions on cpus {} and {}, {INTERVAL} interval, {DURATION}",
            a.cpus, b.cpus
        )
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn extras(&self) -> Vec<(String, f64, &'static str)> {
        let tail = stats::tail_percentile(self.gaps.len() as usize);
        vec![
            ("interval_gaps".to_string(), self.gaps.len() as f64, "count"),
            ("interval_p50_us".to_string(), self.gaps.percentile(0.5) / 1e3, "us"),
            (format!("interval_p{}_us", tail * 100.0), self.gaps.percentile(tail) / 1e3, "us"),
        ]
    }
}

/// The daemon rungs, measured in process on the seed's requests.
pub fn ladder(seed: u64, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let machine = SimMachine::new(PRESET);
    let daemon = Daemon::new(&machine);
    let [a, b] = requests(seed);
    let err = |e: likwid::LikwidError| e.to_string();

    let open_ms: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let handle = daemon.open(&a).map_err(err)?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            drop(handle);
            Ok(ms)
        })
        .collect::<Result<_, String>>()?;
    out.insert("daemon.open_ms", stats::median(&open_ms));

    // NDJSON codec on one session's interval frames.
    let mut handle = daemon.open(&a).map_err(err)?;
    let mut frames = Vec::new();
    while let Some(frame) = handle.next_interval().map_err(err)? {
        frames.push(Frame::Interval(frame));
    }
    handle.finish().map_err(err)?;
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let started = Instant::now();
        let lines: Vec<String> = frames.iter().map(Frame::to_line).collect();
        encode_us.push(started.elapsed().as_secs_f64() * 1e6 / frames.len() as f64);
        let started = Instant::now();
        let decoded: Vec<Frame> =
            lines.iter().map(|l| Frame::from_line(l)).collect::<Result<_, _>>().map_err(err)?;
        decode_us.push(started.elapsed().as_secs_f64() * 1e6 / frames.len() as f64);
        if decoded != frames {
            return Err("interval frames do not survive an NDJSON round trip".into());
        }
    }
    out.insert("daemon.frame_encode_us", stats::median(&encode_us));
    out.insert("daemon.frame_decode_us", stats::median(&decode_us));

    // Turn waiting: per-interval time of session `a` alone, and alongside
    // the overlapping session `b` on another thread.
    let intervals = |request: &OpenRequest| -> Result<Vec<f64>, String> {
        let mut handle = daemon.open(request).map_err(err)?;
        let mut us = Vec::with_capacity(INTERVALS);
        loop {
            let started = Instant::now();
            if handle.next_interval().map_err(err)?.is_none() {
                break;
            }
            us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        handle.finish().map_err(err)?;
        Ok(us)
    };
    let (mut solo, mut shared) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        solo.extend(intervals(&a)?);
        let (mine, partner) = std::thread::scope(|scope| {
            let partner = scope.spawn(|| intervals(&b));
            let mine = intervals(&a);
            (mine, partner.join().unwrap_or_else(|_| Err("partner thread panicked".into())))
        });
        shared.extend(mine?);
        partner?;
    }
    out.insert("daemon.turn_wait_us", stats::median(&shared) - stats::median(&solo));
    Ok(())
}
