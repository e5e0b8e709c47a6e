//! Host-clock measurements: the only place the benchmark reads the wall
//! clock or the process's memory figures. Everything else runs on
//! simulated time, so a wall-clock value can never reach the simulation
//! or the sim-clock report.

// lint:allow(CD003, reason = "host-clock metrics (setup_s, host_us_per_commit) measure how fast the simulator runs; the value is only reported, never fed back into the simulation")
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug)]
pub struct Stopwatch {
    // lint:allow(CD003, reason = "holds the host start instant of a timed section; read only by Stopwatch::elapsed_ns for reporting")
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // lint:allow(CD003, reason = "host start instant of a timed section; reported, never scheduled on")
            started: Instant::now(),
        }
    }

    /// Host nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host ns [`reference_ns`] takes at nominal speed (its median on a
/// 2-core x86-64 host).
pub const REFERENCE_NOMINAL_NS: f64 = 4.5e6;

/// Host ns for one fixed, deterministic unit of work shaped like the
/// simulator's inner loop: boxed callbacks through a priority queue,
/// each touching an ordered map. On a shared host, speed drifts by a
/// fifth over minutes; timing this unit next to the simulation measures
/// the drift, so host-clock costs can be stated at nominal speed.
pub fn reference_ns() -> u64 {
    use std::cell::RefCell;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};
    use std::rc::Rc;
    let watch = Stopwatch::start();
    let map: Rc<RefCell<BTreeMap<u64, u64>>> = Rc::default();
    let mut queue: BinaryHeap<(Reverse<u64>, usize)> = BinaryHeap::new();
    let mut calls: Vec<Option<Box<dyn FnOnce()>>> = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..16_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push((Reverse(x % 1_000_000), i));
        let (m, key) = (Rc::clone(&map), x % 20_000);
        calls.push(Some(Box::new(move || {
            *m.borrow_mut().entry(key).or_default() += 1;
        })));
        if queue.len() > 500 {
            if let Some(f) = queue.pop().and_then(|(_, j)| calls[j].take()) {
                f();
            }
        }
    }
    std::hint::black_box(map.borrow().len());
    watch.elapsed_ns()
}
