//! The four workloads. Each is one cluster shape plus one traffic mix;
//! `BENCHMARK.json` and the README say which layers each exists to
//! exercise.

use cumulo_sim::SimDuration;

/// How transactions arrive.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Arrival {
    /// Each thread starts its next transaction when the previous ends.
    Closed,
    /// Transactions fall due at a fixed rate (per simulated second) and
    /// wait for a free thread; each is timed from its due time.
    Open(f64),
}

/// A crash episode inside the measured window, at fractions of the
/// window.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Crashes {
    /// When region server 0 crashes.
    pub server_frac: f64,
    /// When one client process crashes (after the server recovery has
    /// settled, so the recovery manager's client replay runs on its own).
    pub client_frac: f64,
}

/// One workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Loaded rows (one 100-byte column each).
    pub rows: u64,
    /// Regions the table is pre-split into.
    pub regions: usize,
    /// Client processes.
    pub clients: usize,
    /// Generator threads, round-robin over the client processes.
    pub threads: usize,
    /// Operations per transaction (puts, gets and scans).
    pub ops: usize,
    /// Fraction of operations that read.
    pub read_frac: f64,
    /// Fraction of reads that are scans.
    pub scan_frac: f64,
    /// Rows per scan.
    pub scan_len: u64,
    /// Block-cache capacity per server in row-blocks (`None` = default).
    pub cache_rows: Option<usize>,
    /// Arrival process.
    pub arrival: Arrival,
    /// Crash episode, if any.
    pub crashes: Option<Crashes>,
    /// Simulated seconds of each trial's window per `--seconds`: fixed
    /// per workload (sized on a 2-core x86-64 host so that all trials'
    /// windows together take about `--seconds` there), so the simulated
    /// work — and hence every sim-clock metric — depends only on the
    /// arguments, never on how fast the host happens to be.
    pub window_per_second: f64,
}

/// Value bytes per cell (the paper's 100-byte values).
pub const VALUE_LEN: usize = 100;
/// The one column every row has.
pub const COLUMN: &str = "f0";
/// Region servers in every workload (the paper's testbed).
pub const SERVERS: usize = 2;
/// Simulated warm-up before each window opens.
pub const WARMUP: SimDuration = SimDuration::from_secs(2);
/// Row-key prefix of the loaded table.
pub const KEY_PREFIX: &str = "user";

/// The row key of row `i`, as `Cluster::load_rows` names it.
pub fn row_key(i: u64) -> String {
    format!("{KEY_PREFIX}{i:012}")
}

impl Spec {
    /// Each trial's measured window for `--seconds seconds`, rounded to
    /// whole 10 ms slices.
    pub fn window(&self, seconds: u64) -> SimDuration {
        let ms = (seconds as f64 * self.window_per_second * 100.0)
            .round()
            .max(1.0) as u64;
        SimDuration::from_millis(ms * 10)
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Spec> {
    vec![paper_mix(), overload(), crash_recovery(), scan_read()]
}

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

fn paper_mix() -> Spec {
    Spec {
        name: "paper_mix",
        rows: 500_000,
        regions: 4,
        clients: 50,
        threads: 50,
        ops: 10,
        read_frac: 0.5,
        scan_frac: 0.0,
        scan_len: 0,
        cache_rows: None,
        arrival: Arrival::Closed,
        crashes: None,
        window_per_second: 3.0,
    }
}

fn overload() -> Spec {
    Spec {
        name: "overload",
        rows: 20_000,
        regions: 8,
        clients: 8,
        threads: 200,
        ops: 10,
        read_frac: 0.5,
        scan_frac: 0.0,
        scan_len: 0,
        cache_rows: None,
        arrival: Arrival::Closed,
        crashes: None,
        window_per_second: 8.0,
    }
}

fn crash_recovery() -> Spec {
    Spec {
        name: "crash_recovery",
        rows: 500_000,
        regions: 4,
        clients: 50,
        threads: 50,
        ops: 10,
        read_frac: 0.5,
        scan_frac: 0.0,
        scan_len: 0,
        cache_rows: None,
        arrival: Arrival::Open(250.0),
        crashes: Some(Crashes {
            server_frac: 0.1,
            client_frac: 0.6,
        }),
        window_per_second: 6.0,
    }
}

fn scan_read() -> Spec {
    Spec {
        name: "scan_read",
        rows: 200_000,
        regions: 64,
        clients: 16,
        threads: 32,
        ops: 4,
        read_frac: 0.9,
        scan_frac: 0.3,
        scan_len: 50,
        cache_rows: Some(40_000),
        arrival: Arrival::Closed,
        crashes: None,
        window_per_second: 1.2,
    }
}
