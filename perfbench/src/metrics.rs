//! Pools trials into the reported metrics and prints them.
//!
//! Every metric is tagged with the clock it is measured on. Sim-clock
//! numbers depend only on the arguments, so the `sim` lines of two runs
//! with the same arguments are byte-identical; host-clock numbers are
//! printed apart, on `host` lines.

use crate::gen::Layer;
use crate::summary::Summary;
use crate::trial::Episode;
use std::fmt::Write as _;

/// Which clock a metric is measured on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: what a client of the modelled store sees.
    Sim,
    /// Host time: what a developer running the simulator sees.
    Host,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The clock it is measured on.
    pub clock: Clock,
    /// Context printed beside the value (e.g. a sample count).
    pub note: String,
}

fn m(name: &'static str, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name,
        value,
        unit,
        clock,
        note: String::new(),
    }
}

/// The `q` quantile (nearest rank) of sorted `v`; 0 when empty.
pub fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median_f(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The median over trials' episodes of one crash timing, in seconds; 0
/// when no episode recorded it.
fn episode_s(trials: &[Summary], f: impl Fn(&Episode) -> Option<u64>) -> f64 {
    median_f(
        trials
            .iter()
            .filter_map(|t| t.episode.as_ref().and_then(&f))
            .map(|ns| ns as f64 / 1e9)
            .collect(),
    )
}

/// Sim-clock end-to-end metrics.
pub fn sim_end_to_end(trials: &[Summary]) -> Vec<Metric> {
    let committed: u64 = trials.iter().map(|t| t.committed).sum();
    let window_s: f64 = trials.iter().map(|t| t.window_ns as f64 / 1e9).sum();
    let mut rt: Vec<u64> = trials
        .iter()
        .flat_map(|t| t.response_ns.iter().copied())
        .collect();
    rt.sort_unstable();
    let n = format!("n={}", rt.len());
    vec![
        m(
            "commit_tps",
            ratio(committed as f64, window_s),
            "1/s",
            Clock::Sim,
        ),
        Metric {
            note: n.clone(),
            ..m("txn_p50_ms", ms(quantile(&rt, 0.50)), "ms", Clock::Sim)
        },
        Metric {
            note: n,
            ..m("txn_p99_ms", ms(quantile(&rt, 0.99)), "ms", Clock::Sim)
        },
    ]
}

/// Sim-clock outcomes every run reports: failures against attempts,
/// lost acknowledged writes, and the crash-episode times. They are
/// per-layer metrics because they are zero, or undefined, on some
/// workloads.
pub fn outcomes(trials: &[Summary]) -> Vec<Metric> {
    let committed: u64 = trials.iter().map(|t| t.committed).sum();
    let attempted: u64 = trials.iter().map(|t| t.attempted).sum();
    vec![
        Metric {
            note: format!("attempted={attempted}"),
            ..m(
                "txn_client.fail_frac",
                ratio((attempted - committed) as f64, attempted as f64),
                "frac",
                Clock::Sim,
            )
        },
        m(
            "check.acked_lost",
            trials.iter().map(|t| t.acked_lost).sum::<u64>() as f64,
            "count",
            Clock::Sim,
        ),
        m(
            "rm.recovery_s",
            episode_s(trials, |e| e.recovery_ns),
            "s",
            Clock::Sim,
        ),
        m(
            "rm.restore_s",
            episode_s(trials, |e| e.restore_ns),
            "s",
            Clock::Sim,
        ),
    ]
}

/// Host-clock end-to-end metrics of untraced trials: medians over
/// trials, and the largest peak resident set.
pub fn host_end_to_end(trials: &[Summary]) -> Vec<Metric> {
    let per_commit = trials
        .iter()
        .map(|t| ratio(t.window_nominal_ns() / 1e3, t.committed as f64))
        .collect();
    let rss = trials.iter().map(|t| t.peak_rss_mb).fold(0.0, f64::max);
    vec![
        m(
            "setup_s",
            median_f(
                trials
                    .iter()
                    .map(|t| t.setup_host_ns as f64 / 1e9)
                    .collect(),
            ),
            "s",
            Clock::Host,
        ),
        m(
            "host_us_per_commit",
            median_f(per_commit),
            "us",
            Clock::Host,
        ),
        m("peak_rss_mb", rss, "MB", Clock::Host),
    ]
}

/// Per-layer metrics of traced trials; `untraced` is the first of them
/// run without tracing (for the tracing overhead).
pub fn per_layer(traced: &[Summary], untraced: &Summary) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Summary) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&Summary) -> u64| traced.iter().map(f).max().unwrap_or(0) as f64;
    let c = |f: &dyn Fn(&crate::trial::Counters) -> u64| sum(&|t| f(&t.counters));
    let commits = sum(&|t| t.committed);
    let user_bytes = sum(&|t| t.user_bytes);
    let window_ns = sum(&|t| t.window_ns);
    let pooled = |f: &dyn Fn(&Summary) -> &[u64]| {
        let mut v: Vec<u64> = traced.iter().flat_map(|t| f(t).iter().copied()).collect();
        v.sort_unstable();
        v
    };
    let span = |layer: Layer| pooled(&|t| t.span_ns.get(&layer).map_or(&[][..], |v| v));
    let (begin, get, scan, commit, wait) = (
        span(Layer::Begin),
        span(Layer::Get),
        span(Layer::Scan),
        span(Layer::Commit),
        span(Layer::Wait),
    );
    let queue = pooled(&|t| &t.queue_len);
    let host_traced: f64 = traced.iter().map(Summary::window_nominal_ns).sum();
    let q = |v: &[u64], p: f64| ms(quantile(v, p));
    let slots = traced.first().map_or(0, |t| t.handler_slots) as f64;

    let mut out = outcomes(traced);
    out.extend([
        m(
            "sim.events_per_commit",
            ratio(c(&|x| x.events), commits),
            "count",
            Clock::Sim,
        ),
        m(
            "sim.host_ns_per_event",
            ratio(host_traced, c(&|x| x.events)),
            "ns",
            Clock::Host,
        ),
        m(
            "net.msgs_per_commit",
            ratio(c(&|x| x.msgs), commits),
            "count",
            Clock::Sim,
        ),
        m("txn_client.begin_p50_ms", q(&begin, 0.50), "ms", Clock::Sim),
        m("txn_client.begin_p99_ms", q(&begin, 0.99), "ms", Clock::Sim),
        m("txn_client.get_p50_ms", q(&get, 0.50), "ms", Clock::Sim),
        m("txn_client.get_p99_ms", q(&get, 0.99), "ms", Clock::Sim),
        m("txn_client.scan_p50_ms", q(&scan, 0.50), "ms", Clock::Sim),
        m("txn_client.scan_p99_ms", q(&scan, 0.99), "ms", Clock::Sim),
        m(
            "txn_client.commit_p50_ms",
            q(&commit, 0.50),
            "ms",
            Clock::Sim,
        ),
        m(
            "txn_client.commit_p99_ms",
            q(&commit, 0.99),
            "ms",
            Clock::Sim,
        ),
        m(
            "txn_client.flush_backlog_max",
            max(&|t| t.flush_backlog_max),
            "count",
            Clock::Sim,
        ),
        m("generator.late_p99_ms", q(&wait, 0.99), "ms", Clock::Sim),
        m(
            "store_client.retries_per_read",
            ratio(c(&|x| x.retries), c(&|x| x.gets_ok + x.scans_ok)),
            "ratio",
            Clock::Sim,
        ),
        m(
            "store_client.scan_legs_per_scan",
            ratio(c(&|x| x.scan_legs), c(&|x| x.scans_ok)),
            "ratio",
            Clock::Sim,
        ),
        m(
            "store_client.refresh_skips",
            c(&|x| x.refresh_skips),
            "count",
            Clock::Sim,
        ),
        m(
            "server.busy_frac",
            ratio(c(&|x| x.service_ns), window_ns * slots),
            "frac",
            Clock::Sim,
        ),
        m(
            "server.queue_len_p99",
            quantile(&queue, 0.99) as f64,
            "count",
            Clock::Sim,
        ),
        m(
            "server.served_per_ok_read",
            ratio(c(&|x| x.gets_served), c(&|x| x.gets_ok)),
            "ratio",
            Clock::Sim,
        ),
        m(
            "server.cache_hit_rate",
            median_f(traced.iter().map(|t| t.cache_hit_rate).collect()),
            "frac",
            Clock::Sim,
        ),
        m(
            "server.not_serving",
            c(&|x| x.not_serving),
            "count",
            Clock::Sim,
        ),
        m(
            "wal.syncs_per_commit",
            ratio(c(&|x| x.wal_syncs), commits),
            "ratio",
            Clock::Sim,
        ),
        m(
            "wal.bytes_per_user_byte",
            ratio(c(&|x| x.wal_bytes), user_bytes),
            "ratio",
            Clock::Sim,
        ),
        m(
            "dfs.bytes_per_user_byte",
            ratio(c(&|x| x.dfs_bytes), user_bytes),
            "ratio",
            Clock::Sim,
        ),
        m(
            "compaction.bytes_rewritten",
            c(&|x| x.compaction_bytes),
            "bytes",
            Clock::Sim,
        ),
        m(
            "compaction.stall_ms",
            c(&|x| x.stall_ns) / 1e6,
            "ms",
            Clock::Sim,
        ),
        m(
            "store.read_amplification",
            max(&|t| t.read_amplification),
            "count",
            Clock::Sim,
        ),
        m(
            "tm.conflict_abort_frac",
            ratio(c(&|x| x.tm_conflicts), c(&|x| x.tm_commits + x.tm_aborts)),
            "frac",
            Clock::Sim,
        ),
        m(
            "tm.active_max",
            max(&|t| t.tm_active_max),
            "count",
            Clock::Sim,
        ),
        m(
            "tm.log_len_max",
            max(&|t| t.log_len_max),
            "count",
            Clock::Sim,
        ),
        m(
            "rm.detect_s",
            episode_s(traced, |e| e.detect_ns),
            "s",
            Clock::Sim,
        ),
        m(
            "rm.reassign_replay_s",
            episode_s(traced, |e| Some(e.recovery_ns? - e.detect_ns?)),
            "s",
            Clock::Sim,
        ),
        m("rm.replayed_txns", c(&|x| x.replayed), "count", Clock::Sim),
        m(
            "rm.client_recovery_s",
            episode_s(traced, |e| e.client_recovery_ns),
            "s",
            Clock::Sim,
        ),
        m("rm.truncations", c(&|x| x.truncations), "count", Clock::Sim),
        m(
            "trace.overhead_frac",
            ratio(traced[0].window_nominal_ns(), untraced.window_nominal_ns()) - 1.0,
            "frac",
            Clock::Host,
        ),
    ]);
    out
}

/// One report line: `<clock> <name> <value> <unit> [note]`.
pub fn line(x: &Metric) -> String {
    let clock = match x.clock {
        Clock::Sim => "sim",
        Clock::Host => "host",
    };
    let mut s = format!("{clock} {} {} {}", x.name, x.value, x.unit);
    if !x.note.is_empty() {
        let _ = write!(s, " {}", x.note);
    }
    s
}

/// The final JSON line.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    s.push_str("}}");
    s
}
