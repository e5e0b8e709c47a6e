//! One trial: build and load a cluster, run the generator through a
//! warm-up and the measured window (with the crash episode, if any),
//! drain, and check every written row.
//!
//! Per-layer figures are read from outside, through public accessors,
//! between `Cluster::run_for` slices; nothing is scheduled to read them,
//! so a traced trial executes exactly the events an untraced one does.

use crate::check::{self, Violation};
use crate::gen::{Gen, Outcome, Span, TxnRec};
use crate::rng::derive_seed;
use crate::spec::{row_key, Arrival, Spec, COLUMN, SERVERS, VALUE_LEN, WARMUP};
use crate::summary::{Fnv, Summary};
use crate::timing;
use crate::timing::Stopwatch;
use bytes::Bytes;
use cumulo_core::{Cluster, ClusterConfig, PersistenceMode, Timestamp};
use cumulo_sim::SimDuration;
use cumulo_store::StoreClient;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Slice length between accessor reads: the resolution of the recovery
/// timings and the sampling period of the traced gauges.
const SLICE: SimDuration = SimDuration::from_millis(10);
/// Gauges are sampled every this many slices (100 ms).
const SAMPLE_EVERY: u64 = 10;
/// The host-speed reference unit runs every this many slices (1 s).
const REFERENCE_EVERY: u64 = 100;
/// After the window closes: time for in-flight transactions to end.
const DRAIN: SimDuration = SimDuration::from_secs(10);
/// Limit on waiting for every acknowledged write-set to reach the store.
const FLUSH_LIMIT: SimDuration = SimDuration::from_secs(60);
/// Reads in flight during the end-of-run check: few enough that no read
/// queues past the store client's request timeout (a retried read would
/// add load instead of finishing).
const CHECK_CONCURRENCY: usize = 32;

/// Cumulative counters read through public accessors at the window's
/// edges; their differences are the window's per-layer work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub msgs: u64,
    pub retries: u64,
    pub gets_ok: u64,
    pub scans_ok: u64,
    pub scan_legs: u64,
    pub refresh_skips: u64,
    pub service_ns: u64,
    pub gets_served: u64,
    pub not_serving: u64,
    pub wal_syncs: u64,
    pub wal_bytes: u64,
    pub dfs_bytes: u64,
    pub compaction_bytes: u64,
    pub stall_ns: u64,
    pub tm_commits: u64,
    pub tm_aborts: u64,
    pub tm_conflicts: u64,
    pub truncations: u64,
    pub replayed: u64,
}

impl Counters {
    fn read(c: &Cluster) -> Counters {
        let stores = || c.clients.iter().map(|cl| cl.store_client());
        let servers = || c.servers.iter();
        let compaction = c.compaction_totals();
        let rc = c.rm.recovery_client();
        Counters {
            events: c.sim.events_executed(),
            msgs: c.net.messages_sent(),
            retries: stores().map(StoreClient::retry_count).sum(),
            gets_ok: stores().map(StoreClient::gets_ok).sum(),
            scans_ok: stores().map(StoreClient::scans_ok).sum(),
            scan_legs: stores().map(StoreClient::scan_leg_rpcs).sum(),
            refresh_skips: stores().map(StoreClient::refresh_skips).sum(),
            service_ns: servers().map(|s| s.service_load_ns()).sum(),
            gets_served: servers().map(|s| s.gets_served()).sum(),
            not_serving: servers().map(|s| s.not_serving_count()).sum(),
            wal_syncs: servers().map(|s| s.wal().sync_count()).sum(),
            wal_bytes: servers().map(|s| s.wal().synced_bytes()).sum(),
            dfs_bytes: c.datanodes.iter().map(|d| d.bytes_stored()).sum(),
            compaction_bytes: compaction.bytes_rewritten,
            stall_ns: compaction.stall_ns,
            tm_commits: c.tm.commit_count(),
            tm_aborts: c.tm.abort_count(),
            tm_conflicts: c.tm.conflict_abort_count(),
            truncations: c.rm.truncation_count(),
            replayed: rc.region_txns_replayed() + rc.client_txns_replayed(),
        }
    }

    /// The counters in declaration order.
    pub fn to_vec(&self) -> Vec<u64> {
        vec![
            self.events,
            self.msgs,
            self.retries,
            self.gets_ok,
            self.scans_ok,
            self.scan_legs,
            self.refresh_skips,
            self.service_ns,
            self.gets_served,
            self.not_serving,
            self.wal_syncs,
            self.wal_bytes,
            self.dfs_bytes,
            self.compaction_bytes,
            self.stall_ns,
            self.tm_commits,
            self.tm_aborts,
            self.tm_conflicts,
            self.truncations,
            self.replayed,
        ]
    }

    /// The inverse of [`Counters::to_vec`].
    pub fn from_vec(v: &[u64]) -> Result<Counters, String> {
        let [events, msgs, retries, gets_ok, scans_ok, scan_legs, refresh_skips, service_ns, gets_served, not_serving, wal_syncs, wal_bytes, dfs_bytes, compaction_bytes, stall_ns, tm_commits, tm_aborts, tm_conflicts, truncations, replayed] =
            v[..]
        else {
            return Err(format!("counters: expected 20 values, got {}", v.len()));
        };
        Ok(Counters {
            events,
            msgs,
            retries,
            gets_ok,
            scans_ok,
            scan_legs,
            refresh_skips,
            service_ns,
            gets_served,
            not_serving,
            wal_syncs,
            wal_bytes,
            dfs_bytes,
            compaction_bytes,
            stall_ns,
            tm_commits,
            tm_aborts,
            tm_conflicts,
            truncations,
            replayed,
        })
    }

    /// The window's work: `later - self` per counter, saturating (stored
    /// bytes can shrink under compaction).
    fn until(&self, later: &Counters) -> Counters {
        let d: Vec<u64> = self
            .to_vec()
            .iter()
            .zip(later.to_vec())
            .map(|(a, b)| b.saturating_sub(*a))
            .collect();
        Counters::from_vec(&d).expect("same length")
    }
}

/// Crash-episode timings, in simulated nanoseconds from the crash.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Episode {
    /// Server crash until the master's failover count steps.
    pub detect_ns: Option<u64>,
    /// Server crash until every region is online on a live server.
    pub recovery_ns: Option<u64>,
    /// Server crash until the 1 s commit rate reaches 0.9 x the offered
    /// rate and stays there until the client crash.
    pub restore_ns: Option<u64>,
    /// Client crash until the recovery manager's client-recovery count
    /// steps.
    pub client_recovery_ns: Option<u64>,
}

/// The cluster configuration of `spec` for trial seed `seed`.
fn cluster_config(spec: &Spec, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        seed,
        servers: SERVERS,
        clients: spec.clients,
        regions: spec.regions,
        key_count: spec.rows,
        persistence: PersistenceMode::Asynchronous,
        heartbeat_interval: SimDuration::from_secs(1),
        ..ClusterConfig::default()
    };
    if let Some(rows) = spec.cache_rows {
        cfg.server_cfg.block_cache_capacity = rows;
    }
    cfg
}

/// Whether every region is online on a server that is alive. A crashed
/// server keeps claiming its regions until the master reassigns them, so
/// `Cluster::all_regions_online` alone would read true right after a
/// crash.
fn regions_served(c: &Cluster) -> bool {
    let map = c.master.snapshot_map();
    map.regions().iter().all(|r| {
        map.server_for(r.id)
            .and_then(|s| c.dir.get(s))
            .is_some_and(|srv| srv.is_alive() && srv.region_online(r.id))
    })
}

/// Runs trial `trial` of `spec` under `--seed seed` with a window of
/// `window` simulated time, and checks it. Returns the summary and, when
/// traced, every span.
pub fn run(
    spec: &Spec,
    seed: u64,
    trial: u64,
    window: SimDuration,
    traced: bool,
) -> (Summary, Vec<Span>) {
    let setup = Stopwatch::start();
    let cluster = Cluster::build(cluster_config(spec, derive_seed(seed, trial, 0)));
    cluster.load_rows(spec.rows, &[COLUMN], VALUE_LEN, true);
    let mut out = Summary {
        setup_host_ns: setup.elapsed_ns(),
        window_ns: window.nanos(),
        handler_slots: (cluster.config().server_cfg.handlers * SERVERS) as u64,
        ..Summary::default()
    };

    let window_start = cluster.now() + WARMUP;
    let window_end = window_start + window;
    let gen = Gen::new(
        &cluster,
        spec,
        derive_seed(seed, trial, 1),
        window_end,
        traced,
    );
    gen.start();
    cluster.run_for(WARMUP);

    let before = Counters::read(&cluster);
    let crash_at =
        |frac: f64| window_start + SimDuration::from_nanos((window.nanos() as f64 * frac) as u64);
    let server_crash = spec.crashes.map(|c| crash_at(c.server_frac));
    let client_crash = spec.crashes.map(|c| crash_at(c.client_frac));
    let mut episode = spec.crashes.map(|_| Episode::default());
    let (mut failovers, mut client_recoveries) = (0, 0);
    let (mut server_down, mut client_down) = (false, false);
    let timer = Stopwatch::start();
    let mut slice = 0u64;
    while cluster.now() < window_end {
        if slice.is_multiple_of(REFERENCE_EVERY) {
            out.reference_ns += timing::reference_ns();
            out.reference_units += 1;
        }
        let now = cluster.now();
        if !server_down && server_crash.is_some_and(|at| now >= at) {
            server_down = true;
            failovers = cluster.master.failover_count();
            cluster.crash_server(0);
        }
        if !client_down && client_crash.is_some_and(|at| now >= at) {
            client_down = true;
            client_recoveries = cluster.rm.client_recovery_count();
            cluster.crash_client(spec.clients / 2);
        }
        cluster.run_for(SLICE.min(window_end - now));
        slice += 1;
        let now = cluster.now();
        if let (Some(ep), Some(at)) = (episode.as_mut(), server_crash.filter(|_| server_down)) {
            let since = (now - at).nanos();
            if ep.detect_ns.is_none() && cluster.master.failover_count() > failovers {
                ep.detect_ns = Some(since);
            }
            if ep.detect_ns.is_some() && ep.recovery_ns.is_none() && regions_served(&cluster) {
                ep.recovery_ns = Some(since);
            }
        }
        if let (Some(ep), Some(at)) = (episode.as_mut(), client_crash.filter(|_| client_down)) {
            if ep.client_recovery_ns.is_none()
                && cluster.rm.client_recovery_count() > client_recoveries
            {
                ep.client_recovery_ns = Some((now - at).nanos());
            }
        }
        if traced && slice.is_multiple_of(SAMPLE_EVERY) {
            sample(&cluster, &mut out);
        }
    }
    out.window_host_ns = timer.elapsed_ns() - out.reference_ns;
    out.counters = before.until(&Counters::read(&cluster));
    let live: Vec<_> = cluster.servers.iter().filter(|s| s.is_alive()).collect();
    out.cache_hit_rate = live.iter().map(|s| s.cache_hit_rate()).sum::<f64>() / live.len() as f64;
    out.read_amplification = cluster.max_read_amplification();

    cluster.run_for(DRAIN);
    if !drain_flushes(&cluster, client_down, client_recoveries) {
        out.failures
            .push("acknowledged write-sets never reached the store".to_owned());
        out.failed += 1;
    }
    let txns = gen.txns().clone();
    if let (Some(ep), Some(crash), Some(until), Arrival::Open(rate)) =
        (episode.as_mut(), server_crash, client_crash, spec.arrival)
    {
        ep.restore_ns = restore_time(&txns, crash.nanos(), until.nanos(), rate);
    }
    out.episode = episode;
    let (violations, rows_checked) = check_rows(&cluster, &txns);
    out.rows_checked = rows_checked;
    out.acked_lost = violations.iter().filter(|v| v.is_acked_lost()).count() as u64;
    out.failed += violations.len() as u64 + gen.bad_reads();
    out.failures
        .extend(violations.iter().take(20).map(|v| v.to_string()));
    if gen.bad_reads() > 0 {
        out.failures.push(format!(
            "{} reads returned a wrong row or value",
            gen.bad_reads()
        ));
    }

    let (lo, hi) = (window_start.nanos(), window_end.nanos());
    let in_window = |id: u64| (lo..hi).contains(&txns[id as usize].due);
    let committed: Vec<&TxnRec> = txns
        .iter()
        .filter(|t| in_window(t.id) && matches!(t.outcome, Outcome::Committed(_)))
        .collect();
    out.attempted = txns.iter().filter(|t| in_window(t.id)).count() as u64;
    out.committed = committed.len() as u64;
    out.user_bytes = committed
        .iter()
        .map(|t| (t.writes.len() * VALUE_LEN) as u64)
        .sum();
    out.response_ns = committed.iter().map(|t| t.end - t.due).collect();
    let spans = gen.take_spans();
    if traced {
        let bad = check::identity_violations(&committed, &spans);
        out.failed += bad.len() as u64;
        out.failures
            .extend(bad.iter().take(20).map(|(txn, response, sum)| {
                format!("txn {txn}: spans sum to {sum} ns, response time is {response} ns")
            }));
        for s in spans.iter().filter(|s| in_window(s.txn)) {
            out.span_ns
                .entry(s.layer)
                .or_default()
                .push(s.end - s.start);
        }
    }
    out.digest = digest(&txns);
    out.peak_rss_mb = timing::peak_rss_mb();
    (out, spans)
}

/// Digest of the simulated history: every transaction's due time,
/// outcome, end and writes.
fn digest(txns: &[TxnRec]) -> u64 {
    let mut h = Fnv::default();
    for t in txns {
        h.add(t.due);
        match t.outcome {
            Outcome::Pending => h.add(u64::MAX),
            Outcome::Committed(ts) => {
                h.add(ts.0);
                h.add(t.end);
            }
            Outcome::Aborted => h.add(t.end ^ 1 << 62),
            Outcome::Errored => h.add(t.end ^ 1 << 63),
        }
        h.add(u64::from(t.commit_sent));
        for &w in &t.writes {
            h.add(w);
        }
    }
    h.get()
}

/// Reads the gauges of the traced run into `s`.
fn sample(c: &Cluster, s: &mut Summary) {
    for srv in c.servers.iter().filter(|s| s.is_alive()) {
        s.queue_len.push(srv.handler_queue_len() as u64);
    }
    let backlog = c
        .clients
        .iter()
        .filter(|cl| cl.is_alive())
        .map(|cl| cl.pending_flushes() as u64)
        .sum();
    s.flush_backlog_max = s.flush_backlog_max.max(backlog);
    s.tm_active_max = s.tm_active_max.max(c.tm.active_count() as u64);
    s.log_len_max = s.log_len_max.max(c.tm.log().len() as u64);
}

/// Drives the cluster until every live client's acknowledged write-sets
/// have reached the store and, after a client crash, the recovery
/// manager has replayed the dead client's. Returns whether that happened
/// within [`FLUSH_LIMIT`].
fn drain_flushes(c: &Cluster, client_crashed: bool, recoveries_before: u64) -> bool {
    let deadline = c.now() + FLUSH_LIMIT;
    loop {
        let flushed = c
            .clients
            .iter()
            .filter(|cl| cl.is_alive())
            .all(|cl| cl.pending_flushes() == 0);
        let replayed = !client_crashed || c.rm.client_recovery_count() > recoveries_before;
        if flushed && replayed {
            return true;
        }
        if c.now() >= deadline {
            return false;
        }
        c.run_for(SimDuration::from_millis(100));
    }
}

/// The first 1 s bin after the crash from which every bin up to
/// `until` commits at least 0.9 x `rate`; as ns from the crash.
fn restore_time(txns: &[TxnRec], crash: u64, until: u64, rate: f64) -> Option<u64> {
    const BIN: u64 = 1_000_000_000;
    let bins = ((until - crash) / BIN) as usize;
    let mut commits = vec![0u64; bins];
    for t in txns {
        if matches!(t.outcome, Outcome::Committed(_)) && t.end >= crash {
            let b = ((t.end - crash) / BIN) as usize;
            if b < bins {
                commits[b] += 1;
            }
        }
    }
    let floor = 0.9 * rate;
    let first_ok = commits
        .iter()
        .rposition(|&n| (n as f64) < floor)
        .map_or(0, |last_bad| last_bad + 1);
    (first_ok < bins).then_some(first_ok as u64 * BIN)
}

/// Reads every written row back through a dedicated store client — the
/// path `Cluster::read_cell` takes, with [`CHECK_CONCURRENCY`] reads in
/// flight — and checks it against the write history.
fn check_rows(c: &Cluster, txns: &[TxnRec]) -> (Vec<Violation>, u64) {
    let history = check::history(txns);
    let node = c.net.add_node("checker");
    let probe = StoreClient::new(
        &c.sim,
        &c.net,
        node,
        &c.master,
        &c.dir,
        c.config().store_client_cfg,
    );
    let finals: Finals = Rc::default();
    let todo = Rc::new(RefCell::new(
        history.keys().copied().collect::<VecDeque<u64>>(),
    ));
    let rows = history.len();
    for _ in 0..CHECK_CONCURRENCY {
        read_next(&probe, &todo, &finals);
    }
    let deadline = c.now() + SimDuration::from_millis(1_000 + rows as u64);
    while finals.borrow().len() < rows && c.now() < deadline {
        c.run_for(SimDuration::from_millis(10));
    }
    let finals = finals.borrow();
    (check::lost_writes(&history, &finals), rows as u64)
}

type Finals = Rc<RefCell<BTreeMap<u64, Option<Vec<u8>>>>>;

/// Reads the next unchecked row; its callback reads the one after.
fn read_next(probe: &StoreClient, todo: &Rc<RefCell<VecDeque<u64>>>, finals: &Finals) {
    let Some(row) = todo.borrow_mut().pop_front() else {
        return;
    };
    let (p, todo, finals) = (probe.clone(), Rc::clone(todo), Rc::clone(finals));
    probe.get(
        Bytes::from(row_key(row)),
        Bytes::from_static(COLUMN.as_bytes()),
        Timestamp::MAX,
        move |vv| {
            let v = vv.and_then(|v| v.value).map(|b| b.to_vec());
            finals.borrow_mut().insert(row, v);
            read_next(&p, &todo, &finals);
        },
    );
}
