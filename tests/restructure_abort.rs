//! Server-side abort of a granted split or merge.
//!
//! Once the master has persisted an intent, the server builds reference
//! files and writes their marker files before the flip. If a marker write
//! fails, the server must abandon the operation and the master must roll
//! the intent back with nothing changed: the region map and its epoch are
//! untouched, every committed row is still served by the sources, no
//! backing-file hold is left behind, and a later operation on the same
//! regions completes. The failure is injected by pre-creating the first
//! marker's path, so the server's `create` returns `AlreadyExists`.

use cumulo_core::{Cluster, ClusterConfig};
use cumulo_dfs::DfsClient;
use cumulo_sim::SimDuration;
use cumulo_store::{RegionId, RestructureKind};
use std::cell::Cell;
use std::rc::Rc;

const ROWS: u64 = 200;

fn key(i: u64) -> String {
    format!("user{i:012}")
}

/// One server, so every source is co-hosted and the target ids the master
/// allocates are predictable. A split runs from the candidacy timer on a
/// single loaded region; a merge is requested on two adjacent regions
/// (the merge timer drives it, but a zero threshold keeps the timer from
/// proposing merges of its own).
fn cluster(kind: RestructureKind) -> Cluster {
    let split = kind == RestructureKind::Split;
    let mut cfg = ClusterConfig {
        seed: 5,
        servers: 1,
        clients: 1,
        regions: if split { 1 } else { 2 },
        key_count: ROWS,
        splits: split,
        split_threshold_bytes: 1,
        merges: !split,
        merge_threshold_bytes: 0,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.split.check_interval = SimDuration::from_millis(300);
    cfg.server_cfg.merge.check_interval = SimDuration::from_millis(300);
    Cluster::build(cfg)
}

/// Creates `path` in the filesystem and drives the simulation until the
/// namenode has it.
fn precreate(cluster: &Cluster, path: &str) {
    let node = cluster.net.add_node("saboteur");
    let dfs = DfsClient::new(&cluster.sim, &cluster.net, &cluster.namenode, node);
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    dfs.create(path, move |file| {
        file.expect("sabotage path is fresh");
        d.set(true);
    });
    while !done.get() {
        cluster.run_for(SimDuration::from_millis(10));
    }
}

/// Commits one transactional write per tenth row, on top of the loaded
/// version-0 rows, and waits for the commits.
fn commit_rows(cluster: &Cluster) {
    let committed = Rc::new(Cell::new(0u64));
    for i in (0..ROWS).step_by(10) {
        let c = Rc::clone(&committed);
        cluster.client(0).begin(move |txn| {
            let txn = txn.expect("begin on live client");
            txn.put(key(i), "v", format!("w{i}")).expect("put");
            txn.commit(move |r| {
                r.expect("uncontended commit");
                c.set(c.get() + 1);
            });
        });
    }
    while committed.get() < ROWS / 10 {
        cluster.run_for(SimDuration::from_millis(50));
    }
    cluster.run_for(SimDuration::from_millis(500));
}

/// Every loaded and committed row reads back with its value.
fn assert_rows_served(cluster: &Cluster) {
    let within = SimDuration::from_secs(10);
    for i in 0..ROWS {
        let loaded = cluster.read_cell(key(i), "c", within);
        assert_eq!(loaded.as_deref(), Some(&[0x61u8; 8][..]), "row {i}");
        if i % 10 == 0 {
            let written = cluster.read_cell(key(i), "v", within);
            assert_eq!(
                written.as_deref(),
                Some(format!("w{i}").as_bytes()),
                "row {i}"
            );
        }
    }
}

fn run_until(cluster: &Cluster, what: &str, pred: impl Fn() -> bool) {
    let deadline = cluster.now() + SimDuration::from_secs(30);
    while !pred() {
        assert!(
            cluster.now() < deadline,
            "timed out waiting for {what}\n{}",
            cluster.events.dump()
        );
        cluster.run_for(SimDuration::from_millis(10));
    }
}

fn abort_then_complete(kind: RestructureKind) {
    let cluster = cluster(kind);
    // Server counters summed with the master's intent counters.
    let totals = || match kind {
        RestructureKind::Split => cluster.split_totals(),
        RestructureKind::Merge => cluster.merge_totals(),
    };
    let map = cluster.master.snapshot_map();
    let sources: Vec<RegionId> = map.regions().iter().map(|d| d.id).collect();
    let first_target = RegionId(map.max_region_id().expect("bootstrapped").0 + 1);
    // Reference markers are named after their source file (the loaded
    // file is `loaded`), prefixed by the source id when there are
    // several sources; the first marker is the first source's first file
    // cut for the first target.
    let marker = match kind {
        RestructureKind::Split => format!("/store/{first_target}/ref-loaded"),
        RestructureKind::Merge => format!("/store/{first_target}/ref-{}-loaded", sources[0].0),
    };
    precreate(&cluster, &marker);
    cluster.load_rows(ROWS, &["c"], 8, false);
    commit_rows(&cluster);
    let before = cluster.master.snapshot_map();
    if kind == RestructureKind::Merge {
        assert!(cluster.request_merge(sources[0], sources[1]));
    }

    run_until(&cluster, "the rollback", || totals().rolled_back == 1);
    let t = totals();
    assert_eq!(t.server_aborted, 1, "server-side abort counted once");
    assert_eq!((t.completed, t.applied), (0, 0));
    let after = cluster.master.snapshot_map();
    assert_eq!(
        after.regions(),
        before.regions(),
        "map changed by an aborted op"
    );
    assert_eq!(
        after.epoch(),
        before.epoch(),
        "epoch bumped by an aborted op"
    );
    for source in &sources {
        let loaded = format!("/store/{source}/loaded");
        assert_eq!(
            cluster.registry.backing_ref_count(&loaded),
            0,
            "hold leaked on {loaded}"
        );
    }
    assert_rows_served(&cluster);

    // The same regions restructure successfully afterwards.
    if kind == RestructureKind::Merge {
        assert!(cluster.request_merge(sources[0], sources[1]));
    }
    run_until(&cluster, "a later op", || totals().applied >= 1);
    let t = totals();
    assert_eq!((t.server_aborted, t.rolled_back), (1, 1));
    let map = cluster.master.snapshot_map();
    for source in &sources {
        assert!(
            map.descriptor(*source).is_none(),
            "{source} still in the map"
        );
    }
    cluster.assert_region_partition();
    assert_rows_served(&cluster);
}

#[test]
fn failed_marker_write_aborts_and_rolls_back_split_and_merge() {
    for kind in [RestructureKind::Split, RestructureKind::Merge] {
        abort_then_complete(kind);
    }
}
