//! Batched-read microbench: store round trips and tail latency of the
//! `multi_get` path versus sequential point gets.
//!
//! Two phases run the *same* batched read-modify-write workload (the
//! ycsb `multi_get` op draws its whole batch up front, so both phases
//! execute identical logical transactions) on identically built,
//! identically seeded clusters:
//!
//! * **unbatched** — `multi_get_batched = false`: every cell of the
//!   batch is fetched with its own `get`, one store round trip each;
//! * **batched** — `multi_get_batched = true`: the batch travels through
//!   `Transaction::multi_get`, one store RPC per region touched.
//!
//! The CSV reports committed throughput, mean/p95/p99 response time, the
//! store round trips actually issued (client get + multi-get RPC
//! counters) and the resulting round trips per committed transaction.
//! The service-time model charges the same per-cell read work either
//! way, so the delta isolates what batching saves: message round trips
//! and per-request base cost.
//!
//! Run: `cargo run --release -p cumulo-bench --bin multi_get_bench`
//! (`CUMULO_QUICK=1` for the CI smoke run). CSV on stdout is
//! byte-identical across runs of the same build (determinism probe — CI
//! runs it twice and diffs).

use cumulo_bench::report::{
    kv, print_timeline, report_fields, timeline_json, BenchArgs, BenchReport,
};
use cumulo_bench::run_measurement;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_ycsb::Workload;

fn main() {
    let args = BenchArgs::parse();
    let quick = std::env::var("CUMULO_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let rows: u64 = if quick { 20_000 } else { 100_000 };
    let measure_secs = if quick { 12 } else { 45 };
    let mut rep = BenchReport::new("multi_get_bench");
    rep.config("rows", rows);
    rep.config("measure_secs", measure_secs as u64);
    rep.config("quick", quick);

    println!(
        "mode,committed,aborted,throughput_tps,mean_ms,p95_ms,p99_ms,\
         round_trips,round_trips_per_txn"
    );
    let mut tps = [0.0f64; 2];
    let mut p99 = [0.0f64; 2];
    let mut trips = [0u64; 2];
    for (i, batched) in [false, true].into_iter().enumerate() {
        // A fresh, identically seeded cluster per mode: both phases see
        // the same region layout, file stacks and cache state.
        let cluster = Cluster::build(ClusterConfig {
            seed: 6161,
            servers: 2,
            clients: 16,
            regions: 4,
            key_count: rows,
            ..ClusterConfig::default()
        });
        cluster.load_rows(rows, &["f0"], 100, true);
        let workload = Workload {
            record_count: rows,
            threads: 16,
            // Every op is a batched RMW of 8 cells: the read-dominated
            // shape where round trips are the bottleneck.
            ops_per_txn: 2,
            multi_get_ratio: 1.0,
            multi_get_batch: 8,
            multi_get_batched: batched,
            window: SimDuration::from_secs(5),
            ..Workload::default()
        };
        let round_trips_before = store_round_trips(&cluster);
        let (driver, r) = run_measurement(
            &cluster,
            workload,
            SimDuration::from_secs(2),
            SimDuration::from_secs(measure_secs),
        );
        let round_trips = store_round_trips(&cluster) - round_trips_before;
        let label = if batched { "batched" } else { "unbatched" };
        if args.timeline {
            print_timeline(label, &driver.windows(), driver.window());
        }
        let per_txn = if r.committed == 0 {
            0.0
        } else {
            round_trips as f64 / r.committed as f64
        };
        tps[i] = r.throughput_tps;
        p99[i] = r.p99_ms;
        trips[i] = round_trips;
        println!(
            "{label},{},{},{:.1},{:.2},{:.2},{:.2},{round_trips},{per_txn:.2}",
            r.committed, r.aborted, r.throughput_tps, r.mean_ms, r.p95_ms, r.p99_ms,
        );
        eprintln!(
            "[multi_get_bench] {label:>9}: {:6.1} tps, mean {:6.2} ms, p99 {:6.2} ms, \
             {round_trips} read round trips ({per_txn:.2}/txn)",
            r.throughput_tps, r.mean_ms, r.p99_ms,
        );
        let mut fields = vec![kv("mode", label)];
        fields.extend(report_fields(&r));
        fields.extend([
            kv("round_trips", round_trips),
            kv("round_trips_per_txn", per_txn),
            (
                "timeline".to_owned(),
                timeline_json(&driver.windows(), driver.window()),
            ),
        ]);
        rep.phase(fields);
        rep.cluster(label, &cluster);
    }
    assert!(
        trips[1] < trips[0],
        "batching must cut read round trips ({} -> {})",
        trips[0],
        trips[1]
    );
    eprintln!(
        "[multi_get_bench] batching: round trips {} -> {}, tps {:.1} -> {:.1}, \
         p99 {:.2} ms -> {:.2} ms",
        trips[0], trips[1], tps[0], tps[1], p99[0], p99[1],
    );
    rep.write(&args);
}

/// Read round trips issued by the cluster's transactional clients: one
/// read RPC per lone get and per region of a multi-get.
fn store_round_trips(cluster: &Cluster) -> u64 {
    cluster
        .clients
        .iter()
        .map(|c| c.store_client().multi_get_rpcs())
        .sum()
}
