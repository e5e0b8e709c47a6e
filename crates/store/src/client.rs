//! The store client (the paper's "HBase client" library): region location
//! caching, request routing, timeouts and unbounded retries.
//!
//! The paper removes the client's retry and timeout limits so that an
//! interrupted flush keeps retrying until the affected region comes back
//! online (§3.2): "we work around this by removing the retry and timeout
//! limits so that the client keeps retrying until it succeeds."
//! [`StoreClient::multi_get`], [`StoreClient::scan`] and
//! [`StoreClient::multi_put`] therefore retry forever; their callbacks
//! fire exactly once, on success. A [`StoreClient::get`] is a one-cell
//! `multi_get`. Scans additionally continue across region boundaries,
//! walking regions in key order one leg at a time.
//!
//! Every request — a put batch, a per-region read group, a scan leg —
//! goes through one request loop: route by the cached region map, send,
//! arm the timeout; on an error reply, a timeout or no routable server,
//! refresh the map, back off and re-issue.

use crate::error::StoreError;
use crate::master::{Master, ServerDirectory};
use crate::memstore::VersionedValue;
use crate::region::RegionMap;
use crate::server::{RegionServer, ScanPage};
use crate::types::{Mutation, RegionId, ServerId, Timestamp, WriteSet};
use bytes::Bytes;
use cumulo_sim::metrics::{Counter, MetricsRegistry};
use cumulo_sim::{Network, NodeId, Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Store-client tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct StoreClientConfig {
    /// How long to wait for a response before treating the request as
    /// lost (dead or partitioned server).
    pub request_timeout: SimDuration,
    /// Delay before retrying a failed/timed-out request.
    pub retry_backoff: SimDuration,
    /// Cap on the exponential retry backoff.
    pub max_backoff: SimDuration,
    /// Minimum spacing between region-map refresh fetches, plus an
    /// epoch check: a routing failure whose observed map epoch is
    /// already stale (the cache advanced since the op was routed) skips
    /// the fetch entirely. `ZERO` (the default) disables the debounce —
    /// every routing failure past the inflight flag triggers a fetch,
    /// the pre-debounce behavior calibrated experiments replay
    /// byte-for-byte. Enable on clusters where mass splits make whole
    /// client fleets re-fetch the full map per retrying op.
    pub min_refresh_interval: SimDuration,
}

impl Default for StoreClientConfig {
    fn default() -> Self {
        StoreClientConfig {
            request_timeout: SimDuration::from_millis(60),
            retry_backoff: SimDuration::from_millis(15),
            max_backoff: SimDuration::from_millis(500),
            min_refresh_interval: SimDuration::ZERO,
        }
    }
}

struct Inner {
    sim: Sim,
    net: Rc<Network>,
    from: NodeId,
    master: Rc<Master>,
    dir: Rc<ServerDirectory>,
    map: RefCell<RegionMap>,
    cfg: StoreClientConfig,
    refresh_inflight: Cell<bool>,
    /// Completion instant of the last map refresh, for the
    /// `min_refresh_interval` debounce (`None` = never refreshed).
    last_refresh: Cell<Option<u64>>,
    retries: Counter,
    gets_ok: Counter,
    puts_ok: Counter,
    multi_get_rpcs: Counter,
    scan_leg_rpcs: Counter,
    scans_ok: Counter,
    refresh_skips: Counter,
}

/// A client-side handle to the distributed store. Cheap to clone.
#[derive(Clone)]
pub struct StoreClient {
    inner: Rc<Inner>,
}

impl fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreClient")
            .field("from", &self.inner.from)
            .field("retries", &self.inner.retries.get())
            .finish()
    }
}

impl StoreClient {
    /// Creates a client on node `from`, seeded with the master's current
    /// region map.
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        from: NodeId,
        master: &Rc<Master>,
        dir: &Rc<ServerDirectory>,
        cfg: StoreClientConfig,
    ) -> StoreClient {
        StoreClient {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                net: Rc::clone(net),
                from,
                master: Rc::clone(master),
                dir: Rc::clone(dir),
                map: RefCell::new(master.snapshot_map()),
                cfg,
                refresh_inflight: Cell::new(false),
                last_refresh: Cell::new(None),
                retries: Counter::new(),
                gets_ok: Counter::new(),
                puts_ok: Counter::new(),
                multi_get_rpcs: Counter::new(),
                scan_leg_rpcs: Counter::new(),
                scans_ok: Counter::new(),
                refresh_skips: Counter::new(),
            }),
        }
    }

    /// The node requests are issued from.
    pub fn from_node(&self) -> NodeId {
        self.inner.from
    }

    /// Reads the newest version of `(row, column)` visible at `snapshot`:
    /// a one-cell [`StoreClient::multi_get`]. Retries (with location
    /// refresh) until it succeeds; `done` fires exactly once.
    pub fn get(
        &self,
        row: Bytes,
        column: Bytes,
        snapshot: Timestamp,
        done: impl FnOnce(Option<VersionedValue>) + 'static,
    ) {
        self.multi_get(vec![(row, column)], snapshot, move |mut values| {
            done(values.pop().flatten())
        });
    }

    /// Flushes one transaction's mutations for one region to its hosting
    /// server, retrying forever (paper §3.2). `floor` piggybacks the
    /// failed server's persisted threshold during server-recovery replay;
    /// `replay` write-sets may target regions still under recovery.
    pub fn multi_put(
        &self,
        region: RegionId,
        ts: Timestamp,
        mutations: Vec<Mutation>,
        floor: Option<Timestamp>,
        replay: bool,
        done: impl FnOnce() + 'static,
    ) {
        put_attempt(
            Rc::clone(&self.inner),
            region,
            ts,
            mutations,
            floor,
            replay,
            0,
            Box::new(done),
        );
    }

    /// Batched point read: fetches the newest version of every
    /// `(row, column)` in `cells` visible at `snapshot`, issuing **one
    /// RPC per region** (cells are grouped by the cached region map,
    /// mirroring [`StoreClient::group_write_set`] on the write path).
    /// Results are returned in input order. Groups retry independently
    /// (with location refresh and re-grouping after an online split)
    /// until every cell is served; `done` fires exactly once, on success
    /// of the whole batch.
    pub fn multi_get(
        &self,
        cells: Vec<(Bytes, Bytes)>,
        snapshot: Timestamp,
        done: impl FnOnce(Vec<Option<VersionedValue>>) + 'static,
    ) {
        let n = cells.len();
        if n == 0 {
            let sim = self.inner.sim.clone();
            sim.schedule_in(SimDuration::ZERO, move || done(Vec::new()));
            return;
        }
        let ctx = Rc::new(MultiGetCtx {
            results: RefCell::new(vec![None; n]),
            remaining: Cell::new(n),
            done: RefCell::new(Some(Box::new(done))),
        });
        let cells = cells.into_iter().enumerate().map(|(i, (r, c))| (i, r, c));
        let groups = group_by_region(&self.inner.map.borrow(), cells, |(_, row, _)| row);
        for (region, group) in groups {
            read_attempt(
                Rc::clone(&self.inner),
                region,
                group,
                snapshot,
                0,
                Rc::clone(&ctx),
            );
        }
    }

    /// Scans `[start, end)` at `snapshot` (end-exclusive; `None` = to
    /// the end of the table), returning up to `limit` cells in
    /// `(row, column)` order, merged across **every region the range
    /// covers** — not just the region containing `start`.
    ///
    /// The scan is a continuation loop walking regions in key order:
    /// each leg asks the region hosting the cursor for the *remaining*
    /// limit, and the reply ([`crate::ScanPage`]) carries the serving
    /// region's exclusive end bound, which becomes the next cursor. The
    /// resume key is server truth, so a split, merge, move or failover
    /// landing mid-scan neither drops nor duplicates cells at the new
    /// boundary: a failed leg retries *at the same cursor* with a
    /// refreshed map (the `WrongRegion`-style self-healing the write
    /// path uses), and snapshot reads are independent of region
    /// structure. Retries until served; `done` fires exactly once.
    pub fn scan(
        &self,
        start: Bytes,
        end: Option<Bytes>,
        snapshot: Timestamp,
        limit: usize,
        done: impl FnOnce(Vec<(Bytes, Bytes, VersionedValue)>) + 'static,
    ) {
        let scan = Scan {
            end,
            snapshot,
            acc: Vec::new(),
            done: Box::new(done),
        };
        scan_leg(Rc::clone(&self.inner), start, limit, scan, 0);
    }

    /// Splits a write-set by destination region using the cached map.
    /// Boundaries can change under us (online splits), but a stale
    /// grouping self-heals: the server answers `WrongRegion` for a
    /// split-away region id and [`StoreClient::multi_put`] re-groups by
    /// the refreshed map before retrying.
    pub fn group_write_set(&self, ws: &WriteSet) -> BTreeMap<RegionId, Vec<Mutation>> {
        let mutations = ws.mutations.iter().cloned();
        group_by_region(&self.inner.map.borrow(), mutations, |m| &m.row)
    }

    /// The region containing `row` (static boundary lookup).
    pub fn region_for(&self, row: &[u8]) -> RegionId {
        self.inner.map.borrow().region_for(row)
    }

    /// Re-seeds the cached region map directly from the master (harness
    /// wiring for clients constructed before the table was bootstrapped;
    /// steady-state refreshes go through the network).
    pub fn reseed_region_map(&self) {
        *self.inner.map.borrow_mut() = self.inner.master.snapshot_map();
    }

    /// Adopts this client's request counters into `registry` under
    /// `store_client.*{labels}`. Cluster wiring; call once per client.
    pub fn register_metrics(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        let i = &self.inner;
        for (name, counter) in [
            ("store_client.retries", &i.retries),
            ("store_client.gets_ok", &i.gets_ok),
            ("store_client.puts_ok", &i.puts_ok),
            ("store_client.multi_get_rpcs", &i.multi_get_rpcs),
            ("store_client.scan_leg_rpcs", &i.scan_leg_rpcs),
            ("store_client.scans_ok", &i.scans_ok),
            ("store_client.refresh_skips", &i.refresh_skips),
        ] {
            registry.register_counter(name, labels, counter);
        }
    }

    /// Total request retries performed (timeouts + not-serving).
    pub fn retry_count(&self) -> u64 {
        self.inner.retries.get()
    }

    /// Cells read successfully (a get is one cell; a batched read counts
    /// every cell of each served group).
    pub fn gets_ok(&self) -> u64 {
        self.inner.gets_ok.get()
    }

    /// Read RPCs issued to region servers: one per region per
    /// [`StoreClient::multi_get`] (so one per [`StoreClient::get`]) in
    /// the failure-free case; retries and post-split re-groups add more.
    /// The acceptance counter for "N cells spanning R regions cost
    /// exactly R round trips".
    pub fn multi_get_rpcs(&self) -> u64 {
        self.inner.multi_get_rpcs.get()
    }

    /// Acknowledged multi-puts.
    pub fn puts_ok(&self) -> u64 {
        self.inner.puts_ok.get()
    }

    /// Per-region scan leg RPCs issued (continuation legs + retries; a
    /// scan confined to one region issues exactly one).
    pub fn scan_leg_rpcs(&self) -> u64 {
        self.inner.scan_leg_rpcs.get()
    }

    /// Completed scans (every continuation leg served).
    pub fn scans_ok(&self) -> u64 {
        self.inner.scans_ok.get()
    }

    /// Region-map refresh fetches skipped by the epoch / min-interval
    /// debounce ([`StoreClientConfig::min_refresh_interval`]).
    pub fn refresh_skips(&self) -> u64 {
        self.inner.refresh_skips.get()
    }
}

/// Groups `items` by the region `map` routes each item's row to.
fn group_by_region<T>(
    map: &RegionMap,
    items: impl IntoIterator<Item = T>,
    row: impl Fn(&T) -> &Bytes,
) -> BTreeMap<RegionId, Vec<T>> {
    let mut groups: BTreeMap<RegionId, Vec<T>> = BTreeMap::new();
    for item in items {
        groups
            .entry(map.region_for(row(&item)))
            .or_default()
            .push(item);
    }
    groups
}

/// Whether the cached map no longer has `region` (split or merged away),
/// so a batch grouped under it must be re-grouped. An empty map just
/// means the client pre-dates bootstrap; the ordinary refresh-and-retry
/// handles that.
fn region_gone(inner: &Inner, region: RegionId) -> bool {
    let map = inner.map.borrow();
    !map.regions().is_empty() && map.descriptor(region).is_none()
}

fn backoff(inner: &Inner, attempt: u32) -> SimDuration {
    let factor = 1u64 << attempt.min(5);
    let d = inner.cfg.retry_backoff * factor;
    let d = d.min(inner.cfg.max_backoff);
    inner.sim.jitter(d, 0.3)
}

/// Refreshes the cached region map from the master, debounced by the
/// inflight flag and — when [`StoreClientConfig::min_refresh_interval`]
/// is non-zero — by an epoch check and a minimum fetch spacing.
///
/// `observed_epoch` is the cached map's epoch at the moment the failed
/// operation was *routed*. If the cache has advanced past it, a refresh
/// already landed since that routing decision and re-fetching cannot
/// teach this client anything the retry will not already use — the
/// stampede after a mass-split storm, where every retrying op on every
/// client re-fetched the full map. With the default `ZERO` interval both
/// checks are skipped and the legacy fetch-per-failure behavior (and its
/// exact message schedule) is preserved.
fn refresh_map(inner: &Rc<Inner>, observed_epoch: u64) {
    if inner.refresh_inflight.get() {
        return;
    }
    if !inner.cfg.min_refresh_interval.is_zero() {
        if inner.map.borrow().epoch() > observed_epoch {
            inner.refresh_skips.inc();
            return;
        }
        if let Some(last) = inner.last_refresh.get() {
            let now = inner.sim.now().nanos();
            if now.saturating_sub(last) < inner.cfg.min_refresh_interval.nanos() {
                inner.refresh_skips.inc();
                return;
            }
        }
    }
    inner.refresh_inflight.set(true);
    let master = Rc::clone(&inner.master);
    let net = Rc::clone(&inner.net);
    let from = inner.from;
    let inner2 = Rc::clone(inner);
    inner.net.send(from, master.node(), 64, move || {
        let snapshot = master.snapshot_map();
        let size = 64 + snapshot.assignments().len() * 16;
        net.send(master.node(), from, size, move || {
            *inner2.map.borrow_mut() = snapshot;
            inner2.last_refresh.set(Some(inner2.sim.now().nanos()));
            inner2.refresh_inflight.set(false);
        });
    });
}

/// The server side of one request: calls the region server's handler
/// and answers `reply` with the reply's wire size and the result.
type Reply<R> = Box<dyn FnOnce(usize, Result<R, StoreError>)>;

/// The one request loop behind put batches, read groups and scan legs
/// (paper §3.2: retry until success). Routes by the cached map, sends
/// `size` bytes (counting the send in `sends`), and arms the request
/// timeout. The first of reply and timeout settles the request: a
/// served reply hands `then` the result; an error reply, a timeout, or
/// no routable server in the first place goes to [`retry`], which hands
/// `then` a `None` after the backoff; `then` re-issues at `attempt + 1`,
/// re-grouping first if the map moved.
fn call<R: 'static>(
    inner: Rc<Inner>,
    attempt: u32,
    route: impl FnOnce(&RegionMap) -> Option<ServerId>,
    size: usize,
    sends: Option<&Counter>,
    serve: impl FnOnce(&Rc<RegionServer>, Reply<R>) + 'static,
    then: impl FnOnce(Rc<Inner>, Option<R>) + 'static,
) {
    if !inner.net.is_alive(inner.from) {
        return; // the client process is dead; drop the retry chain
    }
    let (routed_epoch, server) = {
        let map = inner.map.borrow();
        (map.epoch(), route(&map))
    };
    let Some(server) = server.and_then(|s| inner.dir.get(s)) else {
        retry(inner, routed_epoch, attempt, then);
        return;
    };
    if let Some(sends) = sends {
        sends.inc();
    }
    // Whichever of reply and timeout takes `then` first settles the
    // request; the other finds `None` and does nothing.
    let pending = Rc::new(RefCell::new(Some(then)));
    let (from, to) = (inner.from, server.node());
    {
        let inner2 = Rc::clone(&inner);
        let pending = Rc::clone(&pending);
        let net = Rc::clone(&inner.net);
        inner.net.send(from, to, size, move || {
            let reply: Reply<R> = Box::new(move |size, result| {
                net.send(to, from, size, move || {
                    let Some(then) = pending.borrow_mut().take() else {
                        return;
                    };
                    match result {
                        Ok(reply) => then(inner2, Some(reply)),
                        Err(_) => retry(inner2, routed_epoch, attempt, then),
                    }
                });
            });
            serve(&server, reply);
        });
    }
    let inner2 = Rc::clone(&inner);
    inner.sim.schedule_in(inner.cfg.request_timeout, move || {
        let then = pending.borrow_mut().take();
        if let Some(then) = then {
            retry(inner2, routed_epoch, attempt, then);
        }
    });
}

/// Counts a retry, refreshes the map, draws the backoff (in that order:
/// the refresh's messages precede the jitter draw), then re-enters
/// `then` with `None` once the backoff has elapsed.
fn retry<R>(
    inner: Rc<Inner>,
    routed_epoch: u64,
    attempt: u32,
    then: impl FnOnce(Rc<Inner>, Option<R>) + 'static,
) {
    inner.retries.inc();
    refresh_map(&inner, routed_epoch);
    let wait = backoff(&inner, attempt);
    let inner2 = Rc::clone(&inner);
    inner.sim.schedule_in(wait, move || then(inner2, None));
}

#[allow(clippy::too_many_arguments)]
fn put_attempt(
    inner: Rc<Inner>,
    region: RegionId,
    ts: Timestamp,
    mutations: Vec<Mutation>,
    floor: Option<Timestamp>,
    replay: bool,
    attempt: u32,
    done: Box<dyn FnOnce()>,
) {
    // The addressed region id may have been split away since the batch
    // was grouped (the server answers `WrongRegion` and a map refresh
    // landed): re-group the mutations by the current boundaries and fan
    // the batch out to the daughters, completing `done` once all parts
    // are acknowledged. Mutation replay stays idempotent (same commit
    // timestamp), so a partial earlier delivery is harmless.
    if region_gone(&inner, region) {
        let groups = group_by_region(&inner.map.borrow(), mutations, |m| &m.row);
        if groups.is_empty() {
            done();
            return;
        }
        let pending = Rc::new(Cell::new(groups.len()));
        let done_cell: Rc<RefCell<Option<Box<dyn FnOnce()>>>> = Rc::new(RefCell::new(Some(done)));
        for (sub_region, muts) in groups {
            let pending2 = Rc::clone(&pending);
            let done_cell2 = Rc::clone(&done_cell);
            put_attempt(
                Rc::clone(&inner),
                sub_region,
                ts,
                muts,
                floor,
                replay,
                attempt,
                Box::new(move || {
                    pending2.set(pending2.get() - 1);
                    if pending2.get() == 0 {
                        let done = done_cell2.borrow_mut().take().expect("single completion");
                        done();
                    }
                }),
            );
        }
        return;
    }
    let size = 64 + mutations.iter().map(Mutation::wire_size).sum::<usize>();
    let sent = mutations.clone();
    call(
        inner,
        attempt,
        |map| map.server_for(region),
        size,
        None,
        move |server, reply| {
            server.handle_multi_put(region, ts, sent, floor, replay, move |r| reply(48, r))
        },
        move |inner, served| match served {
            Some(()) => {
                inner.puts_ok.inc();
                done();
            }
            None => put_attempt(
                inner,
                region,
                ts,
                mutations,
                floor,
                replay,
                attempt + 1,
                done,
            ),
        },
    );
}

/// Shared completion state of one [`StoreClient::multi_get`]: per-region
/// groups fill `results` independently; the last cell served fires
/// `done`.
struct MultiGetCtx {
    results: RefCell<Vec<Option<VersionedValue>>>,
    remaining: Cell<usize>,
    done: RefCell<Option<Box<dyn FnOnce(Vec<Option<VersionedValue>>)>>>,
}

/// One per-region group of a [`StoreClient::multi_get`] (`(input index,
/// row, column)` per cell), sent as one read RPC. Request
/// `56 + Σ(8 + |row| + |column|)` bytes, reply `32 + 64·cells` whether
/// served or bounced.
fn read_attempt(
    inner: Rc<Inner>,
    region: RegionId,
    group: Vec<(usize, Bytes, Bytes)>,
    snapshot: Timestamp,
    attempt: u32,
    ctx: Rc<MultiGetCtx>,
) {
    // The addressed region id may have been split away since the batch
    // was grouped: re-group this group's cells by the current boundaries
    // and fan out to the daughters (same self-healing as `put_attempt`).
    if region_gone(&inner, region) {
        let groups = group_by_region(&inner.map.borrow(), group, |(_, row, _)| row);
        for (sub_region, sub) in groups {
            read_attempt(
                Rc::clone(&inner),
                sub_region,
                sub,
                snapshot,
                attempt,
                Rc::clone(&ctx),
            );
        }
        return;
    }
    let cells: Vec<(Bytes, Bytes)> = group
        .iter()
        .map(|(_, r, c)| (r.clone(), c.clone()))
        .collect();
    let size = 56
        + cells
            .iter()
            .map(|(r, c)| 8 + r.len() + c.len())
            .sum::<usize>();
    let reply_size = 32 + 64 * cells.len();
    let sends = inner.multi_get_rpcs.clone();
    call(
        inner,
        attempt,
        |map| map.server_for(region),
        size,
        Some(&sends),
        move |server, reply| {
            server.handle_multi_get(cells, snapshot, move |r| reply(reply_size, r))
        },
        move |inner, served| match served {
            Some(values) => {
                inner.gets_ok.add(group.len() as u64);
                complete_multi_get_group(&ctx, &group, values);
            }
            None => read_attempt(inner, region, group, snapshot, attempt + 1, ctx),
        },
    );
}

/// Writes one served group's values into the batch result (input order)
/// and fires the batch completion when the last cell lands.
fn complete_multi_get_group(
    ctx: &Rc<MultiGetCtx>,
    group: &[(usize, Bytes, Bytes)],
    values: Vec<Option<VersionedValue>>,
) {
    debug_assert_eq!(group.len(), values.len());
    {
        let mut results = ctx.results.borrow_mut();
        for ((i, _, _), vv) in group.iter().zip(values) {
            results[*i] = vv;
        }
    }
    ctx.remaining.set(ctx.remaining.get() - group.len());
    if ctx.remaining.get() == 0 {
        let done = ctx.done.borrow_mut().take().expect("single completion");
        done(std::mem::take(&mut *ctx.results.borrow_mut()));
    }
}

/// A cross-region scan in flight: its bounds, the cells accumulated by
/// the legs served so far, and the caller's completion. Travels intact
/// through leg retries — only a *served* page ever extends it.
struct Scan {
    end: Option<Bytes>,
    snapshot: Timestamp,
    acc: Vec<(Bytes, Bytes, VersionedValue)>,
    done: Box<dyn FnOnce(Vec<(Bytes, Bytes, VersionedValue)>)>,
}

/// One continuation leg of a cross-region scan: asks the region hosting
/// `cursor` for up to `remaining` cells of `[cursor, end)`, then either
/// completes the scan or continues at the served region's end bound
/// (see [`crate::ScanPage`]). Errors and timeouts retry the *same* leg —
/// same cursor, same remaining budget, accumulated cells untouched —
/// after a map refresh, so a split, merge, move or failover landing
/// mid-scan cannot drop or duplicate cells: the cursor only ever
/// advances to a bound some server actually served through.
fn scan_leg(inner: Rc<Inner>, cursor: Bytes, remaining: usize, scan: Scan, attempt: u32) {
    let (start, end, snapshot) = (cursor.clone(), scan.end.clone(), scan.snapshot);
    let row = cursor.clone();
    let sends = inner.scan_leg_rpcs.clone();
    call(
        inner,
        attempt,
        |map| map.locate(&row).1,
        96,
        Some(&sends),
        move |server, reply| {
            server.handle_scan(start, end, snapshot, remaining, move |r| {
                reply(64 + r.as_ref().map_or(0, |p| p.cells.len() * 64), r)
            })
        },
        move |inner, served| match served {
            Some(page) => advance_scan(inner, remaining, scan, page),
            None => scan_leg(inner, cursor, remaining, scan, attempt + 1),
        },
    );
}

/// Completion step of one served scan leg: absorb the page, then finish
/// — limit filled, table end reached, or requested end covered by the
/// region just served — or issue the next leg at the region's end bound.
fn advance_scan(inner: Rc<Inner>, remaining: usize, mut scan: Scan, page: ScanPage) {
    let got = page.cells.len();
    scan.acc.extend(page.cells);
    let left = remaining.saturating_sub(got);
    let covered = match (&page.region_end, &scan.end) {
        (None, _) => true,              // the region extends to the table end
        (Some(re), Some(e)) => re >= e, // the requested end is inside the region
        (Some(_), None) => false,       // more table to the right
    };
    if left == 0 || covered {
        inner.scans_ok.inc();
        (scan.done)(scan.acc);
        return;
    }
    let next = page.region_end.expect("covered handles None");
    scan_leg(inner, next, left, scan, 0);
}
