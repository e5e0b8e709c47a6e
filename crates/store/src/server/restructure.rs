//! Online region splits and merges: one restructure protocol replacing N
//! adjacent source regions with M target regions (see ARCHITECTURE.md,
//! "Online splits and merges"). A split is 1 → 2 at a key, a merge is
//! 2 → 1; only the candidacy pickers ([`RegionServer::check_splits`],
//! [`RegionServer::check_merges`], [`RegionServer::request_region_merge`])
//! and the replica-group handoff of a split's single source are
//! kind-specific. Every operation runs candidacy → flush → intent →
//! reference markers → atomic flip → map epoch, one at a time per server.

use super::{RegionServer, RegionState};
use crate::memstore::MemStore;
use crate::region::{restructure_event, RegionDescriptor, RestructureIntent, RestructureKind};
use crate::sstable::StoreFileData;
use crate::types::RegionId;
use bytes::Bytes;
use cumulo_sim::metrics::Counter;
use cumulo_sim::SimDuration;
use std::rc::Rc;

/// Shared observability for one kind of online restructure (all handles
/// clone cheaply and share state, like [`crate::CompactionStats`]). A
/// server keeps one for splits and one for merges.
#[derive(Clone, Default, Debug)]
pub struct RestructureStats {
    /// Candidacies accepted (a pending operation was set up).
    pub considered: Counter,
    /// Intent requests sent to the master.
    pub intents_requested: Counter,
    /// Intents whose execution reached the reference-building phase.
    pub executing: Counter,
    /// Operations flipped: the sources were atomically replaced by the
    /// targets.
    pub completed: Counter,
    /// Requests the master denied plus granted intents abandoned
    /// server-side (reference marker writes failed); master-side
    /// rollbacks are counted at the master.
    pub aborted: Counter,
}

/// The server-local state of the one in-flight structural operation.
pub(super) struct PendingRestructure {
    kind: RestructureKind,
    sources: Vec<RegionId>,
    boundaries: Vec<Bytes>,
    /// Whether the sources' pre-restructure flush has been issued.
    flush_issued: bool,
    /// Whether the intent request has been sent to the master.
    intent_sent: bool,
}

/// Everything a granted intent carries between the reference-building
/// phase, the marker writes and the flip.
struct RestructureWork {
    intent: RestructureIntent,
    /// Per target: its descriptor and its reference files, each with the
    /// level inherited from its source file (levels ≥ 1 stay pairwise
    /// disjoint: sources are disjoint and clipping only narrows).
    targets: Vec<(RegionDescriptor, Vec<(Rc<StoreFileData>, u32)>)>,
    /// `(marker path, marker content)` per reference, written to the
    /// filesystem before the flip so a failover can list the targets'
    /// file sets.
    markers: Vec<(String, Bytes)>,
}

/// The durable content of a reference marker file: which physical file
/// backs the reference and the clip range. (The simulation resolves
/// references through the shared registry; the marker's bytes exist so
/// the target directory listing — what a failover reads — is honest.)
fn encode_ref_marker(r: &StoreFileData) -> Bytes {
    let mut enc = crate::codec::Encoder::new();
    enc.put_bytes(r.backing_path().as_bytes());
    enc.put_u32(r.region().0);
    match r.key_range() {
        Some((min, max)) => {
            enc.put_u8(1);
            enc.put_bytes(min);
            enc.put_bytes(max);
        }
        None => enc.put_u8(0),
    }
    enc.finish()
}

/// The intersection of two key ranges, as `reference`'s clip bounds.
fn intersect<'a>(a: &'a RegionDescriptor, b: &'a RegionDescriptor) -> (&'a [u8], Option<&'a [u8]>) {
    let end = match (&a.end, &b.end) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x.as_ref(),
    };
    (std::cmp::max(&a.start, &b.start), end.map(|e| &e[..]))
}

impl RegionState {
    /// Whether the region may become a split or merge source: online, in
    /// no other structural operation, and done replaying recovered edits.
    fn restructurable(&self) -> bool {
        self.online && !self.splitting && self.recovered_paths.is_empty()
    }
}

impl RegionServer {
    /// Split observability: candidacies, intents, completions (shared
    /// handles; clone freely).
    pub fn split_stats(&self) -> &RestructureStats {
        &self.split_stats
    }

    /// Merge observability, the same counters as
    /// [`RegionServer::split_stats`] for merges.
    pub fn merge_stats(&self) -> &RestructureStats {
        &self.merge_stats
    }

    fn restructure_stats(&self, kind: RestructureKind) -> &RestructureStats {
        match kind {
            RestructureKind::Split => &self.split_stats,
            RestructureKind::Merge => &self.merge_stats,
        }
    }

    /// The shared head of a candidacy tick. One structural operation runs
    /// at a time per server: a pending `kind` operation is advanced, and
    /// a pending operation of the other kind defers this candidacy to the
    /// next tick, so their flush/quiescence phases never interleave.
    /// Returns whether a new `kind` candidate may be picked (the server is
    /// alive, wired to a master, and has nothing in flight).
    fn candidacy_open(self: &Rc<Self>, kind: RestructureKind) -> bool {
        if !self.alive.get() {
            return false;
        }
        let pending = self.pending_restructure.borrow().as_ref().map(|p| p.kind);
        match pending {
            Some(k) if k == kind => {
                self.advance_restructure();
                false
            }
            Some(_) => false,
            None => self.split_coord.borrow().is_some(),
        }
    }

    /// Counts one step of a `kind` operation in its stats and records
    /// `event` with the operation's journal detail.
    fn note(
        &self,
        kind: RestructureKind,
        counter: fn(&RestructureStats) -> &Counter,
        event: &'static str,
        sources: &[RegionId],
        targets: &[RegionId],
    ) {
        counter(self.restructure_stats(kind)).inc();
        self.events.borrow().record(self.sim.now(), event, || {
            format!("server={} {}", self.id, kind.detail(sources, targets))
        });
    }

    /// Sets or clears the sources' structural-op flags, which keep flush
    /// checks and new compactions away so the file sets stay stable.
    fn mark_sources(&self, sources: &[RegionId], splitting: bool) {
        let mut regions = self.regions.borrow_mut();
        for id in sources {
            if let Some(st) = regions.get_mut(id) {
                st.splitting = splitting;
            }
        }
    }

    /// The split candidacy check (fixed-phase timer).
    pub(super) fn check_splits(self: &Rc<Self>) {
        if !self.candidacy_open(RestructureKind::Split) {
            return;
        }
        // Deepest store-file backlog first, ids as the deterministic
        // tie-break (same discipline as the compaction scheduler).
        let picked = {
            let regions = self.regions.borrow();
            let mut ordered: Vec<(&RegionId, &RegionState)> = regions.iter().collect();
            ordered.sort_unstable_by_key(|(id, _)| **id);
            let mut best: Option<(usize, RegionId, Bytes)> = None;
            for (id, st) in ordered {
                if !st.restructurable() {
                    continue;
                }
                let bytes: usize = st.storefiles.iter().map(|sf| sf.total_bytes()).sum();
                if bytes < self.cfg.split.threshold_bytes {
                    continue;
                }
                // Midpoint from file metadata: the largest store file's
                // middle row (HBase's midkey heuristic), valid only if it
                // falls strictly inside the region — both daughters must
                // be non-empty key ranges.
                let largest = st
                    .storefiles
                    .iter()
                    .max_by(|a, b| (a.total_bytes(), a.path()).cmp(&(b.total_bytes(), b.path())));
                let Some(key) = largest.and_then(|sf| sf.mid_row()) else {
                    continue;
                };
                if !st.desc.splits_at(&key) {
                    continue;
                }
                if best.as_ref().map(|(b, ..)| bytes > *b).unwrap_or(true) {
                    best = Some((bytes, *id, key));
                }
            }
            best
        };
        if let Some((_, region, split_key)) = picked {
            self.begin_restructure(RestructureKind::Split, vec![region], vec![split_key]);
        }
    }

    /// Periodic merge candidacy check: among hosted, online, quiescent
    /// regions, find the adjacent co-hosted pair with the smallest
    /// combined durable bytes under the threshold and start merging it.
    pub(super) fn check_merges(self: &Rc<Self>) {
        if !self.candidacy_open(RestructureKind::Merge) {
            return;
        }
        let picked = {
            let regions = self.regions.borrow();
            let mut hosted: Vec<(&RegionId, &RegionState)> = regions
                .iter()
                .filter(|(_, st)| st.restructurable())
                .collect();
            // Adjacency is a key-order property: sort by start key (the
            // sort also fixes HashMap iteration order, keeping runs with
            // the same seed byte-identical).
            hosted.sort_unstable_by(|a, b| a.1.desc.start.cmp(&b.1.desc.start));
            let mut best: Option<(usize, RegionId, RegionId)> = None;
            for w in hosted.windows(2) {
                let (lid, l) = w[0];
                let (rid, r) = w[1];
                if !l.desc.precedes(&r.desc) {
                    continue; // co-hosted but not adjacent in the keyspace
                }
                let bytes: usize = l
                    .storefiles
                    .iter()
                    .chain(r.storefiles.iter())
                    .map(|sf| sf.total_bytes())
                    .sum();
                if bytes >= self.cfg.merge.threshold_bytes {
                    continue;
                }
                // Smallest combined pair first; strict < keeps the first
                // pair in key order on ties.
                if best.as_ref().map(|(b, ..)| bytes < *b).unwrap_or(true) {
                    best = Some((bytes, *lid, *rid));
                }
            }
            best
        };
        if let Some((_, left, right)) = picked {
            self.begin_restructure(RestructureKind::Merge, vec![left, right], Vec::new());
        }
    }

    /// Admin trigger: merge the two hosted regions `left` and `right`
    /// immediately (subject to the same validation the candidacy timer
    /// applies), regardless of thresholds or whether the merge timer is
    /// enabled. Returns `false` without side effects when the pair is
    /// not currently mergeable here — not hosted, not adjacent, mid-op,
    /// or another structural operation is in flight. This is the
    /// HBase-style `merge_region` admin surface; tests and benches use
    /// it to exercise the protocol deterministically.
    pub fn request_region_merge(self: &Rc<Self>, left: RegionId, right: RegionId) -> bool {
        if !self.alive.get()
            || self.pending_restructure.borrow().is_some()
            || self.split_coord.borrow().is_none()
        {
            return false;
        }
        let ok = {
            let regions = self.regions.borrow();
            match (regions.get(&left), regions.get(&right)) {
                (Some(l), Some(r)) => {
                    l.restructurable() && r.restructurable() && l.desc.precedes(&r.desc)
                }
                _ => false,
            }
        };
        if ok {
            self.begin_restructure(RestructureKind::Merge, vec![left, right], Vec::new());
        }
        ok
    }

    /// Marks the sources as mid-structural-op and starts driving the
    /// pending operation (flush them, then ask the master for an intent).
    fn begin_restructure(
        self: &Rc<Self>,
        kind: RestructureKind,
        sources: Vec<RegionId>,
        boundaries: Vec<Bytes>,
    ) {
        self.mark_sources(&sources, true);
        let event = restructure_event!(kind, "consider");
        self.note(kind, |s| &s.considered, event, &sources, &[]);
        *self.pending_restructure.borrow_mut() = Some(PendingRestructure {
            kind,
            sources,
            boundaries,
            flush_issued: false,
            intent_sent: false,
        });
        self.advance_restructure();
    }

    /// Drives the pending operation forward: flush the sources' memstores
    /// once, then ask the master for a durable intent. Anything the
    /// memstores absorb after the flush moves to the targets at the flip,
    /// so the sources keep serving throughout.
    fn advance_restructure(self: &Rc<Self>) {
        let (kind, sources, boundaries, flush_issued) = {
            let p = self.pending_restructure.borrow();
            // An intent already sent waits for the master's execute or
            // denial.
            let Some(p) = p.as_ref().filter(|p| !p.intent_sent) else {
                return;
            };
            (
                p.kind,
                p.sources.clone(),
                p.boundaries.clone(),
                p.flush_issued,
            )
        };
        let (mut gone, mut flush_busy, mut dirty) = (false, false, false);
        {
            let regions = self.regions.borrow();
            for id in &sources {
                match regions.get(id) {
                    Some(st) => {
                        flush_busy |= st.flush_in_progress || st.flushing.is_some();
                        dirty |= !st.memstore.is_empty();
                    }
                    None => gone = true,
                }
            }
        }
        if gone {
            self.clear_restructure(&sources);
            return;
        }
        if flush_busy {
            return; // next check tick
        }
        if dirty && !flush_issued {
            if let Some(p) = self.pending_restructure.borrow_mut().as_mut() {
                p.flush_issued = true;
            }
            for id in &sources {
                self.flush_region(*id);
            }
            return;
        }
        if let Some(p) = self.pending_restructure.borrow_mut().as_mut() {
            p.intent_sent = true;
        }
        let Some(coord) = self.split_coord.borrow().clone() else {
            self.clear_restructure(&sources);
            return;
        };
        let event = restructure_event!(kind, "intent");
        self.note(kind, |s| &s.intents_requested, event, &sources, &[]);
        let id = self.id;
        let size = 96 + boundaries.iter().map(Bytes::len).sum::<usize>();
        self.net.send(self.node, coord.node(), size, move || {
            coord.request_restructure(id, sources, boundaries)
        });
    }

    /// Drops the pending operation and clears the sources' structural-op
    /// flags (denial, abandonment or a vanished source).
    fn clear_restructure(&self, sources: &[RegionId]) {
        self.pending_restructure.borrow_mut().take();
        self.mark_sources(sources, false);
    }

    /// Master RPC: the request whose first source is `first` was rejected
    /// (stale assignment, an intent already in flight, or an invalid
    /// split key or pair). The sources resume normal flush/compaction
    /// scheduling.
    pub fn restructure_denied(&self, first: RegionId) {
        if !self.alive.get() {
            return;
        }
        let denied = self
            .pending_restructure
            .borrow()
            .as_ref()
            .filter(|p| p.sources[0] == first)
            .map(|p| (p.kind, p.sources.clone()));
        if let Some((kind, sources)) = denied {
            let event = restructure_event!(kind, "denied");
            self.note(kind, |s| &s.aborted, event, &sources, &[]);
            self.clear_restructure(&sources);
        }
    }

    /// Master RPC: the intent is durable — execute. Builds every target's
    /// reference files over the sources' store files (each clipped to
    /// source ∩ target), makes their marker files durable in the
    /// filesystem (so a failover can resolve the targets' file sets),
    /// then flips atomically.
    pub fn execute_restructure(self: &Rc<Self>, intent: RestructureIntent) {
        if !self.alive.get() {
            return;
        }
        let first = intent.sources[0];
        let matches = self
            .pending_restructure
            .borrow()
            .as_ref()
            .map(|p| p.sources == intent.sources && p.boundaries == intent.boundaries)
            .unwrap_or(false);
        if !matches {
            // We no longer recognize this intent (e.g. abandoned); tell
            // the master to roll it back rather than leaving it dangling.
            self.notify_restructure_aborted(first);
            return;
        }
        // A compaction admitted before the operation became pending may
        // still be in flight; the file sets must be quiescent before
        // references are cut over them. Retry shortly (fixed delay, no
        // RNG).
        let busy = {
            let regions = self.regions.borrow();
            intent.sources.iter().any(|id| {
                regions
                    .get(id)
                    .map(|st| {
                        st.compaction_in_progress || st.flush_in_progress || st.flushing.is_some()
                    })
                    .unwrap_or(false)
            })
        };
        if busy {
            let this = Rc::clone(self);
            self.sim
                .schedule_in(SimDuration::from_millis(200), move || {
                    this.execute_restructure(intent)
                });
            return;
        }
        let kind = intent.kind();
        let event = restructure_event!(kind, "execute");
        self.note(
            kind,
            |s| &s.executing,
            event,
            &intent.sources,
            &intent.targets,
        );
        // Tell a split parent's backups the intent is executing, so a
        // promotion racing the flip knows the shadow may be mid-split
        // (the master rolls the intent back before promoting, so the
        // promoted replica discards it).
        if let ([parent], [bottom, top]) = (&intent.sources[..], &intent.targets[..]) {
            self.ship_split_intent(*parent, *bottom, *top);
        }
        let sources: Vec<(RegionDescriptor, Vec<(Rc<StoreFileData>, u32)>)> = {
            let regions = self.regions.borrow();
            let mut out = Vec::with_capacity(intent.sources.len());
            for id in &intent.sources {
                let Some(st) = regions.get(id) else {
                    drop(regions);
                    self.notify_restructure_aborted(first);
                    self.clear_restructure(&intent.sources);
                    return;
                };
                out.push((
                    st.desc.clone(),
                    st.storefiles
                        .iter()
                        .map(|sf| (Rc::clone(sf), st.level_of(sf.path())))
                        .collect(),
                ));
            }
            out
        };
        let descs: Vec<RegionDescriptor> = sources.iter().map(|(d, _)| d.clone()).collect();
        let mut targets: Vec<(RegionDescriptor, Vec<(Rc<StoreFileData>, u32)>)> = intent
            .target_descriptors(&descs)
            .into_iter()
            .map(|d| (d, Vec::new()))
            .collect();
        let mut markers: Vec<(String, Bytes)> = Vec::new();
        for (src, files) in &sources {
            for (sf, level) in files {
                let base = sf.path().rsplit('/').next().unwrap_or("file");
                // With several sources, the source id disambiguates: they
                // may hold references with the same base name after
                // earlier splits of a common ancestor.
                let name = match intent.sources.len() {
                    1 => format!("ref-{base}"),
                    _ => format!("ref-{}-{base}", src.id.0),
                };
                for (target, refs) in &mut targets {
                    let (lo, hi) = intersect(src, target);
                    let path = format!("/store/{}/{name}", target.id);
                    if let Some(r) = StoreFileData::reference(sf, target.id, path, lo, hi) {
                        let r = Rc::new(r);
                        // The source's physical file must outlive this
                        // reference; the registry tracks the hold.
                        self.registry.add_backing_ref(r.backing_path());
                        self.registry.insert(Rc::clone(&r));
                        markers.push((r.path().to_owned(), encode_ref_marker(&r)));
                        refs.push((r, *level));
                    }
                }
            }
        }
        let work = Rc::new(RestructureWork {
            intent,
            targets,
            markers,
        });
        self.write_restructure_markers(work, 0);
    }

    /// Writes reference marker file `idx` to the filesystem, then
    /// recurses; once all are durable the flip runs. A crash mid-way
    /// leaves only orphaned markers under target directories the region
    /// map never learns about — the master's failover rolls the intent
    /// back and recovers the sources from their untouched files.
    fn write_restructure_markers(self: &Rc<Self>, work: Rc<RestructureWork>, idx: usize) {
        if !self.alive.get() {
            return;
        }
        if idx == work.markers.len() {
            self.finish_restructure(&work);
            return;
        }
        let (path, content) = work.markers[idx].clone();
        let weak = Rc::downgrade(self);
        self.dfs.create_with(&path, content, move |result| {
            let Some(server) = weak.upgrade() else { return };
            match result {
                Ok(()) => server.write_restructure_markers(work, idx + 1),
                Err(_) => server.abort_granted_restructure(&work),
            }
        });
    }

    /// Server-side rollback of a granted intent (marker writes failed):
    /// unregister the references, release the backing holds (the sources
    /// still own their physical files, so nothing is deleted),
    /// best-effort delete the markers, and tell the master.
    fn abort_granted_restructure(self: &Rc<Self>, work: &RestructureWork) {
        for (sf, _) in work.targets.iter().flat_map(|(_, refs)| refs) {
            self.registry.remove(sf.path());
            let _ = self.registry.release_backing_ref(sf.backing_path());
        }
        for (path, _) in &work.markers {
            self.dfs.delete(path);
        }
        let intent = &work.intent;
        let kind = intent.kind();
        let event = restructure_event!(kind, "abort");
        self.note(kind, |s| &s.aborted, event, &intent.sources, &[]);
        self.clear_restructure(&intent.sources);
        self.notify_restructure_aborted(intent.sources[0]);
    }

    fn notify_restructure_aborted(&self, first: RegionId) {
        let Some(coord) = self.split_coord.borrow().clone() else {
            return;
        };
        let id = self.id;
        self.net.send(self.node, coord.node(), 48, move || {
            coord.restructure_aborted(id, first)
        });
    }

    /// The atomic flip: in one event the source region states are removed
    /// and the targets appear online — reference files as their store
    /// stacks, the sources' leftover memstores routed by row to the
    /// target covering it. At no instant are a source and a target both
    /// servable. The master is then told to apply the map change.
    fn finish_restructure(self: &Rc<Self>, work: &RestructureWork) {
        if !self.alive.get() {
            return;
        }
        let intent = &work.intent;
        let superseded = {
            let mut regions = self.regions.borrow_mut();
            if !intent.sources.iter().all(|id| regions.contains_key(id)) {
                drop(regions);
                self.abort_granted_restructure(work);
                return;
            }
            let olds: Vec<RegionState> = intent
                .sources
                .iter()
                .map(|id| regions.remove(id).expect("checked"))
                .collect();
            // Leftover memstore entries (absorbed since the pre-flip
            // flush; all covered by WAL records the failover remaps by
            // row) move to the target covering their row.
            let mut memstores: Vec<MemStore> =
                work.targets.iter().map(|_| MemStore::new()).collect();
            for old in &olds {
                for (row, c, ts, v) in old.memstore.iter() {
                    let t = intent.boundaries.partition_point(|b| b[..] <= row[..]);
                    memstores[t].apply(row.clone(), c.clone(), ts, v.clone());
                }
            }
            // A source file that is itself a reference (the source came
            // from an earlier split or merge) is superseded: the new
            // references back directly onto the physical file and hold
            // their own counts. Its retirement is destructive (registry
            // and filesystem deletes), so it runs *after* the flip,
            // behind the same coordination fence as compaction input
            // retirement — a zombie server must not delete files its
            // failover successor is reading.
            let superseded: Vec<Rc<StoreFileData>> = olds
                .iter()
                .flat_map(|st| st.storefiles.iter())
                .filter(|sf| sf.is_reference())
                .cloned()
                .collect();
            for ((desc, files), memstore) in work.targets.iter().zip(memstores) {
                let state = RegionState::new(desc.clone(), memstore, files, Vec::new(), true);
                regions.insert(desc.id, state);
            }
            superseded
        };
        // The sources' cached blocks belong to regions that no longer
        // exist; the targets refill under their own ids.
        for id in &intent.sources {
            self.cache.borrow_mut().evict_region(*id);
        }
        // The sources' accumulated load history is summed and spread
        // evenly over the targets (target i takes the i-th of n equal
        // cuts of the sum, so nothing is lost to rounding) — the
        // placement signal must not read a server that just split or
        // merged warm regions as suddenly idle.
        let mut load = 0;
        for id in &intent.sources {
            load += self.region_load.get(id.0 as u64);
            self.region_load.remove(id.0 as u64);
        }
        let n = intent.targets.len() as u64;
        for (i, id) in (0..).zip(&intent.targets) {
            self.region_load
                .add(id.0 as u64, load * (i + 1) / n - load * i / n);
        }
        self.pending_restructure.borrow_mut().take();
        let kind = intent.kind();
        let event = restructure_event!(kind, "flip");
        self.note(
            kind,
            |s| &s.completed,
            event,
            &intent.sources,
            &intent.targets,
        );
        self.update_file_metrics();
        // A split parent's replica group follows the flip: daughters
        // inherit the parent's lanes (brought in sync by immediate
        // full-state syncs carrying the daughters' reference files), the
        // parent's shadows are closed. Merges need unreplicated sources.
        if let ([parent], [bottom, top]) = (&intent.sources[..], &intent.targets[..]) {
            self.split_replica_groups(*parent, *bottom, *top);
        }
        if !superseded.is_empty() {
            self.retire_superseded_references(superseded);
        }
        if let Some(coord) = self.split_coord.borrow().clone() {
            let id = self.id;
            let first = intent.sources[0];
            self.net.send(self.node, coord.node(), 64, move || {
                coord.restructure_completed(id, first)
            });
        }
    }

    /// Destroys intermediate reference files superseded by a restructure,
    /// releasing (and possibly destroying) their backing holds — behind
    /// the same liveness fence as [`RegionServer::retire_compacted_inputs`]:
    /// a server partitioned from the coordination service may already
    /// have been failed over, and its successor reads exactly these
    /// files. A wrongly held fence merely leaks them (reads stay correct).
    fn retire_superseded_references(self: &Rc<Self>, refs: Vec<Rc<StoreFileData>>) {
        let retire = |server: &RegionServer, refs: Vec<Rc<StoreFileData>>| {
            for sf in refs {
                server.registry.remove(sf.path());
                server.dfs.delete(sf.path());
                let backing = sf.backing_path().to_owned();
                if server.registry.release_backing_ref(&backing) {
                    server.registry.remove(&backing);
                    server.dfs.delete(&backing);
                }
            }
        };
        let coord = self.coord.borrow().clone();
        match coord {
            Some(coord) => {
                let weak = Rc::downgrade(self);
                coord.get_data(&format!("/live/servers/{}", self.id), move |znode| {
                    let Some(server) = weak.upgrade() else { return };
                    if znode.is_some() && server.alive.get() {
                        retire(&server, refs);
                    }
                });
            }
            // No coordination service (standalone server, unit tests):
            // there is no failover to fence against.
            None => retire(self, refs),
        }
    }
}
