//! Region descriptors and the key-range → region map.
//!
//! A table is partitioned into regions, each a contiguous, sorted key
//! range; every region is hosted by exactly one region server at a time
//! (§2.1 of the paper). The paper itself treats the boundaries as fixed
//! (online splits are out of its scope), but this implementation goes
//! further: the map is epoch-versioned and *mutable* — an online region
//! split ([`RegionMap::apply_split`]) atomically replaces a hot parent
//! region with two daughters, and clients that route with a stale map get
//! a `WrongRegion` error telling them to refresh and re-group (see
//! ARCHITECTURE.md, "Online splits and merges"). [`RegionMap::from_split_points`]
//! remains the bootstrap path. Region ids are never reused, so a cached id
//! always means the same key range.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::types::{RegionId, ServerId};
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt;

/// Which structural operation a [`RestructureIntent`] describes: a split
/// replaces one region by two at a key, a merge replaces two adjacent
/// regions by one spanning both.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RestructureKind {
    /// One parent region becomes a bottom and a top daughter.
    Split,
    /// Two adjacent regions become one merged region.
    Merge,
}

impl RestructureKind {
    /// The kind's name: the prefix of its metrics and journal events and
    /// the filesystem directory of its intent records.
    pub fn name(self) -> &'static str {
        match self {
            RestructureKind::Split => "split",
            RestructureKind::Merge => "merge",
        }
    }

    /// The journal detail naming `sources` and then `targets`
    /// (`region=r1 bottom=r3 top=r4`, `left=r1 right=r2 merged=r3`);
    /// either may be empty.
    pub(crate) fn detail(self, sources: &[RegionId], targets: &[RegionId]) -> String {
        let (source_names, target_names): (&[&str], &[&str]) = match self {
            RestructureKind::Split => (&["region"], &["bottom", "top"]),
            RestructureKind::Merge => (&["left", "right"], &["merged"]),
        };
        let pairs: Vec<String> = (source_names.iter().zip(sources))
            .chain(target_names.iter().zip(targets))
            .map(|(name, id)| format!("{name}={id}"))
            .collect();
        pairs.join(" ")
    }
}

/// The journal event `<kind>.<step>` (`split.flip`, `merge.flip`) as the
/// `&'static str` a journal record needs.
macro_rules! restructure_event {
    ($kind:expr, $step:literal) => {
        match $kind {
            $crate::region::RestructureKind::Split => concat!("split.", $step),
            $crate::region::RestructureKind::Merge => concat!("merge.", $step),
        }
    };
}
pub(crate) use restructure_event;

/// The durable record of an in-flight online split or merge, persisted by
/// the master (at [`RestructureIntent::record_path`] in the filesystem)
/// *before* the hosting server is told to execute. Failover of a server
/// with an intent outstanding rolls the operation back while the map has
/// not flipped (always safe: clients cannot address target ids the map
/// has never shown them); after the flip the targets recover like any
/// other region. Sources and targets are never served simultaneously.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RestructureIntent {
    /// The regions being replaced, adjacent and in key order: a split's
    /// parent, or a merge's left and right daughters.
    pub sources: Vec<RegionId>,
    /// The keys cutting the sources' combined range between consecutive
    /// targets: a split's split key; none for a merge.
    pub boundaries: Vec<Bytes>,
    /// The replacement regions in key order (one more than the
    /// boundaries): a split's bottom and top, or the merged region.
    pub targets: Vec<RegionId>,
    /// The server executing the operation (it hosts every source).
    pub server: ServerId,
}

impl RestructureIntent {
    /// A single source is a split; several are a merge.
    pub fn kind(&self) -> RestructureKind {
        if self.sources.len() == 1 {
            RestructureKind::Split
        } else {
            RestructureKind::Merge
        }
    }

    /// Where the master persists the intent: `/split/{parent}` or
    /// `/merge/{left}`.
    pub fn record_path(&self) -> String {
        format!("/{}/{}", self.kind().name(), self.sources[0])
    }

    /// The targets' descriptors: the sources' combined range (`sources`
    /// are their descriptors, in key order) cut at the boundaries.
    pub fn target_descriptors(&self, sources: &[RegionDescriptor]) -> Vec<RegionDescriptor> {
        let first = sources.first().map(|d| d.start.clone()).unwrap_or_default();
        let last = sources.last().and_then(|d| d.end.clone());
        let starts = std::iter::once(first).chain(self.boundaries.iter().cloned());
        let ends = self.boundaries.iter().cloned().map(Some).chain([last]);
        self.targets
            .iter()
            .zip(starts.zip(ends))
            .map(|(&id, (start, end))| RegionDescriptor { id, start, end })
            .collect()
    }

    /// Serializes the intent for its filesystem record. The two kinds
    /// keep their own layouts: `parent, split key, bottom, top, server`
    /// and `left, right, merged, server`.
    pub fn encode(&self) -> Bytes {
        let mut enc = Encoder::new();
        enc.put_u32(self.sources[0].0);
        match self.kind() {
            RestructureKind::Split => enc.put_bytes(&self.boundaries[0]),
            RestructureKind::Merge => enc.put_u32(self.sources[1].0),
        }
        for target in &self.targets {
            enc.put_u32(target.0);
        }
        enc.put_u32(self.server.0);
        enc.finish()
    }

    /// Parses a `kind` intent record previously produced by
    /// [`RestructureIntent::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or corrupt input.
    pub fn decode(kind: RestructureKind, buf: &[u8]) -> Result<RestructureIntent, DecodeError> {
        let mut dec = Decoder::new(buf);
        let first = RegionId(dec.get_u32()?);
        let (sources, boundaries, targets) = match kind {
            RestructureKind::Split => (vec![first], vec![dec.get_bytes()?], 2),
            RestructureKind::Merge => (vec![first, RegionId(dec.get_u32()?)], Vec::new(), 1),
        };
        let targets = (0..targets)
            .map(|_| dec.get_u32().map(RegionId))
            .collect::<Result<_, _>>()?;
        Ok(RestructureIntent {
            sources,
            boundaries,
            targets,
            server: ServerId(dec.get_u32()?),
        })
    }
}

/// A region's identity and key range `[start, end)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionDescriptor {
    /// The region id.
    pub id: RegionId,
    /// Inclusive start key (empty = from the beginning of the table).
    pub start: Bytes,
    /// Exclusive end key (`None` = to the end of the table).
    pub end: Option<Bytes>,
}

impl RegionDescriptor {
    /// Whether `row` falls inside this region.
    pub fn contains(&self, row: &[u8]) -> bool {
        row >= &self.start[..]
            && match &self.end {
                Some(end) => row < &end[..],
                None => true,
            }
    }

    /// Whether `key` cuts this region into two non-empty ranges (it lies
    /// strictly inside), as a split key must.
    pub fn splits_at(&self, key: &[u8]) -> bool {
        key > &self.start[..] && self.contains(key)
    }

    /// Whether `next` starts exactly where this region ends.
    pub fn precedes(&self, next: &RegionDescriptor) -> bool {
        self.end.as_deref() == Some(&next.start[..])
    }
}

/// The set of region boundaries plus the current region → server
/// assignment. Clients cache a copy and refresh it from the master when a
/// request hits a moved or offline region.
#[derive(Clone, Debug, Default)]
pub struct RegionMap {
    regions: Vec<RegionDescriptor>,
    assignments: HashMap<RegionId, ServerId>,
    /// Per-server assigned-region counts, maintained incrementally so the
    /// master's load-aware placement reads a server's load in O(1) instead
    /// of scanning every assignment (O(regions) per server per placement —
    /// the scaling cliff the million-key soak exposed).
    assigned_counts: HashMap<ServerId, usize>,
    /// Backup servers per region (the primary is in `assignments`). Only
    /// populated when region replication is enabled; replica changes bump
    /// the epoch like assignment changes, because the epoch doubles as the
    /// fencing token of the primary→backup ship stream.
    replicas: HashMap<RegionId, Vec<ServerId>>,
    /// Bumped on every assignment change so caches can detect staleness.
    epoch: u64,
}

impl fmt::Display for RegionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RegionMap(epoch {} regions {})",
            self.epoch,
            self.regions.len()
        )?;
        Ok(())
    }
}

impl RegionMap {
    /// Builds a map from explicit split points: `splits = [k1, k2]` yields
    /// regions `[-inf,k1) [k1,k2) [k2,+inf)`.
    ///
    /// # Panics
    ///
    /// Panics if the split points are not strictly increasing.
    pub fn from_split_points(splits: &[Bytes]) -> RegionMap {
        for w in splits.windows(2) {
            assert!(w[0] < w[1], "split points must be strictly increasing");
        }
        let mut regions = Vec::with_capacity(splits.len() + 1);
        let mut start = Bytes::new();
        for (i, split) in splits.iter().enumerate() {
            regions.push(RegionDescriptor {
                id: RegionId(i as u32),
                start: start.clone(),
                end: Some(split.clone()),
            });
            start = split.clone();
        }
        regions.push(RegionDescriptor {
            id: RegionId(splits.len() as u32),
            start,
            end: None,
        });
        RegionMap {
            regions,
            assignments: HashMap::new(),
            assigned_counts: HashMap::new(),
            replicas: HashMap::new(),
            epoch: 0,
        }
    }

    /// Builds `n` regions splitting the space of zero-padded decimal keys
    /// `prefix{number}` uniformly over `[0, key_count)` — matching the YCSB
    /// loader's `user{:012}` keys.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split_decimal_keyspace(prefix: &str, key_count: u64, n: usize) -> RegionMap {
        assert!(n > 0, "need at least one region");
        let splits: Vec<Bytes> = (1..n)
            .map(|i| {
                let boundary = key_count * i as u64 / n as u64;
                Bytes::from(format!("{prefix}{boundary:012}"))
            })
            .collect();
        RegionMap::from_split_points(&splits)
    }

    /// All region descriptors, ordered by start key.
    pub fn regions(&self) -> &[RegionDescriptor] {
        &self.regions
    }

    /// The descriptor for `id`, if any.
    pub fn descriptor(&self, id: RegionId) -> Option<&RegionDescriptor> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// The region containing `row`.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty (an unconfigured cluster).
    pub fn region_for(&self, row: &[u8]) -> RegionId {
        assert!(!self.regions.is_empty(), "region map is empty");
        // Binary search over start keys: last region whose start <= row.
        let idx = match self.regions.binary_search_by(|r| r.start[..].cmp(row)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        debug_assert!(self.regions[idx].contains(row));
        self.regions[idx].id
    }

    /// The server currently assigned `region`, if any.
    pub fn server_for(&self, region: RegionId) -> Option<ServerId> {
        self.assignments.get(&region).copied()
    }

    /// Routes a row to its (region, server), if the region is assigned.
    pub fn locate(&self, row: &[u8]) -> (RegionId, Option<ServerId>) {
        let r = self.region_for(row);
        (r, self.server_for(r))
    }

    fn count_inc(&mut self, server: ServerId) {
        *self.assigned_counts.entry(server).or_insert(0) += 1;
    }

    fn count_dec(&mut self, server: ServerId) {
        if let Some(n) = self.assigned_counts.get_mut(&server) {
            *n -= 1;
            if *n == 0 {
                self.assigned_counts.remove(&server);
            }
        }
    }

    /// Records an assignment, bumping the epoch.
    pub fn assign(&mut self, region: RegionId, server: ServerId) {
        if let Some(prev) = self.assignments.insert(region, server) {
            self.count_dec(prev);
        }
        self.count_inc(server);
        self.epoch += 1;
    }

    /// Removes an assignment (region offline), bumping the epoch.
    pub fn unassign(&mut self, region: RegionId) {
        if let Some(prev) = self.assignments.remove(&region) {
            self.count_dec(prev);
            self.epoch += 1;
        }
    }

    /// How many regions are currently assigned to `server` — O(1), fed by
    /// the incrementally-maintained per-server counts.
    pub fn assigned_count(&self, server: ServerId) -> usize {
        self.assigned_counts.get(&server).copied().unwrap_or(0)
    }

    /// All regions currently assigned to `server`.
    pub fn regions_of(&self, server: ServerId) -> Vec<RegionId> {
        let mut out: Vec<RegionId> = self
            .assignments
            .iter()
            .filter(|(_, s)| **s == server)
            .map(|(r, _)| *r)
            .collect();
        out.sort_unstable();
        out
    }

    /// Records `region`'s backup set, bumping the epoch (the new epoch is
    /// the fencing token handed to the primary's ship stream).
    pub fn set_replicas(&mut self, region: RegionId, backups: Vec<ServerId>) {
        self.replicas.insert(region, backups);
        self.epoch += 1;
    }

    /// Drops `region`'s backup set (if any), bumping the epoch on change.
    pub fn clear_replicas(&mut self, region: RegionId) {
        if self.replicas.remove(&region).is_some() {
            self.epoch += 1;
        }
    }

    /// The backup servers of `region` (empty when unreplicated).
    pub fn replicas_of(&self, region: RegionId) -> &[ServerId] {
        self.replicas.get(&region).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All regions that keep a backup on `server`, sorted.
    pub fn replica_hosts(&self, server: ServerId) -> Vec<RegionId> {
        let mut out: Vec<RegionId> = self
            .replicas
            .iter()
            .filter(|(_, backups)| backups.contains(&server))
            .map(|(r, _)| *r)
            .collect();
        out.sort_unstable();
        out
    }

    /// Applies an online split: the `parent` descriptor is atomically
    /// replaced by two daughters partitioning its range at `split_key`
    /// (`bottom` = `[start, split_key)`, `top` = `[split_key, end)`), the
    /// parent's assignment (if any) carries over to both daughters, and
    /// the epoch bumps so caches detect the change. Returns `false` (and
    /// changes nothing) when `parent` is not in the map or `split_key`
    /// does not fall strictly inside its range.
    pub fn apply_split(
        &mut self,
        parent: RegionId,
        split_key: &Bytes,
        bottom: RegionId,
        top: RegionId,
    ) -> bool {
        let Some(idx) = self.regions.iter().position(|r| r.id == parent) else {
            return false;
        };
        let desc = self.regions[idx].clone();
        if !desc.splits_at(split_key) {
            return false;
        }
        self.regions[idx] = RegionDescriptor {
            id: bottom,
            start: desc.start,
            end: Some(split_key.clone()),
        };
        self.regions.insert(
            idx + 1,
            RegionDescriptor {
                id: top,
                start: split_key.clone(),
                end: desc.end,
            },
        );
        if let Some(server) = self.assignments.remove(&parent) {
            self.assignments.insert(bottom, server);
            self.assignments.insert(top, server);
            self.count_inc(server);
        }
        // The parent's backup set carries to both daughters: the master
        // re-ships daughter state to the same hosts, preserving locality.
        if let Some(backups) = self.replicas.remove(&parent) {
            self.replicas.insert(bottom, backups.clone());
            self.replicas.insert(top, backups);
        }
        self.epoch += 1;
        true
    }

    /// Applies an online merge: the adjacent `left` and `right`
    /// descriptors are atomically replaced by a single `merged` region
    /// spanning their union, the common assignment (if any) carries over,
    /// and the epoch bumps so caches detect the change. Returns `false`
    /// (and changes nothing) when either region is missing, they are not
    /// adjacent in key order (`left` immediately below `right`), or they
    /// are assigned to different servers.
    pub fn apply_merge(&mut self, left: RegionId, right: RegionId, merged: RegionId) -> bool {
        let Some(idx) = self.regions.iter().position(|r| r.id == left) else {
            return false;
        };
        if idx + 1 >= self.regions.len() || self.regions[idx + 1].id != right {
            return false;
        }
        if self.assignments.get(&left) != self.assignments.get(&right) {
            return false;
        }
        let l = self.regions[idx].clone();
        let r = self.regions[idx + 1].clone();
        debug_assert!(l.precedes(&r), "map regions contiguous");
        self.regions[idx] = RegionDescriptor {
            id: merged,
            start: l.start,
            end: r.end,
        };
        self.regions.remove(idx + 1);
        if let Some(server) = self.assignments.remove(&right) {
            self.count_dec(server);
        }
        if let Some(server) = self.assignments.remove(&left) {
            self.assignments.insert(merged, server);
        }
        // The daughters' backup sets retire with them; the master
        // re-establishes a group for the merged region from scratch.
        self.replicas.remove(&left);
        self.replicas.remove(&right);
        self.epoch += 1;
        true
    }

    /// Applies a completed split or merge through
    /// [`RegionMap::apply_split`] or [`RegionMap::apply_merge`]; returns
    /// whether the map changed.
    pub fn apply_restructure(&mut self, intent: &RestructureIntent) -> bool {
        match (
            &intent.sources[..],
            &intent.boundaries[..],
            &intent.targets[..],
        ) {
            ([parent], [key], [bottom, top]) => self.apply_split(*parent, key, *bottom, *top),
            ([left, right], [], [merged]) => self.apply_merge(*left, *right, *merged),
            _ => false,
        }
    }

    /// The largest region id in the map (`None` when empty) — the master
    /// allocates daughter ids above it, never reusing an id.
    pub fn max_region_id(&self) -> Option<RegionId> {
        self.regions.iter().map(|r| r.id).max()
    }

    /// The staleness epoch (bumped on every assignment change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current assignments, for snapshotting into client caches.
    pub fn assignments(&self) -> &HashMap<RegionId, ServerId> {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_points_partition_keyspace() {
        let map = RegionMap::from_split_points(&[Bytes::from_static(b"m")]);
        assert_eq!(map.regions().len(), 2);
        assert_eq!(map.region_for(b"a"), RegionId(0));
        assert_eq!(map.region_for(b"lzz"), RegionId(0));
        assert_eq!(map.region_for(b"m"), RegionId(1));
        assert_eq!(map.region_for(b"zzz"), RegionId(1));
        assert_eq!(map.region_for(b""), RegionId(0));
    }

    #[test]
    fn decimal_split_is_balanced() {
        let map = RegionMap::split_decimal_keyspace("user", 1000, 4);
        assert_eq!(map.regions().len(), 4);
        assert_eq!(map.region_for(b"user000000000000"), RegionId(0));
        assert_eq!(map.region_for(b"user000000000249"), RegionId(0));
        assert_eq!(map.region_for(b"user000000000250"), RegionId(1));
        assert_eq!(map.region_for(b"user000000000999"), RegionId(3));
    }

    #[test]
    fn every_key_maps_to_exactly_one_region() {
        let map = RegionMap::split_decimal_keyspace("user", 100, 3);
        for i in 0..100u64 {
            let key = format!("user{i:012}");
            let region = map.region_for(key.as_bytes());
            let covering: Vec<_> = map
                .regions()
                .iter()
                .filter(|r| r.contains(key.as_bytes()))
                .collect();
            assert_eq!(covering.len(), 1, "key {key} covered by {covering:?}");
            assert_eq!(covering[0].id, region);
        }
    }

    #[test]
    fn assignment_lifecycle() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        assert_eq!(map.epoch(), 0);
        map.assign(RegionId(0), ServerId(1));
        map.assign(RegionId(1), ServerId(2));
        assert_eq!(map.epoch(), 2);
        assert_eq!(map.server_for(RegionId(0)), Some(ServerId(1)));
        assert_eq!(map.locate(b"user000000000010").1, Some(ServerId(1)));
        assert_eq!(map.regions_of(ServerId(2)), vec![RegionId(1)]);
        map.unassign(RegionId(0));
        assert_eq!(map.server_for(RegionId(0)), None);
        assert_eq!(map.epoch(), 3);
        // Unassigning twice does not bump the epoch again.
        map.unassign(RegionId(0));
        assert_eq!(map.epoch(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_splits_panic() {
        let _ = RegionMap::from_split_points(&[Bytes::from_static(b"m"), Bytes::from_static(b"a")]);
    }

    #[test]
    fn apply_split_replaces_parent_and_partitions_range() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        map.assign(RegionId(0), ServerId(7));
        let epoch = map.epoch();
        let key = Bytes::from_static(b"user000000000020");
        assert!(map.apply_split(RegionId(0), &key, RegionId(2), RegionId(3)));
        assert!(map.epoch() > epoch);
        assert!(map.descriptor(RegionId(0)).is_none(), "parent retired");
        assert_eq!(map.region_for(b"user000000000019"), RegionId(2));
        assert_eq!(map.region_for(b"user000000000020"), RegionId(3));
        assert_eq!(map.region_for(b"user000000000049"), RegionId(3));
        assert_eq!(map.region_for(b"user000000000050"), RegionId(1));
        // The parent's assignment carried over to both daughters.
        assert_eq!(map.server_for(RegionId(2)), Some(ServerId(7)));
        assert_eq!(map.server_for(RegionId(3)), Some(ServerId(7)));
        assert_eq!(map.server_for(RegionId(0)), None);
        // The map still partitions the key space.
        for i in 0..100u64 {
            let key = format!("user{i:012}");
            let covering = map
                .regions()
                .iter()
                .filter(|r| r.contains(key.as_bytes()))
                .count();
            assert_eq!(covering, 1, "key {key}");
        }
        assert_eq!(map.max_region_id(), Some(RegionId(3)));
    }

    #[test]
    fn apply_split_rejects_bad_keys_and_unknown_parents() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        let epoch = map.epoch();
        // Key at the region start: bottom daughter would be empty.
        let start = Bytes::from_static(b"");
        assert!(!map.apply_split(RegionId(0), &start, RegionId(2), RegionId(3)));
        // Key outside the region.
        let outside = Bytes::from_static(b"user000000000090");
        assert!(!map.apply_split(RegionId(0), &outside, RegionId(2), RegionId(3)));
        // Unknown parent.
        let key = Bytes::from_static(b"user000000000020");
        assert!(!map.apply_split(RegionId(9), &key, RegionId(2), RegionId(3)));
        assert_eq!(map.epoch(), epoch, "failed splits must not bump the epoch");
        assert_eq!(map.regions().len(), 2);
    }

    #[test]
    fn apply_merge_collapses_adjacent_daughters() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        map.assign(RegionId(0), ServerId(7));
        map.assign(RegionId(1), ServerId(7));
        // Split then merge back: the keyspace partition round-trips.
        let key = Bytes::from_static(b"user000000000020");
        assert!(map.apply_split(RegionId(0), &key, RegionId(2), RegionId(3)));
        let epoch = map.epoch();
        assert!(map.apply_merge(RegionId(2), RegionId(3), RegionId(4)));
        assert!(map.epoch() > epoch);
        assert!(map.descriptor(RegionId(2)).is_none(), "left retired");
        assert!(map.descriptor(RegionId(3)).is_none(), "right retired");
        assert_eq!(map.region_for(b"user000000000019"), RegionId(4));
        assert_eq!(map.region_for(b"user000000000020"), RegionId(4));
        assert_eq!(map.region_for(b"user000000000050"), RegionId(1));
        assert_eq!(map.server_for(RegionId(4)), Some(ServerId(7)));
        for i in 0..100u64 {
            let key = format!("user{i:012}");
            let covering = map
                .regions()
                .iter()
                .filter(|r| r.contains(key.as_bytes()))
                .count();
            assert_eq!(covering, 1, "key {key}");
        }
        assert_eq!(map.max_region_id(), Some(RegionId(4)));
    }

    #[test]
    fn apply_merge_rejects_non_adjacent_and_split_hosting() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 4);
        map.assign(RegionId(0), ServerId(1));
        map.assign(RegionId(1), ServerId(1));
        map.assign(RegionId(2), ServerId(2));
        map.assign(RegionId(3), ServerId(2));
        let epoch = map.epoch();
        // Wrong order: right must be immediately above left.
        assert!(!map.apply_merge(RegionId(1), RegionId(0), RegionId(9)));
        // Not adjacent.
        assert!(!map.apply_merge(RegionId(0), RegionId(2), RegionId(9)));
        // Adjacent but hosted by different servers.
        assert!(!map.apply_merge(RegionId(1), RegionId(2), RegionId(9)));
        // Unknown region.
        assert!(!map.apply_merge(RegionId(8), RegionId(1), RegionId(9)));
        assert_eq!(map.epoch(), epoch, "failed merges must not bump the epoch");
        assert_eq!(map.regions().len(), 4);
        // A valid merge of the co-hosted adjacent pair still works.
        assert!(map.apply_merge(RegionId(2), RegionId(3), RegionId(9)));
        assert_eq!(map.regions().len(), 3);
    }

    #[test]
    fn assigned_counts_track_mutations() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 3);
        assert_eq!(map.assigned_count(ServerId(1)), 0);
        map.assign(RegionId(0), ServerId(1));
        map.assign(RegionId(1), ServerId(1));
        map.assign(RegionId(2), ServerId(2));
        assert_eq!(map.assigned_count(ServerId(1)), 2);
        assert_eq!(map.assigned_count(ServerId(2)), 1);
        // Reassignment moves the count between servers.
        map.assign(RegionId(1), ServerId(2));
        assert_eq!(map.assigned_count(ServerId(1)), 1);
        assert_eq!(map.assigned_count(ServerId(2)), 2);
        map.unassign(RegionId(0));
        assert_eq!(map.assigned_count(ServerId(1)), 0);
        // Splits add one hosted region; merges remove one.
        let key = Bytes::from_static(b"user000000000050");
        assert!(map.apply_split(RegionId(1), &key, RegionId(3), RegionId(4)));
        assert_eq!(map.assigned_count(ServerId(2)), 3);
        assert!(map.apply_merge(RegionId(3), RegionId(4), RegionId(5)));
        assert_eq!(map.assigned_count(ServerId(2)), 2);
        // Counts always agree with the exhaustive scan.
        for s in [ServerId(1), ServerId(2)] {
            assert_eq!(map.assigned_count(s), map.regions_of(s).len());
        }
    }

    #[test]
    fn intent_roundtrip() {
        let split = RestructureIntent {
            sources: vec![RegionId(4)],
            boundaries: vec![Bytes::from_static(b"user000000000033")],
            targets: vec![RegionId(10), RegionId(11)],
            server: ServerId(1),
        };
        let merge = RestructureIntent {
            sources: vec![RegionId(10), RegionId(11)],
            boundaries: Vec::new(),
            targets: vec![RegionId(12)],
            server: ServerId(2),
        };
        for (intent, kind, path) in [
            (split, RestructureKind::Split, "/split/r4"),
            (merge, RestructureKind::Merge, "/merge/r10"),
        ] {
            assert_eq!(intent.kind(), kind);
            assert_eq!(intent.record_path(), path);
            let back = RestructureIntent::decode(kind, &intent.encode()).expect("decode");
            assert_eq!(back, intent);
            assert!(RestructureIntent::decode(kind, &intent.encode()[..3]).is_err());
        }
    }

    #[test]
    fn replica_bookkeeping_bumps_epoch_and_follows_splits() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        map.assign(RegionId(0), ServerId(1));
        let epoch = map.epoch();
        map.set_replicas(RegionId(0), vec![ServerId(2), ServerId(3)]);
        assert!(map.epoch() > epoch, "replica changes must fence");
        assert_eq!(map.replicas_of(RegionId(0)), &[ServerId(2), ServerId(3)]);
        assert_eq!(map.replicas_of(RegionId(1)), &[] as &[ServerId]);
        assert_eq!(map.replica_hosts(ServerId(2)), vec![RegionId(0)]);
        assert_eq!(map.replica_hosts(ServerId(1)), Vec::<RegionId>::new());
        // Splitting the parent carries its backup set to both daughters.
        let key = Bytes::from_static(b"user000000000020");
        assert!(map.apply_split(RegionId(0), &key, RegionId(2), RegionId(3)));
        assert_eq!(map.replicas_of(RegionId(2)), &[ServerId(2), ServerId(3)]);
        assert_eq!(map.replicas_of(RegionId(3)), &[ServerId(2), ServerId(3)]);
        assert_eq!(
            map.replica_hosts(ServerId(3)),
            vec![RegionId(2), RegionId(3)]
        );
        // Clearing is idempotent on the epoch.
        map.clear_replicas(RegionId(2));
        let epoch = map.epoch();
        map.clear_replicas(RegionId(2));
        assert_eq!(map.epoch(), epoch);
        assert_eq!(map.replicas_of(RegionId(2)), &[] as &[ServerId]);
    }

    #[test]
    fn descriptor_lookup() {
        let map = RegionMap::split_decimal_keyspace("user", 100, 2);
        assert!(map.descriptor(RegionId(0)).is_some());
        assert!(map.descriptor(RegionId(9)).is_none());
    }
}
