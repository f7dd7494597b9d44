//! The sharded multi-node cluster: content-routed placement, membership
//! with incremental rebalancing, per-node crash recovery with placement
//! reconciliation, and cluster-wide dedup accounting.
//!
//! # Placement
//!
//! A write is split into chunks; each chunk's SHA-1 routes to a bin
//! (digest prefix, exactly the single-node [`BinRouter`] convention) and
//! the bin rendezvous-routes to its home node ([`Ring`]). Routing by
//! *content* rather than by address is what makes per-node dedup
//! cluster-wide for free: two clients writing the same bytes anywhere in
//! the namespace land on the same node's dedup domain. The cluster's
//! metadata is the placement map (`(volume, block) → node, digest`), the
//! one source of truth, plus a `digest → refcount` directory derived
//! from it that answers the cluster-level dedup question and counts each
//! stored chunk exactly once, no matter which node's pipeline physically
//! admitted it. A block's bin and home node are recomputed from its
//! digest, never stored.
//!
//! # Membership
//!
//! Join and leave trigger incremental rebalancing: entries whose bin
//! re-homed are migrated one at a time — source read (charging the
//! source node's simulated clock), CRC-32C sealed handoff validated at
//! the destination (re-sent on mismatch, bounded retries), destination
//! write (charging the destination's clock and journaling the update),
//! then the placement-map flip. The modeled network transfer cost is
//! accounted in sim-nanoseconds on the cluster's own obs registry, since
//! a node's private clock only advances through its own pipeline.
//! Rebalancing never touches the cluster dedup counters.
//!
//! # Node crash
//!
//! One node power-cuts and recovers from its journal while the rest of
//! the cluster keeps serving. The cluster map is cluster-level metadata
//! (it does not crash); reconciliation walks the crashed node's entries
//! and keeps what the node durably holds — possibly an *older* version
//! of a block, when the newer map record missed the durable prefix —
//! and drops what it lost. The refcount directory is then recounted from
//! the surviving map.

use std::collections::{BTreeMap, HashMap};

use dr_binindex::BinRouter;
use dr_des::{SimTime, SplitMix64};
use dr_hashes::{open, seal, sha1_digest, ChunkDigest};
use dr_obs::{merge_snapshots, CounterHandle, HistogramHandle, ObsHandle, Snapshot};
use dr_pool::WorkerPool;
use dr_reduction::{HashedChunks, PipelineConfig, RecoveryOutcome, Report, VolumeError, Volumes};
use dr_ssd_sim::CrashSpec;

use crate::node::Node;
use crate::ring::{NodeId, Ring};

/// Transient read failures (seeded device/GPU faults) are retried this
/// many times during migration and reconciliation, matching the checker's
/// tolerance on the ordinary read path.
const TRANSIENT_RETRIES: usize = 10;

/// Digest-prefix width for bin ids (the single-node convention; 2 bytes
/// = 65 536 bins).
const PREFIX_BYTES: usize = 2;

/// Modeled network cost of a migrated byte, accounted on the `router`
/// obs registry as `rebalance.transfer_sim_ns`.
const TRANSFER_NS_PER_BYTE: u64 = 1;

/// Re-send attempts when a handoff fails destination CRC validation.
const CRC_RETRIES: usize = 3;

/// Cluster construction knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Initial node count.
    pub nodes: usize,
    /// Join cap; [`Cluster::join`] refuses beyond this.
    pub max_nodes: usize,
    /// Per-node pipeline template. The `obs` handle's enabled/disabled
    /// state is inherited, but each node gets its own registry named
    /// `node{id}`.
    pub node: PipelineConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            max_nodes: 8,
            node: PipelineConfig::default(),
        }
    }
}

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A volume-level error, same kinds as the single-node array.
    Volume(VolumeError),
    /// No node with that id is a member.
    UnknownNode(NodeId),
    /// The last member cannot leave.
    LastNode,
    /// The cluster is at `max_nodes`.
    Full {
        /// The configured cap.
        max: usize,
    },
    /// A migrated block failed destination CRC validation past retries.
    Handoff {
        /// Volume name.
        name: String,
        /// Block index.
        block: u64,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// A node's journal recovery failed.
    Recovery(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Volume(e) => write!(f, "{e}"),
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::LastNode => write!(f, "refusing to remove the last node"),
            ClusterError::Full { max } => write!(f, "cluster is at its {max}-node cap"),
            ClusterError::Handoff {
                name,
                block,
                from,
                to,
            } => write!(
                f,
                "handoff of {name}/{block} from node {from} to node {to} \
                 failed CRC validation past retries"
            ),
            ClusterError::Recovery(e) => write!(f, "node recovery failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<VolumeError> for ClusterError {
    fn from(e: VolumeError) -> Self {
        ClusterError::Volume(e)
    }
}

/// One placement-map entry: where a logical block lives and what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEntry {
    /// Home node (always the ring home of `digest`'s bin between
    /// operations).
    pub node: NodeId,
    /// Digest of the block's content.
    pub digest: ChunkDigest,
}

/// Digest → number of placement entries holding it: the cluster's one
/// dedup directory. A digest is live while its count is nonzero. Only
/// looked up and counted, never walked, so it is a hash map.
#[derive(Debug, Default, PartialEq, Eq)]
struct Refcounts(HashMap<ChunkDigest, u32>);

impl Refcounts {
    /// Takes a reference; `true` when the digest is new cluster-wide.
    fn acquire(&mut self, digest: ChunkDigest) -> bool {
        let count = self.0.entry(digest).or_insert(0);
        *count += 1;
        *count == 1
    }

    /// Drops a reference, and the digest with its last one.
    fn release(&mut self, digest: &ChunkDigest) {
        match self.0.get_mut(digest) {
            Some(1) => {
                self.0.remove(digest);
            }
            Some(n) => *n -= 1,
            None => panic!("released a digest the directory never held"),
        }
    }
}

/// One contiguous slice of a write as placed on a single node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedRun {
    /// First block of the run.
    pub start_block: u64,
    /// Blocks in the run.
    pub nblocks: u64,
    /// Node the run was written through.
    pub node: NodeId,
    /// The node's acknowledgement point after the run (journal grant end
    /// when journaled).
    pub ack: SimTime,
}

/// What a write did: which nodes got which slices.
#[derive(Debug, Clone, Default)]
pub struct WriteOutcome {
    /// Node-contiguous runs in block order.
    pub runs: Vec<PlacedRun>,
}

/// One completed migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MovedBlock {
    /// Volume name.
    pub name: String,
    /// Block index.
    pub block: u64,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Destination acknowledgement point for the re-written block.
    pub ack: SimTime,
}

/// What a rebalance pass did.
#[derive(Debug, Clone, Default)]
pub struct RebalanceOutcome {
    /// Completed migrations, in placement-map order.
    pub moves: Vec<MovedBlock>,
    /// Handoffs that needed a CRC re-send.
    pub crc_resends: u64,
}

/// What a node crash-and-recover did to the cluster.
#[derive(Debug, Clone)]
pub struct NodeRecovery {
    /// The crashed node.
    pub node: NodeId,
    /// The seeded power-cut instant (within the node's acked horizon).
    pub cut: SimTime,
    /// The node's own journal-recovery outcome.
    pub outcome: RecoveryOutcome,
    /// Placement entries the node lost entirely (now unwritten).
    pub lost: Vec<(String, u64)>,
    /// Placement entries that reverted to an older durable version
    /// (current digest after recovery differs from the map's).
    pub reverted: Vec<(String, u64)>,
    /// The re-homing pass for reverted entries whose new digest routes
    /// elsewhere.
    pub rebalance: RebalanceOutcome,
}

/// Cluster-wide accounting and per-node reports.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Chunks ingested through the cluster front-end (not counting
    /// migrations or recovery re-reads).
    pub chunks: u64,
    /// Chunks that were new to the cluster when written.
    pub unique_chunks: u64,
    /// Chunks deduplicated against the cluster directory.
    pub dedup_hits: u64,
    /// Digests currently referenced by at least one placement entry.
    pub live_digests: u64,
    /// Per-node pipeline reports, ascending node id.
    pub nodes: Vec<(NodeId, Report)>,
}

/// The sharded multi-node reduction cluster.
///
/// ```
/// use dr_cluster::{Cluster, ClusterConfig};
///
/// let mut cluster = Cluster::new(ClusterConfig {
///     nodes: 2,
///     ..ClusterConfig::default()
/// });
/// cluster.create_volume("vol", 16).unwrap();
/// let block = vec![7u8; 4096];
/// cluster.write("vol", 3, &block).unwrap();
/// assert_eq!(cluster.read("vol", 3).unwrap(), block);
/// let (joined, _) = cluster.join().unwrap();
/// assert_eq!(cluster.read("vol", 3).unwrap(), block, "join loses nothing");
/// cluster.leave(joined).unwrap();
/// ```
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    router: BinRouter,
    ring: Ring,
    nodes: BTreeMap<NodeId, Node>,
    next_node: NodeId,
    /// The placement map: one slot per block of every volume, the same
    /// directory type each node keeps its block map in. Cluster-level
    /// metadata, durable: it does not crash. Iterating it visits
    /// placement entries in (name, block) order, which rebalance and
    /// reconciliation rely on.
    volumes: Volumes<MapEntry>,
    /// Derived from `volumes`; [`Cluster::check_integrity`] recounts it.
    refs: Refcounts,
    chunks: u64,
    unique_chunks: u64,
    dedup_hits: u64,
    /// Cluster-front-end registry (named `router` so the rollup's
    /// `cluster.*` aggregate namespace stays collision-free).
    obs: ObsHandle,
    ingest_unique: CounterHandle,
    ingest_dedup_hits: CounterHandle,
    /// `hashing.wall_ns` in the front-end's registry: the host time of
    /// the one fingerprinting pass a client write gets, under the name the
    /// nodes use for theirs, so the roll-up's `cluster.hashing.wall_ns`
    /// still reads "host ns spent fingerprinting". Wall side only — the
    /// simulated hash cost stays the node's to charge.
    hashing_wall: HistogramHandle,
    /// `hashing.multibuffer_chunks` beside it: the chunks of that pass
    /// hashed in SIMD lanes.
    hashing_lanes: CounterHandle,
    /// The router's fingerprinting pool: zero-width, so the pass stays on
    /// the calling thread.
    pool: WorkerPool,
    /// Digest per chunk of the write in progress (reused).
    digests: Vec<ChunkDigest>,
    /// Home node per chunk of the write in progress (reused).
    routed: Vec<NodeId>,
    /// Test hook: corrupt the next handoff in transit, forcing the
    /// destination's CRC validation to reject and re-request it.
    pub corrupt_next_handoff: bool,
}

impl Cluster {
    /// Builds the initial cluster.
    ///
    /// # Panics
    ///
    /// Panics when `config.nodes` is zero or exceeds `config.max_nodes`.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nodes > 0, "a cluster needs at least one node");
        assert!(
            config.nodes <= config.max_nodes,
            "initial size exceeds max_nodes"
        );
        let obs = if config.node.obs.is_enabled() {
            ObsHandle::enabled("router")
        } else {
            ObsHandle::disabled()
        };
        let mut nodes = BTreeMap::new();
        for id in 0..config.nodes as NodeId {
            nodes.insert(id, Node::new(id, &config.node));
        }
        let ring = Ring::new(&nodes.keys().copied().collect::<Vec<_>>());
        Cluster {
            router: BinRouter::new(PREFIX_BYTES),
            ring,
            next_node: nodes.len() as NodeId,
            nodes,
            volumes: Volumes::default(),
            refs: Refcounts::default(),
            chunks: 0,
            unique_chunks: 0,
            dedup_hits: 0,
            ingest_unique: obs.counter("ingest.unique"),
            ingest_dedup_hits: obs.counter("ingest.dedup_hits"),
            hashing_wall: obs.histogram("hashing.wall_ns"),
            hashing_lanes: obs.counter("hashing.multibuffer_chunks"),
            pool: WorkerPool::new(0),
            digests: Vec::new(),
            routed: Vec::new(),
            obs,
            corrupt_next_handoff: false,
            config,
        }
    }

    /// Current member ids, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// One node, by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Mutable access to one node — the hook fault-injection harnesses
    /// use to arm per-node device fault schedules.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// The chunk size every node shares.
    pub fn chunk_bytes(&self) -> usize {
        self.config.node.chunk_bytes
    }

    /// Where a block currently lives (`None` when unwritten).
    pub fn locate(&self, name: &str, block: u64) -> Option<&MapEntry> {
        self.volumes.resolve(name, block).ok()
    }

    fn entry_mut(&mut self, name: &str, block: u64) -> &mut MapEntry {
        let slot = self.volumes.slot_mut(name, block);
        slot.and_then(Option::as_mut).expect("a mapped block")
    }

    /// The node a digest lives on: its bin's ring home.
    fn home(&self, digest: &ChunkDigest) -> NodeId {
        self.ring.route(self.router.route(digest) as u64)
    }

    /// The refcount directory the placement map derives.
    fn recount(&self) -> Refcounts {
        let mut refs = Refcounts::default();
        for (_, _, entry) in self.volumes.iter() {
            refs.acquire(entry.digest);
        }
        refs
    }

    /// Creates a volume on every node (and on every future joiner), so
    /// any node can receive any of its blocks.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NameTooLong`] / [`VolumeError::AlreadyExists`]
    /// (refused by the placement map, before any node is asked).
    pub fn create_volume(&mut self, name: &str, blocks: u64) -> Result<(), ClusterError> {
        self.volumes.create(name, blocks)?;
        for node in self.nodes.values_mut() {
            node.vm.create_volume(name, blocks)?;
        }
        Ok(())
    }

    /// Writes `data` (whole chunks) at `start_block`, content-routing
    /// each chunk and batching node-contiguous runs into single node
    /// writes — a single-node cluster therefore issues exactly the call
    /// sequence a bare [`VolumeManager`](dr_reduction::VolumeManager)
    /// would, and its pipeline state is bit-identical. The write is
    /// fingerprinted here, once: routing needs the digests, and the nodes
    /// take them over with their runs ([`HashedChunks`]) instead of
    /// hashing the same bytes again.
    ///
    /// # Errors
    ///
    /// [`VolumeError::Misaligned`] / [`VolumeError::UnknownVolume`] /
    /// [`VolumeError::OutOfRange`], refused by the placement map before
    /// anything is routed.
    pub fn write(
        &mut self,
        name: &str,
        start_block: u64,
        data: &[u8],
    ) -> Result<WriteOutcome, ClusterError> {
        let chunk_bytes = self.chunk_bytes();
        self.volumes
            .extent(name, start_block, data.len(), chunk_bytes)?;
        // Fingerprint the write — the one hashing pass it gets: the nodes
        // take these digests as their own — and route every chunk by it.
        let (mut digests, mut routed) = (
            std::mem::take(&mut self.digests),
            std::mem::take(&mut self.routed),
        );
        let span = self.hashing_wall.span();
        let (write, lanes) = HashedChunks::hash(&self.pool, data, chunk_bytes, &mut digests);
        span.finish();
        self.hashing_lanes.add(lanes as u64);
        routed.clear();
        routed.extend(write.digests().iter().map(|digest| self.home(digest)));
        let outcome = self.write_runs(name, start_block, &write, &routed);
        (self.digests, self.routed) = (digests, routed);
        outcome
    }

    /// Hands each run of consecutive same-node chunks of `write` to its
    /// node; `routed` is every chunk's home node.
    fn write_runs(
        &mut self,
        name: &str,
        start_block: u64,
        write: &HashedChunks,
        routed: &[NodeId],
    ) -> Result<WriteOutcome, ClusterError> {
        let mut outcome = WriteOutcome::default();
        let mut first = 0usize;
        for run in routed.chunk_by(|a, b| a == b) {
            let (chunks, node_id) = (first..first + run.len(), run[0]);
            let run_start = start_block + first as u64;
            let node = self
                .nodes
                .get_mut(&node_id)
                .expect("ring routes to members");
            node.vm
                .write_hashed(name, run_start, &write.slice(chunks.clone()))?;
            let ack = node.vm.last_ack();
            for k in chunks {
                let digest = write.digests()[k];
                self.account_write(name, start_block + k as u64, digest, node_id);
            }
            outcome.runs.push(PlacedRun {
                start_block: run_start,
                nblocks: run.len() as u64,
                node: node_id,
                ack,
            });
            first += run.len();
        }
        Ok(outcome)
    }

    /// Updates the placement map, refcount directory, and dedup accounting
    /// for one written chunk. Acquire-before-release so that rewriting a
    /// block with its own content counts as the dedup hit the node also
    /// sees, not a release-to-zero plus a fresh unique.
    fn account_write(&mut self, name: &str, block: u64, digest: ChunkDigest, node: NodeId) {
        self.chunks += 1;
        if self.refs.acquire(digest) {
            self.unique_chunks += 1;
            self.ingest_unique.incr();
        } else {
            self.dedup_hits += 1;
            self.ingest_dedup_hits.incr();
        }
        let slot = self
            .volumes
            .slot_mut(name, block)
            .expect("write validated it");
        if let Some(prev) = slot.replace(MapEntry { node, digest }) {
            self.refs.release(&prev.digest);
        }
    }

    /// Reads one block from wherever it lives.
    ///
    /// # Errors
    ///
    /// [`VolumeError::UnknownVolume`] / [`VolumeError::OutOfRange`] /
    /// [`VolumeError::Unwritten`] / [`VolumeError::ReadFailed`].
    pub fn read(&mut self, name: &str, block: u64) -> Result<Vec<u8>, ClusterError> {
        let node_id = self.volumes.resolve(name, block)?.node;
        let node = self.nodes.get_mut(&node_id).expect("map points at members");
        Ok(node.vm.read(name, block)?)
    }

    /// Reads a batch, grouping requests per home node into one node-level
    /// batched read each, and reassembling in request order. All indices
    /// validate before any device work.
    ///
    /// # Errors
    ///
    /// As [`Cluster::read`]; the first invalid index wins.
    pub fn read_batch(&mut self, name: &str, blocks: &[u64]) -> Result<Vec<Vec<u8>>, ClusterError> {
        let mut groups: BTreeMap<NodeId, Vec<(usize, u64)>> = BTreeMap::new();
        for (pos, &block) in blocks.iter().enumerate() {
            let node_id = self.volumes.resolve(name, block)?.node;
            groups.entry(node_id).or_default().push((pos, block));
        }
        let mut out = vec![Vec::new(); blocks.len()];
        for (node_id, group) in groups {
            let node = self.nodes.get_mut(&node_id).expect("map points at members");
            let node_blocks: Vec<u64> = group.iter().map(|&(_, b)| b).collect();
            let data = node.vm.read_batch(name, &node_blocks)?;
            for ((pos, _), bytes) in group.into_iter().zip(data) {
                out[pos] = bytes;
            }
        }
        Ok(out)
    }

    /// Flushes every node (pipeline flush, journal checkpoint when
    /// journaled).
    ///
    /// # Errors
    ///
    /// [`VolumeError::ReadFailed`] when a node's flush fails at the
    /// device past retries.
    pub fn flush(&mut self) -> Result<(), ClusterError> {
        for node in self.nodes.values_mut() {
            node.vm.pipeline_mut().flush().map_err(VolumeError::from)?;
            node.vm
                .pipeline_mut()
                .journal_checkpoint()
                .map_err(|e| ClusterError::Recovery(e.to_string()))?;
        }
        Ok(())
    }

    /// Adds a node: it gets every volume, joins the ring, and the ~1/N
    /// of bins it now wins migrate over.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Full`], or a migration failure.
    pub fn join(&mut self) -> Result<(NodeId, RebalanceOutcome), ClusterError> {
        if self.nodes.len() >= self.config.max_nodes {
            return Err(ClusterError::Full {
                max: self.config.max_nodes,
            });
        }
        let id = self.next_node;
        self.next_node += 1;
        let mut node = Node::new(id, &self.config.node);
        for (name, blocks) in self.volumes.sizes() {
            node.vm
                .create_volume(name, blocks)
                .expect("fresh node has no volumes");
        }
        self.nodes.insert(id, node);
        self.ring.add(id);
        let rebalance = self.rebalance()?;
        self.obs.counter("membership.joins").incr();
        Ok((id, rebalance))
    }

    /// Removes a node after migrating everything it holds to the
    /// survivors.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] / [`ClusterError::LastNode`], or a
    /// migration failure.
    pub fn leave(&mut self, id: NodeId) -> Result<RebalanceOutcome, ClusterError> {
        if !self.nodes.contains_key(&id) {
            return Err(ClusterError::UnknownNode(id));
        }
        if self.nodes.len() == 1 {
            return Err(ClusterError::LastNode);
        }
        self.ring.remove(id);
        let rebalance = self.rebalance()?;
        debug_assert!(
            self.volumes.iter().all(|(_, _, e)| e.node != id),
            "rebalance must drain a leaving node"
        );
        self.nodes.remove(&id);
        self.obs.counter("membership.leaves").incr();
        Ok(rebalance)
    }

    /// Migrates every placement entry whose bin re-homed, one at a time.
    /// Dedup accounting is untouched: moving a block changes where it
    /// lives, not what the cluster stores.
    fn rebalance(&mut self) -> Result<RebalanceOutcome, ClusterError> {
        let moves: Vec<(String, u64, NodeId, NodeId)> = self
            .volumes
            .iter()
            .filter_map(|(name, block, entry)| {
                let home = self.home(&entry.digest);
                (home != entry.node).then(|| (name.to_owned(), block, entry.node, home))
            })
            .collect();
        let mut outcome = RebalanceOutcome::default();
        for (name, block, from, to) in moves {
            let moved = self.migrate(&name, block, from, to, &mut outcome.crc_resends)?;
            outcome.moves.push(moved);
        }
        self.obs
            .counter("rebalance.moves")
            .add(outcome.moves.len() as u64);
        self.obs
            .counter("rebalance.crc_resends")
            .add(outcome.crc_resends);
        Ok(outcome)
    }

    /// Moves one block: source read (source clock), sealed transfer,
    /// destination open + write (destination clock + journal), map flip.
    /// A wire that does not open is sent again.
    fn migrate(
        &mut self,
        name: &str,
        block: u64,
        from: NodeId,
        to: NodeId,
        crc_resends: &mut u64,
    ) -> Result<MovedBlock, ClusterError> {
        let mut sealed = self.read_with_retries(from, name, block)?;
        let len = sealed.len() as u64;
        seal(&mut sealed, 0);
        let mut attempts = 0usize;
        let ack = loop {
            let mut wire = sealed.clone();
            if self.corrupt_next_handoff {
                self.corrupt_next_handoff = false;
                wire[0] ^= 0xFF;
            }
            if let Ok(data) = open(&wire) {
                let dest = self.nodes.get_mut(&to).expect("ring routes to members");
                dest.vm.write(name, block, data)?;
                break dest.vm.last_ack();
            }
            *crc_resends += 1;
            attempts += 1;
            if attempts > CRC_RETRIES {
                return Err(ClusterError::Handoff {
                    name: name.to_owned(),
                    block,
                    from,
                    to,
                });
            }
        };
        self.obs
            .counter("rebalance.transfer_sim_ns")
            .add(len * TRANSFER_NS_PER_BYTE);
        self.obs.counter("rebalance.bytes").add(len);
        self.entry_mut(name, block).node = to;
        Ok(MovedBlock {
            name: name.to_owned(),
            block,
            from,
            to,
            ack,
        })
    }

    /// A node read with bounded retries over transient device faults.
    fn read_with_retries(
        &mut self,
        node_id: NodeId,
        name: &str,
        block: u64,
    ) -> Result<Vec<u8>, ClusterError> {
        let node = self.nodes.get_mut(&node_id).expect("reading from a member");
        let mut last = node.vm.read(name, block);
        for _ in 0..TRANSIENT_RETRIES {
            if last.is_ok() {
                break;
            }
            last = node.vm.read(name, block);
        }
        last.map_err(ClusterError::Volume)
    }

    /// Power-cuts one node at a seeded instant within its acked horizon,
    /// recovers it from its journal, and reconciles the cluster around
    /// it: map entries the node durably holds stay (updating their digest
    /// when the node reverted to an older version), lost entries leave
    /// the map, the refcount directory is recounted from the map, and a
    /// final rebalance re-homes any reverted entry whose digest now
    /// routes elsewhere.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] / [`ClusterError::Recovery`], or a
    /// migration failure during the re-homing pass.
    ///
    /// # Panics
    ///
    /// Panics when the node's pipeline has no journal
    /// (`journal_pages == 0` in the template config).
    pub fn crash_node(&mut self, id: NodeId, seed: u64) -> Result<NodeRecovery, ClusterError> {
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or(ClusterError::UnknownNode(id))?;
        let mut rng = SplitMix64::new(seed);
        let cut = SimTime::from_nanos(rng.next_below(node.vm.last_ack().as_nanos() + 1));
        let outcome = node
            .vm
            .crash_and_recover(CrashSpec {
                at: cut,
                torn_seed: seed,
            })
            .map_err(|e| ClusterError::Recovery(e.to_string()))?;
        // The node may have lost volume-create records; cluster metadata
        // is authoritative, so re-create what's missing (empty — if the
        // create record is gone, every later record for it is too).
        let node = self.nodes.get_mut(&id).expect("still a member");
        let present: Vec<String> = node
            .vm
            .volume_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for (name, blocks) in self.volumes.sizes() {
            if !present.iter().any(|p| p == name) {
                node.vm
                    .create_volume(name, blocks)
                    .expect("recovered node lacks this volume");
            }
        }
        // Reconcile placement entries homed on the crashed node.
        let mine: Vec<(String, u64)> = self
            .volumes
            .iter()
            .filter(|(_, _, e)| e.node == id)
            .map(|(name, block, _)| (name.to_owned(), block))
            .collect();
        let mut lost = Vec::new();
        let mut reverted = Vec::new();
        for (name, block) in mine {
            let node = self.nodes.get_mut(&id).expect("still a member");
            let written = node
                .vm
                .is_written(&name, block)
                .expect("volume exists and block was in range");
            if !written {
                *self.volumes.slot_mut(&name, block).expect("entry's slot") = None;
                lost.push((name, block));
                continue;
            }
            let data = self.read_with_retries(id, &name, block)?;
            let digest = sha1_digest(&data);
            let entry = self.entry_mut(&name, block);
            if digest != entry.digest {
                entry.digest = digest;
                reverted.push((name, block));
            }
        }
        self.obs.counter("reconcile.lost").add(lost.len() as u64);
        self.obs
            .counter("reconcile.reverted")
            .add(reverted.len() as u64);
        // Lost and reverted entries released references and reverted ones
        // took older digests back: recount from the surviving map.
        self.refs = self.recount();
        self.obs.counter("membership.crashes").incr();
        // Reverted digests may route elsewhere under the (unchanged)
        // ring; restore the entry.node == home(entry.digest) invariant
        // before the next operation.
        let rebalance = self.rebalance()?;
        Ok(NodeRecovery {
            node: id,
            cut,
            outcome,
            lost,
            reverted,
            rebalance,
        })
    }

    /// Cluster-wide accounting plus per-node reports.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            chunks: self.chunks,
            unique_chunks: self.unique_chunks,
            dedup_hits: self.dedup_hits,
            live_digests: self.refs.0.len() as u64,
            nodes: self
                .nodes
                .iter()
                .map(|(id, n)| (*id, n.vm.report().clone()))
                .collect(),
        }
    }

    /// The merged obs view: every node's metrics namespaced (`node3.…`),
    /// `cluster.*` aggregates across nodes, and the front-end's own
    /// `router.*` counters.
    pub fn rollup(&self) -> Snapshot {
        let mut parts: Vec<Snapshot> = self.nodes.values().map(|n| n.snapshot()).collect();
        if let Some(own) = self.obs.snapshot() {
            parts.push(own);
        }
        merge_snapshots("cluster", &parts)
    }

    /// Structural self-audit: placement, the refcount directory,
    /// accounting, and per-node conservation all agree. The checker calls
    /// this after every op; it is `Err` with a description on the first
    /// violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn check_integrity(&self) -> Result<(), String> {
        if self.chunks != self.unique_chunks + self.dedup_hits {
            return Err(format!(
                "accounting: chunks {} != unique {} + dedup {}",
                self.chunks, self.unique_chunks, self.dedup_hits
            ));
        }
        for (name, block, entry) in self.volumes.iter() {
            let node = self
                .nodes
                .get(&entry.node)
                .ok_or_else(|| format!("{name}/{block}: placed on dead node {}", entry.node))?;
            let home = self.home(&entry.digest);
            if home != entry.node {
                return Err(format!(
                    "{name}/{block}: on node {} but its bin homes on {home}",
                    entry.node
                ));
            }
            if node.vm.is_written(name, block) != Ok(true) {
                return Err(format!(
                    "{name}/{block}: node {} has no durable mapping",
                    entry.node
                ));
            }
            if self.config.node.dedup_enabled && !node.vm.pipeline().index().contains(&entry.digest)
            {
                return Err(format!(
                    "{name}/{block}: digest missing from node {}'s bin index",
                    entry.node
                ));
            }
        }
        let derived = self.recount();
        if self.refs != derived {
            return Err(format!(
                "refcounts: directory has {} digests, map derives {}",
                self.refs.0.len(),
                derived.0.len()
            ));
        }
        for (id, node) in &self.nodes {
            let books = node.vm.pipeline().check_conservation();
            books.map_err(|e| format!("node {id}: conservation: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(i: u64) -> ChunkDigest {
        sha1_digest(&i.to_le_bytes())
    }

    #[test]
    fn acquire_release_refcounts() {
        let mut refs = Refcounts::default();
        assert!(refs.acquire(digest(1)), "first reference is unique");
        assert!(!refs.acquire(digest(1)), "second reference is a dup");
        refs.release(&digest(1));
        assert!(refs.0.contains_key(&digest(1)), "one reference remains");
        refs.release(&digest(1));
        assert_eq!(refs, Refcounts::default(), "last release drops the digest");
    }

    #[test]
    #[should_panic(expected = "never held")]
    fn release_of_unknown_digest_panics() {
        Refcounts::default().release(&digest(9));
    }
}
