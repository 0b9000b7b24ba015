//! The ResourceManager: applications, nodes, the allocation pipeline, and
//! the pmem monitor.
//!
//! Storage is production-shaped: applications live in a dense `Vec` indexed
//! by id, containers in a generation-checked [`Slab`] whose slots are only
//! recycled through [`ResourceManager::evict_completed`], and the live
//! containers of each application (plus the cluster-wide live set) are
//! indexed in `BTreeSet`s so heartbeats, reports, and the pmem monitor no
//! longer scan every container ever allocated. Iteration order everywhere
//! observable is ascending container id — exactly the order the seed's
//! `BTreeMap<ContainerId, Container>` produced.

use crate::config::{self, default_yarn_config};
use crate::error::YarnError;
use crate::resource::Resource;
use crate::scheduler::{scheduler_from_config, Scheduler};
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::config::ConfigMap;
use csi_core::fault::Channel;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Identifier of a registered application (application master).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ApplicationId(pub u64);

/// Identifier of a container.
///
/// Encodes a slab slot and its generation: the low 32 bits are
/// `slot + 1`, the high 32 bits the slot's generation. Generation-0 ids
/// are therefore the plain sequence `1, 2, 3, …` — identical to the
/// seed's monotonic counter — and only diverge once
/// [`ResourceManager::evict_completed`] recycles slots, at which point the
/// generation fences every stale id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

/// Identifier of a NodeManager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

fn encode_container(slot: u32, generation: u32) -> ContainerId {
    ContainerId((u64::from(generation) << 32) | (u64::from(slot) + 1))
}

fn decode_container(id: ContainerId) -> Option<(u32, u32)> {
    let low = id.0 & 0xFFFF_FFFF;
    if low == 0 {
        return None;
    }
    #[allow(clippy::cast_possible_truncation)]
    Some(((low - 1) as u32, (id.0 >> 32) as u32))
}

/// Deployment mode of the ResourceManager.
///
/// Some client APIs are unavailable outside the classic mode; YARN-9724 is
/// the CSI failure where an upstream assumed `getClusterMetrics` worked in
/// every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmMode {
    /// A single classic ResourceManager.
    Classic,
    /// A federated deployment, where some client APIs are not implemented.
    Federation,
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerState {
    /// Allocated but not yet started by the AM.
    Allocated,
    /// Started and running.
    Running,
    /// Completed normally.
    Completed,
    /// Killed by the platform.
    Killed {
        /// Why the platform killed it (e.g. the pmem monitor).
        reason: String,
    },
}

/// A container handed to an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Container id.
    pub id: ContainerId,
    /// Owning application.
    pub app: ApplicationId,
    /// Node hosting the container.
    pub node: NodeId,
    /// Allocated resource (post-normalization).
    pub resource: Resource,
    /// Current state.
    pub state: ContainerState,
    /// Last reported physical memory use, MB.
    pub pmem_used_mb: u64,
}

/// One heartbeat response of the AM–RM protocol.
#[derive(Debug, Clone, Default)]
pub struct AllocateResponse {
    /// Containers newly allocated since the previous heartbeat.
    pub allocated: Vec<Container>,
    /// Containers that completed or were killed since the previous
    /// heartbeat.
    pub completed: Vec<(ContainerId, ContainerState)>,
    /// Number of this application's asks still pending at the RM.
    pub num_pending: usize,
}

/// Cluster-level metrics (YARN's `getYarnClusterMetrics`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Registered NodeManagers.
    pub num_node_managers: usize,
    /// Total cluster capacity.
    pub total: Resource,
    /// Capacity not currently allocated.
    pub available: Resource,
    /// Containers currently allocated or running.
    pub containers_active: usize,
    /// Asks waiting in the allocation pipeline.
    pub containers_pending: usize,
}

#[derive(Debug)]
struct Node {
    capacity: Resource,
    used: Resource,
}

/// Final status an ApplicationMaster registers when unregistering —
/// YARN's view of how the job ended, which monitoring consumers act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmFinalStatus {
    /// The AM never registered a status (or is still running).
    #[default]
    Undefined,
    /// Registered SUCCEEDED.
    Succeeded,
    /// Registered FAILED.
    Failed,
}

/// Lifecycle state of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AppLifecycle {
    /// Registered and running.
    #[default]
    Running,
    /// Unregistered.
    Finished,
}

/// The report `getApplicationReport` returns to monitoring consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplicationReport {
    /// Lifecycle state.
    pub state: AppLifecycle,
    /// The AM-registered final status.
    pub final_status: AmFinalStatus,
    /// Containers still held.
    pub live_containers: usize,
}

#[derive(Debug, Default)]
struct AppState {
    #[allow(dead_code)]
    name: String,
    ready: Vec<ContainerId>,
    completed: Vec<(ContainerId, ContainerState)>,
    lifecycle: AppLifecycle,
    final_status: AmFinalStatus,
    /// This app's containers in `Allocated | Running` state, ascending id —
    /// the order the seed's full-map scans observed them in.
    live: BTreeSet<ContainerId>,
    /// This app's asks still waiting in the pipeline (O(1) `num_pending`).
    pending_asks: usize,
}

struct PendingAsk {
    app: ApplicationId,
    resource: Resource,
}

#[derive(Debug)]
struct SlabEntry<T> {
    generation: u32,
    val: Option<T>,
}

/// A slab allocator with generation-checked handles.
///
/// Slots are recycled LIFO; every removal bumps the slot's generation so a
/// handle minted for the previous occupant no longer resolves. A slab that
/// is never drained hands out slots `0, 1, 2, …` in order, which is what
/// keeps generation-0 container ids sequential.
#[derive(Debug)]
struct Slab<T> {
    entries: Vec<SlabEntry<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// The (slot, generation) the next [`Slab::insert`] will occupy.
    fn next_slot(&self) -> (u32, u32) {
        match self.free.last() {
            Some(&slot) => (slot, self.entries[slot as usize].generation),
            None => (u32::try_from(self.entries.len()).expect("slab overflow"), 0),
        }
    }

    fn insert(&mut self, val: T) -> (u32, u32) {
        match self.free.pop() {
            Some(slot) => {
                let e = &mut self.entries[slot as usize];
                debug_assert!(e.val.is_none(), "free slot must be empty");
                e.val = Some(val);
                (slot, e.generation)
            }
            None => {
                let slot = u32::try_from(self.entries.len()).expect("slab overflow");
                self.entries.push(SlabEntry {
                    generation: 0,
                    val: Some(val),
                });
                (slot, 0)
            }
        }
    }

    fn get(&self, slot: u32, generation: u32) -> Option<&T> {
        self.entries
            .get(slot as usize)
            .filter(|e| e.generation == generation)
            .and_then(|e| e.val.as_ref())
    }

    fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut T> {
        self.entries
            .get_mut(slot as usize)
            .filter(|e| e.generation == generation)
            .and_then(|e| e.val.as_mut())
    }

    fn remove(&mut self, slot: u32, generation: u32) -> Option<T> {
        let e = self.entries.get_mut(slot as usize)?;
        if e.generation != generation || e.val.is_none() {
            return None;
        }
        let val = e.val.take();
        e.generation = e.generation.wrapping_add(1);
        self.free.push(slot);
        val
    }

    /// Occupied slots, ascending — deterministic scan order.
    fn iter(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            e.val
                .as_ref()
                .map(|v| (u32::try_from(i).expect("slab overflow"), e.generation, v))
        })
    }
}

/// The miniyarn ResourceManager.
///
/// Time is driven externally via [`ResourceManager::advance_clock`]; the
/// allocation pipeline serves one ask every `alloc_service_ms` of virtual
/// time, which is the latency at the heart of FLINK-12342.
pub struct ResourceManager {
    config: ConfigMap,
    scheduler: Box<dyn Scheduler + Send>,
    mode: RmMode,
    nodes: BTreeMap<NodeId, Node>,
    /// Applications, indexed by `id - 1`. Never freed: YARN keeps finished
    /// application reports queryable.
    apps: Vec<AppState>,
    containers: Slab<Container>,
    /// Every container in `Allocated | Running` state, ascending id.
    live: BTreeSet<ContainerId>,
    pending: VecDeque<PendingAsk>,
    clock_ms: u64,
    pipeline_free_at: u64,
    alloc_service_ms: u64,
    total_requested: u64,
    total_allocated: u64,
    crossing: Option<CrossingContext>,
}

impl ResourceManager {
    /// Creates an RM with the given configuration and deployment mode.
    pub fn new(config: ConfigMap, mode: RmMode) -> ResourceManager {
        let scheduler = scheduler_from_config(&config);
        ResourceManager {
            config,
            scheduler,
            mode,
            nodes: BTreeMap::new(),
            apps: Vec::new(),
            containers: Slab::default(),
            live: BTreeSet::new(),
            pending: VecDeque::new(),
            clock_ms: 0,
            pipeline_free_at: 0,
            alloc_service_ms: 10,
            total_requested: 0,
            total_allocated: 0,
            crossing: None,
        }
    }

    /// Attaches the deployment's crossing context; every RM request entry
    /// point crosses the [`Channel::Yarn`] boundary through it.
    pub fn set_crossing(&mut self, crossing: CrossingContext) {
        self.crossing = Some(crossing);
    }

    /// The RM request boundary crossing at the entry of `op`.
    fn cross(&self, op: &str, payload: &str) -> Result<(), YarnError> {
        match &self.crossing {
            Some(ctx) => ctx.cross(BoundaryCall::new(Channel::Yarn, op).with_payload(payload)),
            None => Ok(()),
        }
    }

    /// Creates a classic-mode RM with default configuration and `n` nodes of
    /// the given capacity.
    pub fn with_nodes(n: u32, capacity: Resource) -> ResourceManager {
        let mut rm = ResourceManager::new(default_yarn_config(), RmMode::Classic);
        for i in 0..n {
            rm.add_node(NodeId(i), capacity);
        }
        rm
    }

    /// The RM's configuration.
    pub fn config(&self) -> &ConfigMap {
        &self.config
    }

    /// Sets the per-container allocation service time (ms of virtual time).
    pub fn set_alloc_service_ms(&mut self, ms: u64) {
        self.alloc_service_ms = ms.max(1);
    }

    /// Registers a NodeManager.
    pub fn add_node(&mut self, id: NodeId, capacity: Resource) {
        self.nodes.insert(
            id,
            Node {
                capacity,
                used: Resource::default(),
            },
        );
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.clock_ms
    }

    /// Advances virtual time, letting the allocation pipeline make progress.
    pub fn advance_clock(&mut self, ms: u64) {
        self.clock_ms += ms;
        self.process_pipeline();
    }

    fn app_index(&self, app: ApplicationId) -> Result<usize, YarnError> {
        let idx = app
            .0
            .checked_sub(1)
            .ok_or(YarnError::UnknownApplication(app.0))?;
        if idx >= self.apps.len() as u64 {
            return Err(YarnError::UnknownApplication(app.0));
        }
        #[allow(clippy::cast_possible_truncation)]
        Ok(idx as usize)
    }

    fn container_mut(&mut self, id: ContainerId) -> Result<&mut Container, YarnError> {
        decode_container(id)
            .and_then(|(slot, generation)| self.containers.get_mut(slot, generation))
            .ok_or(YarnError::UnknownContainer(id.0))
    }

    /// Registers an application master.
    pub fn register_application(&mut self, name: &str) -> ApplicationId {
        self.apps.push(AppState {
            name: name.to_string(),
            ..AppState::default()
        });
        ApplicationId(self.apps.len() as u64)
    }

    /// Adds one container ask. The ask is normalized by the deployed
    /// scheduler and queued; the container arrives via a later
    /// [`ResourceManager::allocate`] heartbeat.
    ///
    /// Returns the *normalized* resource the cluster will actually allocate.
    pub fn add_container_request(
        &mut self,
        app: ApplicationId,
        ask: Resource,
    ) -> Result<Resource, YarnError> {
        self.cross("add_container_request", &format!("app-{}", app.0))?;
        let idx = self.app_index(app)?;
        let normalized = self.scheduler.normalize(ask, &self.config)?;
        self.pending.push_back(PendingAsk {
            app,
            resource: normalized,
        });
        self.apps[idx].pending_asks += 1;
        self.total_requested += 1;
        Ok(normalized)
    }

    /// Removes up to `n` of this application's pending asks (oldest first),
    /// returning how many were removed. This is workaround #2 of Figure 5:
    /// "remove the container requests as fast as possible".
    pub fn remove_container_requests(&mut self, app: ApplicationId, n: usize) -> usize {
        let mut removed = 0;
        self.pending.retain(|ask| {
            if ask.app == app && removed < n {
                removed += 1;
                false
            } else {
                true
            }
        });
        if removed > 0 {
            if let Ok(idx) = self.app_index(app) {
                self.apps[idx].pending_asks -= removed;
            }
        }
        removed
    }

    /// The AM–RM heartbeat: returns containers allocated and completed since
    /// the application's previous heartbeat.
    pub fn allocate(&mut self, app: ApplicationId) -> Result<AllocateResponse, YarnError> {
        self.cross("allocate", &format!("app-{}", app.0))?;
        self.process_pipeline();
        let idx = self.app_index(app)?;
        let state = &mut self.apps[idx];
        let num_pending = state.pending_asks;
        let ready = std::mem::take(&mut state.ready);
        let completed = std::mem::take(&mut state.completed);
        let allocated = ready
            .iter()
            .filter_map(|id| {
                decode_container(*id)
                    .and_then(|(slot, generation)| self.containers.get(slot, generation))
                    .cloned()
            })
            .collect();
        Ok(AllocateResponse {
            allocated,
            completed,
            num_pending,
        })
    }

    /// Effective per-ask service time: the pipeline degrades as the backlog
    /// grows, the overload effect of Figure 1.
    fn effective_service_ms(&self) -> u64 {
        let backlog_factor = 1 + (self.pending.len() as u64) / 1000;
        let injected = self
            .crossing
            .as_ref()
            .map_or(0, CrossingContext::virtual_delay_ms);
        self.alloc_service_ms * backlog_factor + injected
    }

    fn process_pipeline(&mut self) {
        loop {
            if self.pending.is_empty() {
                break;
            }
            let service = self.effective_service_ms();
            let start = self.pipeline_free_at;
            let done_at = start + service;
            if done_at > self.clock_ms {
                break;
            }
            let ask = self.pending.front().expect("checked non-empty");
            match self.place(ask.resource) {
                Some(node) => {
                    let ask = self.pending.pop_front().expect("checked non-empty");
                    self.pipeline_free_at = done_at;
                    let (slot, generation) = self.containers.next_slot();
                    let id = encode_container(slot, generation);
                    let container = Container {
                        id,
                        app: ask.app,
                        node,
                        resource: ask.resource,
                        state: ContainerState::Allocated,
                        pmem_used_mb: 0,
                    };
                    self.nodes.get_mut(&node).expect("node exists").used += ask.resource;
                    let inserted = self.containers.insert(container);
                    debug_assert_eq!(inserted, (slot, generation));
                    self.live.insert(id);
                    self.total_allocated += 1;
                    if let Ok(idx) = self.app_index(ask.app) {
                        let app = &mut self.apps[idx];
                        app.ready.push(id);
                        app.live.insert(id);
                        app.pending_asks -= 1;
                    }
                }
                None => {
                    // Head-of-line blocking: no node can currently host the
                    // ask; the pipeline stalls until resources free up.
                    break;
                }
            }
        }
    }

    fn place(&self, resource: Resource) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|(_, n)| resource.fits_in(&n.capacity.saturating_sub(&n.used)))
            .map(|(id, _)| *id)
    }

    /// Marks an allocated container as started (NMClient `startContainer`).
    pub fn start_container(&mut self, id: ContainerId) -> Result<(), YarnError> {
        let c = self.container_mut(id)?;
        if c.state == ContainerState::Allocated {
            c.state = ContainerState::Running;
            Ok(())
        } else {
            Err(YarnError::UnknownContainer(id.0))
        }
    }

    /// Releases a container back to the cluster.
    pub fn release_container(&mut self, id: ContainerId) -> Result<(), YarnError> {
        let c = self.container_mut(id)?;
        if matches!(
            c.state,
            ContainerState::Completed | ContainerState::Killed { .. }
        ) {
            return Ok(());
        }
        c.state = ContainerState::Completed;
        let (node, res, app) = (c.node, c.resource, c.app);
        self.live.remove(&id);
        if let Some(n) = self.nodes.get_mut(&node) {
            n.used -= res;
        }
        if let Ok(idx) = self.app_index(app) {
            let a = &mut self.apps[idx];
            a.live.remove(&id);
            a.completed.push((id, ContainerState::Completed));
        }
        Ok(())
    }

    /// Reports the physical memory a container's process tree uses (the
    /// NodeManager's pmem sampling).
    pub fn report_container_pmem(&mut self, id: ContainerId, mb: u64) -> Result<(), YarnError> {
        self.container_mut(id)?.pmem_used_mb = mb;
        Ok(())
    }

    /// Runs the pmem monitor: kills every running container whose reported
    /// physical memory exceeds its allocation (FLINK-887). Returns the
    /// killed container ids.
    pub fn enforce_pmem(&mut self) -> Vec<ContainerId> {
        let enabled = matches!(
            self.config.get_bool(config::PMEM_CHECK_ENABLED),
            Some(Ok(true))
        );
        if !enabled {
            return Vec::new();
        }
        let mut killed = Vec::new();
        // The live index replaces the seed's scan over every container ever
        // allocated; `BTreeSet` iteration preserves the ascending-id victim
        // order the scan produced.
        let victims: Vec<ContainerId> = self
            .live
            .iter()
            .copied()
            .filter(|id| {
                decode_container(*id)
                    .and_then(|(slot, generation)| self.containers.get(slot, generation))
                    .is_some_and(|c| c.pmem_used_mb > c.resource.memory_mb)
            })
            .collect();
        for id in victims {
            let c = self.container_mut(id).expect("victim exists");
            let reason = format!(
                "Container {} is running beyond physical memory limits. \
                 Current usage: {} MB of {} MB physical memory used. Killing container.",
                id.0, c.pmem_used_mb, c.resource.memory_mb
            );
            c.state = ContainerState::Killed {
                reason: reason.clone(),
            };
            let (node, res, app) = (c.node, c.resource, c.app);
            self.live.remove(&id);
            if let Some(n) = self.nodes.get_mut(&node) {
                n.used -= res;
            }
            if let Ok(idx) = self.app_index(app) {
                let a = &mut self.apps[idx];
                a.live.remove(&id);
                a.completed.push((id, ContainerState::Killed { reason }));
            }
            killed.push(id);
        }
        killed
    }

    /// Unregisters an application with its final status: all its pending
    /// asks are dropped and its containers released.
    pub fn unregister_application(
        &mut self,
        app: ApplicationId,
        final_status: AmFinalStatus,
    ) -> Result<(), YarnError> {
        let idx = self.app_index(app)?;
        self.pending.retain(|a| a.app != app);
        self.apps[idx].pending_asks = 0;
        // Ascending-id release order, as the seed's container scan yielded.
        let held: Vec<ContainerId> = self.apps[idx].live.iter().copied().collect();
        for id in held {
            self.release_container(id)?;
        }
        let state = &mut self.apps[idx];
        state.lifecycle = AppLifecycle::Finished;
        state.final_status = final_status;
        Ok(())
    }

    /// The application report monitoring consumers read
    /// (`getApplicationReport`).
    pub fn application_report(&self, app: ApplicationId) -> Result<ApplicationReport, YarnError> {
        let state = &self.apps[self.app_index(app)?];
        Ok(ApplicationReport {
            state: state.lifecycle,
            final_status: state.final_status,
            live_containers: state.live.len(),
        })
    }

    /// Cluster metrics, available only in classic mode (YARN-9724).
    pub fn get_cluster_metrics(&self) -> Result<ClusterMetrics, YarnError> {
        self.cross("get_cluster_metrics", "cluster")?;
        if self.mode == RmMode::Federation {
            return Err(YarnError::UnsupportedInMode {
                op: "getClusterMetrics",
                mode: "federation",
            });
        }
        let total = self
            .nodes
            .values()
            .fold(Resource::default(), |acc, n| acc + n.capacity);
        let used = self
            .nodes
            .values()
            .fold(Resource::default(), |acc, n| acc + n.used);
        Ok(ClusterMetrics {
            num_node_managers: self.nodes.len(),
            total,
            available: total.saturating_sub(&used),
            containers_active: self.live.len(),
            containers_pending: self.pending.len(),
        })
    }

    /// Looks up a container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        decode_container(id).and_then(|(slot, generation)| self.containers.get(slot, generation))
    }

    /// Evicts every `Completed`/`Killed` container record, freeing its slab
    /// slot for reuse. The freed slot's generation bumps, so stale ids
    /// minted for evicted containers no longer resolve. Returns the number
    /// of records evicted.
    ///
    /// Long-running clusters call this between job waves; without it the
    /// container table grows without bound (and ids never deviate from the
    /// seed's sequence).
    pub fn evict_completed(&mut self) -> usize {
        let dead: Vec<(u32, u32)> = self
            .containers
            .iter()
            .filter(|(_, _, c)| {
                matches!(
                    c.state,
                    ContainerState::Completed | ContainerState::Killed { .. }
                )
            })
            .map(|(slot, generation, _)| (slot, generation))
            .collect();
        for &(slot, generation) in &dead {
            self.containers.remove(slot, generation);
        }
        dead.len()
    }

    /// Total asks ever submitted (the "4000+ requested" counter of Figure 1).
    pub fn total_requested(&self) -> u64 {
        self.total_requested
    }

    /// Total containers ever allocated.
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Asks currently waiting in the pipeline.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm() -> ResourceManager {
        let mut rm = ResourceManager::with_nodes(4, Resource::new(16384, 16));
        rm.set_alloc_service_ms(10);
        rm
    }

    #[test]
    fn allocation_takes_service_time() {
        let mut rm = rm();
        let app = rm.register_application("flink");
        rm.add_container_request(app, Resource::new(1024, 1))
            .unwrap();
        // Immediately: nothing allocated yet.
        let r = rm.allocate(app).unwrap();
        assert!(r.allocated.is_empty());
        assert_eq!(r.num_pending, 1);
        // After the service time the container arrives.
        rm.advance_clock(10);
        let r = rm.allocate(app).unwrap();
        assert_eq!(r.allocated.len(), 1);
        assert_eq!(r.num_pending, 0);
        assert_eq!(r.allocated[0].resource, Resource::new(1024, 1));
    }

    #[test]
    fn heartbeat_drains_each_container_once() {
        let mut rm = rm();
        let app = rm.register_application("a");
        for _ in 0..3 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        rm.advance_clock(100);
        assert_eq!(rm.allocate(app).unwrap().allocated.len(), 3);
        assert_eq!(rm.allocate(app).unwrap().allocated.len(), 0);
    }

    #[test]
    fn normalization_applies_to_allocated_containers() {
        let mut rm = rm();
        let app = rm.register_application("a");
        let normalized = rm
            .add_container_request(app, Resource::new(1500, 1))
            .unwrap();
        assert_eq!(normalized, Resource::new(2048, 1)); // Capacity scheduler.
        rm.advance_clock(50);
        let r = rm.allocate(app).unwrap();
        assert_eq!(r.allocated[0].resource, Resource::new(2048, 1));
    }

    #[test]
    fn oversized_request_is_rejected_up_front() {
        let mut rm = rm();
        let app = rm.register_application("a");
        assert!(matches!(
            rm.add_container_request(app, Resource::new(1_000_000, 1)),
            Err(YarnError::InvalidResourceRequest { .. })
        ));
    }

    #[test]
    fn remove_container_requests_cancels_pending() {
        let mut rm = rm();
        let app = rm.register_application("a");
        for _ in 0..5 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        assert_eq!(rm.remove_container_requests(app, 3), 3);
        assert_eq!(rm.pending_count(), 2);
        rm.advance_clock(1000);
        let r = rm.allocate(app).unwrap();
        assert_eq!(r.allocated.len(), 2);
        assert_eq!(r.num_pending, 0);
    }

    #[test]
    fn pipeline_stalls_when_cluster_is_full() {
        let mut rm = ResourceManager::with_nodes(1, Resource::new(2048, 2));
        rm.set_alloc_service_ms(1);
        let app = rm.register_application("a");
        for _ in 0..3 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        rm.advance_clock(1000);
        let r = rm.allocate(app).unwrap();
        assert_eq!(r.allocated.len(), 2); // Node holds 2 x (1024 MB, 1 core).
        assert_eq!(r.num_pending, 1);
        // Releasing a container unblocks the stalled ask.
        let released = r.allocated[0].id;
        rm.release_container(released).unwrap();
        rm.advance_clock(1000);
        let r = rm.allocate(app).unwrap();
        assert_eq!(r.allocated.len(), 1);
        // The earlier release is reported as completed.
        assert!(r.completed.iter().any(|(id, _)| *id == released));
    }

    #[test]
    fn pmem_monitor_kills_over_limit_containers() {
        let mut rm = rm();
        let app = rm.register_application("flink-jm");
        rm.add_container_request(app, Resource::new(1024, 1))
            .unwrap();
        rm.advance_clock(50);
        let c = rm.allocate(app).unwrap().allocated[0].clone();
        rm.start_container(c.id).unwrap();
        // The JVM inside uses more physical memory than the container size.
        rm.report_container_pmem(c.id, 1500).unwrap();
        let killed = rm.enforce_pmem();
        assert_eq!(killed, vec![c.id]);
        let state = &rm.container(c.id).unwrap().state;
        assert!(
            matches!(state, ContainerState::Killed { reason } if reason.contains("beyond physical memory limits"))
        );
        // The kill is visible on the next heartbeat.
        let r = rm.allocate(app).unwrap();
        assert_eq!(r.completed.len(), 1);
    }

    #[test]
    fn pmem_monitor_respects_config() {
        let mut cfg = default_yarn_config();
        cfg.set(config::PMEM_CHECK_ENABLED, "false", "test");
        let mut rm = ResourceManager::new(cfg, RmMode::Classic);
        rm.add_node(NodeId(0), Resource::new(16384, 16));
        let app = rm.register_application("a");
        rm.add_container_request(app, Resource::new(1024, 1))
            .unwrap();
        rm.advance_clock(100);
        let c = rm.allocate(app).unwrap().allocated[0].clone();
        rm.report_container_pmem(c.id, 9999).unwrap();
        assert!(rm.enforce_pmem().is_empty());
    }

    #[test]
    fn cluster_metrics_unavailable_in_federation_mode() {
        let rm_classic = rm();
        assert!(rm_classic.get_cluster_metrics().is_ok());
        let rm_fed = ResourceManager::new(default_yarn_config(), RmMode::Federation);
        assert!(matches!(
            rm_fed.get_cluster_metrics(),
            Err(YarnError::UnsupportedInMode { .. })
        ));
    }

    #[test]
    fn metrics_track_usage() {
        let mut rm = rm();
        let app = rm.register_application("a");
        rm.add_container_request(app, Resource::new(1024, 1))
            .unwrap();
        rm.advance_clock(50);
        rm.allocate(app).unwrap();
        let m = rm.get_cluster_metrics().unwrap();
        assert_eq!(m.num_node_managers, 4);
        assert_eq!(m.total, Resource::new(4 * 16384, 64));
        assert_eq!(m.available, Resource::new(4 * 16384 - 1024, 63));
        assert_eq!(m.containers_active, 1);
    }

    #[test]
    fn unknown_application_is_rejected() {
        let mut rm = rm();
        assert!(matches!(
            rm.allocate(ApplicationId(999)),
            Err(YarnError::UnknownApplication(999))
        ));
        assert!(rm
            .add_container_request(ApplicationId(999), Resource::new(1024, 1))
            .is_err());
    }

    #[test]
    fn unregister_releases_everything_and_reports_status() {
        let mut rm = rm();
        let app = rm.register_application("spark-job");
        for _ in 0..3 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        rm.advance_clock(50);
        let allocated = rm.allocate(app).unwrap().allocated;
        assert_eq!(allocated.len(), 3);
        let report = rm.application_report(app).unwrap();
        assert_eq!(report.state, AppLifecycle::Running);
        assert_eq!(report.final_status, AmFinalStatus::Undefined);
        assert_eq!(report.live_containers, 3);
        rm.unregister_application(app, AmFinalStatus::Failed)
            .unwrap();
        let report = rm.application_report(app).unwrap();
        assert_eq!(report.state, AppLifecycle::Finished);
        assert_eq!(report.final_status, AmFinalStatus::Failed);
        assert_eq!(report.live_containers, 0);
        // The cluster capacity is fully returned.
        let m = rm.get_cluster_metrics().unwrap();
        assert_eq!(m.available, m.total);
    }

    #[test]
    fn unregister_drops_pending_asks() {
        let mut rm = rm();
        let app = rm.register_application("a");
        for _ in 0..5 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        rm.unregister_application(app, AmFinalStatus::Succeeded)
            .unwrap();
        assert_eq!(rm.pending_count(), 0);
        assert_eq!(rm.allocate(app).unwrap().num_pending, 0);
        assert!(rm.application_report(ApplicationId(999)).is_err());
    }

    #[test]
    fn backlog_degrades_service_time() {
        // With 2000 pending asks, each allocation takes 3x the base time.
        let mut rm = ResourceManager::with_nodes(64, Resource::new(1 << 20, 1 << 10));
        rm.set_alloc_service_ms(10);
        let app = rm.register_application("a");
        for _ in 0..2000 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        rm.advance_clock(30);
        // Base service would have allocated 3 containers; degraded service
        // (30ms each at backlog 2000) allocates exactly 1.
        assert_eq!(rm.total_allocated(), 1);
    }

    #[test]
    fn container_ids_stay_sequential_without_eviction() {
        // Release/kill alone must never recycle ids — the seed's counter
        // semantics hold until an explicit evict.
        let mut rm = rm();
        let app = rm.register_application("a");
        for _ in 0..3 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        rm.advance_clock(100);
        let ids: Vec<u64> = rm
            .allocate(app)
            .unwrap()
            .allocated
            .iter()
            .map(|c| c.id.0)
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        rm.release_container(ContainerId(2)).unwrap();
        rm.add_container_request(app, Resource::new(1024, 1))
            .unwrap();
        rm.advance_clock(100);
        let r = rm.allocate(app).unwrap();
        assert_eq!(r.allocated[0].id, ContainerId(4));
    }

    #[test]
    fn evict_recycles_slots_and_fences_stale_ids() {
        let mut rm = rm();
        let app = rm.register_application("a");
        for _ in 0..2 {
            rm.add_container_request(app, Resource::new(1024, 1))
                .unwrap();
        }
        rm.advance_clock(100);
        let ids: Vec<ContainerId> = rm
            .allocate(app)
            .unwrap()
            .allocated
            .iter()
            .map(|c| c.id)
            .collect();
        rm.release_container(ids[0]).unwrap();
        assert_eq!(rm.evict_completed(), 1);
        // The evicted record is gone; the live one is untouched.
        assert!(rm.container(ids[0]).is_none());
        assert!(rm.container(ids[1]).is_some());
        assert!(matches!(
            rm.release_container(ids[0]),
            Err(YarnError::UnknownContainer(1))
        ));
        // The next allocation reuses slot 0 under generation 1.
        rm.add_container_request(app, Resource::new(1024, 1))
            .unwrap();
        rm.advance_clock(100);
        let c = &rm.allocate(app).unwrap().allocated[0];
        assert_eq!(c.id.0, (1 << 32) | 1);
        // The stale generation-0 id still does not resolve.
        assert!(rm.container(ids[0]).is_none());
        let m = rm.get_cluster_metrics().unwrap();
        assert_eq!(m.containers_active, 2);
    }
}
