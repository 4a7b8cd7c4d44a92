//! The engine's one cycle loop, and the epoch tasks that run it in
//! parallel: shard workers that run K cycles per pool handoff,
//! exchanging bridge mail over lock-free SPSC rings.
//!
//! # Why epochs
//!
//! Every advance of the network is an epoch of K cycles
//! ([`crate::Network::tick`] is `tick_epoch(1)`), and [`run_cycles`] is
//! the only per-cycle phase body. Under
//! [`ExecMode::Sequential`](crate::ExecMode::Sequential) the engine
//! runs it in place over all shards, with every bridge wired as a local
//! pair. Under [`ExecMode::Parallel`](crate::ExecMode::Parallel) the
//! engine partitions the shards into one [`EpochTask`] per pool slot
//! (contiguous ring ranges, so chain-like topologies keep most bridges
//! task-internal), moves the shards in, and every task runs the same
//! loop over its own slice. The scatter/gather then costs one handoff
//! per K cycles instead of one per cycle.
//!
//! # The cycle protocol
//!
//! Per cycle the loop runs four phases — deliver, backlog snapshot,
//! per-ring cycle, mailbox exchange. The two barrier phases touch the
//! *peer* side of each bridge; when the peer lives in another task, the
//! data travels over a dedicated pair of [`noc_sim::spsc`] rings (one
//! per direction per bridge) as [`BridgeMail`]:
//!
//! 1. after delivery, each side sends its own post-delivery inbox depth
//!    and receives the peer's ([`BridgeSide::peer_backlog`]);
//! 2. after the per-ring cycle, each side sends the flit batch its
//!    intake staged this cycle and appends the peer's batch onto `rx`.
//!
//! Both ends follow this cycle-indexed protocol in lockstep, so every
//! message's content is a pure function of the sending shard's state at
//! a fixed cycle — scheduling can change *when* a message is consumed,
//! never what it says. Per cycle and per direction a link carries one
//! `Depth` then one `Batch`; a producer can run at most one cycle ahead
//! before blocking on its peer's depth, so at most two messages are
//! ever in flight per direction ([`MAIL_CAP`] has slack on top).
//!
//! Bit-identity between the two modes follows because a cross link
//! carries exactly what a local pair copies: same values, same
//! per-bridge pairing, same cycle. The epoch bound (K ≤ the minimum
//! bridge traversal latency, [`crate::Network::max_epoch`]) guarantees
//! no flit can both enter and mature in a bridge pipeline within one
//! epoch, which is what lets the engine defer every caller-visible
//! drain (traces, metrics, utilization) to the epoch boundary without
//! an observable reordering.
//!
//! [`BridgeSide::peer_backlog`]: crate::bridge::BridgeSide::peer_backlog

use crate::bridge::BridgeSide;
use crate::flit::Flit;
use crate::network::TickMode;
use crate::shard::{EngineShared, RingShard, SideLoc};
use noc_sim::{spsc, Cycle, ShardPool, SpscReceiver, SpscSender};
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

/// SPSC ring capacity per direction. The protocol bounds in-flight
/// messages at two (see the module docs); the rest is slack.
const MAIL_CAP: usize = 4;

/// How long a task waits on a silent peer before declaring it dead.
/// Only reachable if a peer worker panicked mid-epoch (its own panic is
/// the root cause the pool reports); the cascade turns a would-be
/// deadlock into a typed [`noc_sim::PoolError`].
const PEER_TIMEOUT: Duration = Duration::from_secs(30);

/// One message over a cross-task bridge link.
#[derive(Debug)]
pub(crate) enum BridgeMail {
    /// The sender's post-delivery `rx` inbox depth this cycle.
    Depth(u32),
    /// The `(ready_cycle, flit)` batch the sender's intake staged this
    /// cycle (possibly empty — sent anyway to keep the protocol in
    /// lockstep).
    Batch(Vec<(u64, Flit)>),
}

/// A bridge side whose peer lives in another task: the mailbox
/// endpoints that stand in for the local copy of this side's barrier.
#[derive(Debug)]
pub(crate) struct CrossLink {
    /// This side; [`SideLoc::ring`] indexes the task's `shards`.
    side: SideLoc,
    tx: SpscSender<BridgeMail>,
    rx: SpscReceiver<BridgeMail>,
}

/// A disjoint partition of the network's shards plus the bridge wiring
/// it needs to run epochs on its own. Between epochs `shards` is empty:
/// the engine moves the [`RingShard`]s in for the scatter and takes
/// them back at the gather, so the caller keeps normal access to
/// queues, stats and telemetry at every epoch boundary.
#[derive(Debug)]
pub(crate) struct EpochTask {
    /// How many shards this task owns: the next `rings` in ring order
    /// after the previous task's.
    pub rings: usize,
    /// The owned shards (populated only while an epoch runs).
    pub shards: Vec<RingShard>,
    cross: Vec<CrossLink>,
    /// Bridges with both sides in this task; [`SideLoc::ring`] indexes
    /// `shards`.
    local: Vec<[SideLoc; 2]>,
}

/// The persistent epoch machinery: the worker pool plus the task
/// skeletons (wiring survives across epochs; shards do not).
#[derive(Debug)]
pub(crate) struct EpochEngine {
    pub pool: ShardPool<EpochTask>,
    pub tasks: Vec<EpochTask>,
}

/// Lazily built epoch engine. Cloning a network must not duplicate OS
/// threads or mailbox endpoints, so a clone starts empty and rebuilds
/// on its first epoch.
#[derive(Default)]
pub(crate) struct EpochCell(pub Option<EpochEngine>);

impl Clone for EpochCell {
    fn clone(&self) -> Self {
        EpochCell(None)
    }
}

impl std::fmt::Debug for EpochCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(e) => write!(f, "EpochCell({} tasks)", e.tasks.len()),
            None => write!(f, "EpochCell(idle)"),
        }
    }
}

/// Partition the rings into at most `slots` contiguous, near-even
/// tasks (never more tasks than rings, never an empty task) and wire
/// every bridge either task-locally or with an SPSC pair per
/// direction. Task `i` is run by pool slot `i`: the pool's round-robin
/// scatter with exactly one item per slot keeps every task on its own
/// thread, which the cycle protocol requires for progress.
pub(crate) fn build_tasks(shared: &EngineShared, slots: usize) -> Vec<EpochTask> {
    let nrings = shared.topo.rings().len();
    let ntasks = slots.clamp(1, nrings.max(1));
    let base = nrings / ntasks;
    let extra = nrings % ntasks;
    let mut tasks: Vec<EpochTask> = Vec::with_capacity(ntasks);
    let mut task_of_ring = vec![0usize; nrings];
    let mut local_of_ring = vec![0usize; nrings];
    let mut next = 0usize;
    for ti in 0..ntasks {
        let len = base + usize::from(ti < extra);
        for (li, r) in (next..next + len).enumerate() {
            task_of_ring[r] = ti;
            local_of_ring[r] = li;
        }
        next += len;
        tasks.push(EpochTask {
            rings: len,
            shards: Vec::new(),
            cross: Vec::new(),
            local: Vec::new(),
        });
    }
    for locs in &shared.side_loc {
        let [la, lb] = *locs;
        let (ra, rb) = (la.ring as usize, lb.ring as usize);
        let (ta, tb) = (task_of_ring[ra], task_of_ring[rb]);
        let a = SideLoc {
            ring: local_of_ring[ra] as u16,
            idx: la.idx,
        };
        let b = SideLoc {
            ring: local_of_ring[rb] as u16,
            idx: lb.idx,
        };
        if ta == tb {
            tasks[ta].local.push([a, b]);
        } else {
            let (ab_tx, ab_rx) = spsc::channel(MAIL_CAP);
            let (ba_tx, ba_rx) = spsc::channel(MAIL_CAP);
            tasks[ta].cross.push(CrossLink {
                side: a,
                tx: ab_tx,
                rx: ba_rx,
            });
            tasks[tb].cross.push(CrossLink {
                side: b,
                tx: ba_tx,
                rx: ab_rx,
            });
        }
    }
    tasks
}

fn recv_mail(rx: &SpscReceiver<BridgeMail>) -> BridgeMail {
    let mut spins = 0u32;
    let mut deadline: Option<Instant> = None;
    loop {
        if let Some(mail) = rx.recv() {
            return mail;
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
            continue;
        }
        let start = *deadline.get_or_insert_with(Instant::now);
        if spins.is_multiple_of(1024) && start.elapsed() > PEER_TIMEOUT {
            // A panicked peer would otherwise hang every task
            // transitively wired to it; panic too so the pool's gather
            // reports a typed error instead of blocking forever.
            panic!("bridge peer task silent past {PEER_TIMEOUT:?}; peer worker presumed dead");
        }
        std::thread::yield_now();
    }
}

impl EpochTask {
    /// Run `cycles` on this task's shards.
    pub(crate) fn run_epoch(
        &mut self,
        trace: bool,
        shared: &EngineShared,
        mode: TickMode,
        cycles: RangeInclusive<u64>,
    ) {
        run_cycles(
            trace,
            &mut self.shards,
            &self.local,
            &self.cross,
            shared,
            mode,
            cycles,
        );
    }
}

fn side(shards: &mut [RingShard], at: SideLoc) -> &mut BridgeSide {
    &mut shards[at.ring as usize].sides[at.idx as usize]
}

/// The engine's only per-cycle phase body: run `cycles` on `shards` (see the module docs for the phase order). `local`
/// pairs bridge sides that both live in `shards`, in bridge order;
/// `cross` links the sides whose peer lives in another task. Trace
/// records are staged in the shards only when `trace` is set.
pub(crate) fn run_cycles(
    trace: bool,
    shards: &mut [RingShard],
    local: &[[SideLoc; 2]],
    cross: &[CrossLink],
    shared: &EngineShared,
    mode: TickMode,
    cycles: RangeInclusive<u64>,
) {
    if trace {
        cycle_loop::<true>(shards, local, cross, shared, mode, cycles);
    } else {
        cycle_loop::<false>(shards, local, cross, shared, mode, cycles);
    }
}

fn cycle_loop<const TRACE: bool>(
    shards: &mut [RingShard],
    local: &[[SideLoc; 2]],
    cross: &[CrossLink],
    shared: &EngineShared,
    mode: TickMode,
    cycles: RangeInclusive<u64>,
) {
    for t in cycles {
        let now = Cycle(t);
        for sh in shards.iter_mut() {
            sh.phase_deliver::<TRACE>(now);
        }
        // Barrier 1: post-delivery peer inbox depths.
        for &[a, b] in local {
            let da = side(shards, a).rx.len();
            let db = side(shards, b).rx.len();
            side(shards, a).peer_backlog = db;
            side(shards, b).peer_backlog = da;
        }
        for l in cross {
            let depth = side(shards, l.side).rx.len() as u32;
            l.tx.send(BridgeMail::Depth(depth))
                .expect("mail ring sized for the cycle protocol");
        }
        for l in cross {
            match recv_mail(&l.rx) {
                BridgeMail::Depth(d) => side(shards, l.side).peer_backlog = d as usize,
                BridgeMail::Batch(_) => unreachable!("protocol alternates depth/batch"),
            }
        }
        for sh in shards.iter_mut() {
            sh.phase_cycle::<TRACE>(shared, now, mode);
        }
        // Barrier 2: staged tx batches onto peer rx inboxes.
        for &[a, b] in local {
            let mut tx = std::mem::take(&mut side(shards, a).tx);
            side(shards, b).rx.append(&mut tx);
            side(shards, a).tx = tx;
            let mut tx = std::mem::take(&mut side(shards, b).tx);
            side(shards, a).rx.append(&mut tx);
            side(shards, b).tx = tx;
        }
        for l in cross {
            let batch: Vec<(u64, Flit)> = side(shards, l.side).tx.drain(..).collect();
            l.tx.send(BridgeMail::Batch(batch))
                .expect("mail ring sized for the cycle protocol");
        }
        for l in cross {
            match recv_mail(&l.rx) {
                BridgeMail::Batch(batch) => side(shards, l.side).rx.extend(batch),
                BridgeMail::Depth(_) => unreachable!("protocol alternates depth/batch"),
            }
        }
    }
}
