//! Execution modes for the engine's cycle loop.

/// How [`Network::tick_epoch`](crate::Network::tick_epoch) (and so
/// [`Network::tick`](crate::Network::tick), which is `tick_epoch(1)`)
/// runs its cycle loop.
///
/// Both modes produce bit-identical results — delivery order, every
/// [`NetStats`](crate::NetStats) counter and histogram, and the
/// telemetry event stream — for every thread count, because ring
/// shards own all the state they touch and exchange bridge traffic
/// only at per-cycle barriers. The differential fuzz in
/// `tests/tick_equivalence.rs` holds this to
/// [`NetStats::fingerprint`](crate::NetStats::fingerprint) equality
/// over random topologies. Choose by wall-clock alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Evaluate ring shards one after another on the calling thread.
    #[default]
    Sequential,
    /// Split the shards over `n` threads (the calling thread plus
    /// `n - 1` pooled workers), one contiguous ring range each. The
    /// shards move to the workers once per epoch, and cross-thread
    /// bridge traffic moves over lock-free SPSC mailboxes every cycle
    /// (see [`crate::epoch`]). `Parallel(0)` and `Parallel(1)` run
    /// one task on the calling thread. The handoff amortizes over the
    /// epoch length K, so [`Network::tick`](crate::Network::tick)
    /// (K = 1) pays it every cycle; `noc-bench scaling` measures the
    /// break-even.
    Parallel(usize),
}

impl ExecMode {
    /// Worker threads this mode wants alongside the calling thread.
    pub(crate) fn workers(self) -> usize {
        match self {
            ExecMode::Sequential => 0,
            ExecMode::Parallel(n) => n.max(1) - 1,
        }
    }
}
