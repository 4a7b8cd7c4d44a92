//! The transaction workload: a closed loop of mixed transactions on
//! the 4×4 torus, with the observatory, causal spans and wait-graph
//! forensics on, driven through `submit`, `tick` and
//! `drain_completions`.

use crate::{
    bare, core_counts, ratio, timed, CallTimer, Episode, Length, Rng, Sim, DRAIN_STALL_CYCLES,
};
use noc_core::telemetry::{NullSink, SpanCollector, WaitGraphConfig};
use noc_core::NodeId;
use noc_txn::{AtomicKind, TxnConfig, TxnFabric, TxnOp};
use std::time::Instant;

pub(crate) const LEN: Length = Length {
    episodes: 16,
    warmup: 500,
    window: 4_000,
    drain: 50_000,
};

/// Observatory sampling period, in cycles.
const PERIOD: u64 = 32;
/// Closed loop: transactions each endpoint keeps outstanding.
const OUTSTANDING: usize = 4;
/// Span trees the collector keeps, and tail exemplars.
const SPAN_CAPACITY: usize = 256;
const EXEMPLARS: usize = 8;

type Fabric = TxnFabric<NullSink, SpanCollector>;

/// The mix's weights are `noc_workloads::TxnMix::default`'s (40%
/// reads, 40% writes of which half posted, 12% atomics, 8% broadcasts,
/// as the txn fuzz and identity tests use) with broadcasts left out and
/// the rest renormalised. Its non-posted writes are the 2 KiB stride-7
/// writes.
const MIX_TOTAL: f64 = 0.92;
const NP_WRITE: f64 = 0.20 / MIX_TOTAL;
const READ: f64 = 0.40 / MIX_TOTAL;
const POSTED_WRITE: f64 = 0.20 / MIX_TOTAL;

/// The next request of endpoint `s` of `n`: 64 B reads, 2 KiB
/// non-posted writes on the stride-7 permutation (the shape that
/// wedged legacy admission), 256 B posted writes, and atomics.
fn request(rng: &mut Rng, s: usize, n: usize) -> (usize, TxnOp) {
    let u = rng.unit();
    if u < NP_WRITE {
        let mut dst = (s * 7 + 3) % n;
        if dst == s {
            dst = (dst + 1) % n;
        }
        return (
            dst,
            TxnOp::Write {
                bytes: 2048,
                posted: false,
            },
        );
    }
    let dst = rng.other(s, n);
    let op = if u < NP_WRITE + READ {
        TxnOp::Read { bytes: 64 }
    } else if u < NP_WRITE + READ + POSTED_WRITE {
        TxnOp::Write {
            bytes: 256,
            posted: true,
        }
    } else {
        TxnOp::Atomic(AtomicKind::Accumulate(rng.next() >> 32))
    };
    (dst, op)
}

struct Harness {
    fab: Fabric,
    devices: Vec<NodeId>,
    index: std::collections::HashMap<NodeId, usize>,
    rng: Rng,
    /// Per endpoint: live transactions, and the request waiting to be
    /// accepted (a refused submit is retried unchanged).
    live: Vec<usize>,
    pending: Vec<Option<(usize, TxnOp)>>,
    submit: CallTimer,
    tick_boundary: CallTimer,
    tick_other: CallTimer,
    drain: CallTimer,
    attempts: u64,
    refused: u64,
    accepted: u64,
    completed: u64,
    completed_bytes: u64,
    errors: u64,
}

impl Harness {
    fn step(&mut self, submit: bool) {
        let n = self.devices.len();
        if submit {
            for s in 0..n {
                if self.live[s] >= OUTSTANDING {
                    continue;
                }
                let (dst, op) =
                    *self.pending[s].get_or_insert_with(|| request(&mut self.rng, s, n));
                let (src, dst) = (self.devices[s], self.devices[dst]);
                self.attempts += 1;
                let fab = &mut self.fab;
                match self.submit.time(|| fab.submit(src, dst, op)) {
                    Ok(Some(_)) => {
                        self.accepted += 1;
                        self.live[s] += 1;
                        self.pending[s] = None;
                    }
                    Ok(None) => self.refused += 1,
                    Err(_) => {
                        self.errors += 1;
                        self.pending[s] = None;
                    }
                }
            }
        }
        // The observatory samples (and forensics runs) on ticks that
        // end on a period boundary.
        let boundary = (self.fab.now().raw() + 1).is_multiple_of(PERIOD);
        let fab = &mut self.fab;
        if boundary {
            self.tick_boundary.time(|| fab.tick());
        } else {
            self.tick_other.time(|| fab.tick());
        }
        let fab = &mut self.fab;
        for c in self.drain.time(|| fab.drain_completions()) {
            self.live[self.index[&c.src]] -= 1;
            self.completed += 1;
            self.completed_bytes += u64::from(c.bytes);
        }
    }

    fn set_timers(&mut self, on: bool) {
        self.submit = CallTimer::new(on);
        self.tick_boundary = CallTimer::new(on);
        self.tick_other = CallTimer::new(on);
        self.drain = CallTimer::new(on);
    }
}

pub(crate) fn episode(seed: u64, len: Length, traced: bool) -> Episode {
    let (net, devices, mut setup) = bare::torus(4);
    let (fab, build_s) = timed(|| {
        let mut net = net;
        net.enable_metrics(PERIOD);
        let cfg = TxnConfig {
            metrics_period: PERIOD,
            reassembly_slots: 1,
            ..TxnConfig::default()
        };
        let mut fab = TxnFabric::with_spans(net, cfg, SpanCollector::new(SPAN_CAPACITY, EXEMPLARS));
        fab.enable_forensics(WaitGraphConfig::default());
        fab
    });
    setup.build_s += build_s;
    let stations = fab.topology().total_stations();
    let n = devices.len();
    let mut d = Harness {
        fab,
        index: devices.iter().enumerate().map(|(i, &id)| (id, i)).collect(),
        devices,
        rng: Rng::new(seed, 3),
        live: vec![0; n],
        pending: vec![None; n],
        submit: CallTimer::default(),
        tick_boundary: CallTimer::default(),
        tick_other: CallTimer::default(),
        drain: CallTimer::default(),
        attempts: 0,
        refused: 0,
        accepted: 0,
        completed: 0,
        completed_bytes: 0,
        errors: 0,
    };
    for _ in 0..len.warmup {
        d.step(true);
    }

    let (ops0, bytes0) = (d.completed, d.completed_bytes);
    d.set_timers(traced);
    let start = Instant::now();
    for _ in 0..len.window {
        d.step(true);
    }
    let window_s = start.elapsed().as_secs_f64();
    let (window_ops, window_bytes) = (d.completed - ops0, d.completed_bytes - bytes0);
    let boundary_calls = d.tick_boundary.calls() as f64;
    let excess = d.tick_boundary.mean_ns() - d.tick_other.mean_ns();
    d.tick_other.extend(&d.tick_boundary);
    let ticks = &mut d.tick_other;
    let timings = vec![
        ("txn.submit_ns", d.submit.mean_ns()),
        ("txn.tick_ns", ticks.mean_ns()),
        ("txn.tick_p99_ns", ticks.p99_ns()),
        ("txn.drain_ns", d.drain.mean_ns()),
        ("telemetry.boundary_excess_ns", excess),
        (
            "telemetry.share",
            excess * boundary_calls / ticks.total_ns().max(1.0),
        ),
    ];
    d.set_timers(false);

    let (mut idle, mut drained) = (0u64, 0u64);
    while !d.fab.quiet() && drained < len.drain && idle < DRAIN_STALL_CYCLES {
        let moved = (d.fab.network().in_flight(), d.completed);
        d.step(false);
        let now = (d.fab.network().in_flight(), d.completed);
        idle = if now == moved { idle + 1 } else { 0 };
        drained += 1;
    }

    let counters = *d.fab.counters();
    let live = d.fab.in_flight_txns() as u64;
    let wedge = (live > 0 || d.fab.wedge_latched()).then(|| {
        let mut msg = format!(
            "{live} transactions live at cycle {} after a {drained}-cycle drain",
            d.fab.now().raw()
        );
        if let Some(report) = d.fab.wedge_report() {
            msg.push_str(&format!("; wait-graph report:\n{}", report.render()));
        }
        msg
    });
    let mut violations = Vec::new();
    if counters.submitted != d.accepted || counters.completed() != d.completed {
        violations.push(format!(
            "accepted {} / completed {} disagree with the fabric's submitted {} / completed {}",
            d.accepted,
            d.completed,
            counters.submitted,
            counters.completed()
        ));
    }
    if counters.submitted != counters.completed() + live {
        violations.push(format!(
            "transaction conservation: submitted {} != completed {} + live {live}",
            counters.submitted,
            counters.completed()
        ));
    }
    crate::flit_conservation(d.fab.network(), &mut violations);

    let mut counts = core_counts(d.fab.network());
    counts.extend([
        ("txn.submit_refused_share", ratio(d.refused, d.attempts)),
        (
            "txn.flits_per_txn",
            ratio(counters.flits_sent, counters.submitted),
        ),
        (
            "txn.reassembly_deferred",
            counters.reassembly_deferred as f64,
        ),
        ("telemetry.snapshots", d.fab.txn_snapshots().len() as f64),
        (
            "telemetry.spans_recorded",
            d.fab.span_sink().recorded() as f64,
        ),
        (
            "telemetry.wedge_latched",
            f64::from(u8::from(d.fab.wedge_latched())),
        ),
    ]);
    Episode {
        setup,
        window_s,
        stations,
        sim: Sim {
            fingerprint: d.fab.fingerprint(),
            accepted: d.accepted,
            completed: d.completed,
            errors: d.errors,
            window_ops,
            window_bytes,
            counts,
            violations,
            wedges: wedge.into_iter().collect(),
        },
        latency: d.fab.latency().clone(),
        timings,
    }
}
