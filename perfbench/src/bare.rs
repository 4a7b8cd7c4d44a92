//! The bare-`Network` workloads: open-loop uniform traffic on a
//! generated torus, driven through `enqueue`, `try_tick` and
//! `pop_delivered`.

use crate::{
    core_counts, flit_conservation, flit_latency, ratio, timed, CallTimer, Episode, Length, Rng,
    SetupTimes, Sim, DRAIN_STALL_CYCLES,
};
use noc_core::topogen::GridParams;
use noc_core::{EnqueueError, FlitClass, Network, NetworkConfig, NodeId};
use std::time::Instant;

/// Device placement seed of the generated tori, shared with the other
/// harnesses in `crates/bench` so every tool runs the same fabric.
pub(crate) const TOPO_SEED: u64 = 0x7261_6a65;

/// One bare-network workload.
pub(crate) struct BareWorkload {
    /// Torus side in chiplets (16 stations, 2 devices each).
    side: u16,
    /// Offered flits per device per cycle.
    rate: f64,
    /// Separates this workload's traffic stream from the others'.
    salt: u64,
    pub(crate) len: Length,
}

/// 4×4 torus (256 stations, 32 devices) at 0.5 flits/device/cycle,
/// past the knee: the fabric wedges (see `README.md`).
pub(crate) const SATURATED: BareWorkload = BareWorkload {
    side: 4,
    rate: 0.5,
    salt: 1,
    len: Length {
        episodes: 64,
        warmup: 0,
        window: 2_000,
        drain: 20_000,
    },
};

/// 8×8 torus (1024 stations, 128 devices) at 0.02: few stations are
/// visited, so per-tick fixed costs dominate.
pub(crate) const SPARSE_1024: BareWorkload = BareWorkload {
    side: 8,
    rate: 0.02,
    salt: 2,
    len: Length {
        episodes: 4,
        warmup: 500,
        window: 4_000,
        drain: 20_000,
    },
};

/// The generated torus: network plus its devices in name order.
pub(crate) fn torus(side: u16) -> (Network, Vec<NodeId>, SetupTimes) {
    let (spec, generate_s) = timed(|| {
        GridParams::torus(side, side)
            .with_stations(16)
            .with_devices(2)
            .with_seed(TOPO_SEED)
            .generate()
            .expect("the benchmark torus generates")
    });
    let ((topo, names), compile_s) =
        timed(|| spec.compile().expect("the benchmark torus compiles"));
    let (net, build_s) = timed(|| Network::new(topo, NetworkConfig::default()));
    let mut named: Vec<(String, NodeId)> = names.into_iter().collect();
    named.sort();
    let devices = named.into_iter().map(|(_, id)| id).collect();
    let setup = SetupTimes {
        generate_s,
        compile_s,
        build_s,
    };
    (net, devices, setup)
}

struct Harness {
    net: Network,
    devices: Vec<NodeId>,
    rng: Rng,
    rate: f64,
    tick: CallTimer,
    enqueue: CallTimer,
    pop: CallTimer,
    offered: u64,
    refused: u64,
    accepted: u64,
    popped: u64,
    errors: u64,
}

impl Harness {
    /// One cycle: offer this cycle's traffic (unless draining), tick,
    /// then empty every eject queue. Returns `false` once the engine
    /// has returned a typed error and must be discarded.
    fn step(&mut self, offer: bool) -> bool {
        let n = self.devices.len();
        if offer {
            for si in 0..n {
                if self.rng.unit() >= self.rate {
                    continue;
                }
                let (src, dst) = (self.devices[si], self.devices[self.rng.other(si, n)]);
                self.offered += 1;
                let net = &mut self.net;
                match self
                    .enqueue
                    .time(|| net.enqueue(src, dst, FlitClass::Data, 64, 0))
                {
                    Ok(_) => self.accepted += 1,
                    // A full inject queue is backpressure: the offer
                    // is dropped, as an open-loop source would.
                    Err(EnqueueError::InjectQueueFull { .. }) => self.refused += 1,
                    Err(_) => self.errors += 1,
                }
            }
        }
        let net = &mut self.net;
        if self.tick.time(|| net.try_tick()).is_err() {
            self.errors += 1;
            return false;
        }
        for &d in &self.devices {
            loop {
                let net = &mut self.net;
                if self.pop.time(|| net.pop_delivered(d)).is_none() {
                    break;
                }
                self.popped += 1;
            }
        }
        true
    }

    fn set_timers(&mut self, on: bool) {
        self.tick = CallTimer::new(on);
        self.enqueue = CallTimer::new(on);
        self.pop = CallTimer::new(on);
    }
}

pub(crate) fn episode(w: &BareWorkload, seed: u64, len: Length, traced: bool) -> Episode {
    let (net, devices, setup) = torus(w.side);
    let stations = net.topology().total_stations();
    let mut d = Harness {
        net,
        devices,
        rng: Rng::new(seed, w.salt),
        rate: w.rate,
        tick: CallTimer::default(),
        enqueue: CallTimer::default(),
        pop: CallTimer::default(),
        offered: 0,
        refused: 0,
        accepted: 0,
        popped: 0,
        errors: 0,
    };
    let mut alive = (0..len.warmup).all(|_| d.step(true));

    let before = d.net.stats();
    d.set_timers(traced);
    let start = Instant::now();
    alive = alive && (0..len.window).all(|_| d.step(true));
    let window_s = start.elapsed().as_secs_f64();
    let after = d.net.stats();
    let timings = vec![
        ("core.tick_ns", d.tick.mean_ns()),
        ("core.tick_p99_ns", d.tick.p99_ns()),
        ("core.enqueue_ns", d.enqueue.mean_ns()),
        ("core.pop_ns", d.pop.mean_ns()),
    ];
    d.set_timers(false);

    // Bounded drain: no new traffic; stop when empty, or when nothing
    // has been delivered for DRAIN_STALL_CYCLES (a wedge).
    let (mut idle, mut drained) = (0u64, 0u64);
    while alive && d.net.in_flight() > 0 && drained < len.drain && idle < DRAIN_STALL_CYCLES {
        let popped = d.popped;
        alive = d.step(false);
        idle = if d.popped == popped { idle + 1 } else { 0 };
        drained += 1;
    }
    let stuck = d.net.in_flight();
    let wedge = (stuck > 0).then(|| {
        format!(
            "{stuck} flits stuck at cycle {} after a {drained}-cycle drain",
            d.net.now().raw()
        )
    });

    let end = d.net.stats();
    let mut violations = Vec::new();
    flit_conservation(&d.net, &mut violations);
    if end.enqueued.get() != d.accepted || end.delivered.get() != d.popped {
        violations.push(format!(
            "accepted {} / popped {} disagree with enqueued {} / delivered {}",
            d.accepted,
            d.popped,
            end.enqueued.get(),
            end.delivered.get()
        ));
    }
    let mut counts = core_counts(&d.net);
    counts.push(("core.enqueue_refused_share", ratio(d.refused, d.offered)));
    Episode {
        setup,
        window_s,
        stations,
        sim: Sim {
            fingerprint: d.net.fingerprint(),
            accepted: d.accepted,
            completed: d.popped,
            errors: d.errors,
            window_ops: after.delivered.get() - before.delivered.get(),
            window_bytes: after.delivered_bytes.get() - before.delivered_bytes.get(),
            counts,
            violations,
            wedges: wedge.into_iter().collect(),
        },
        latency: flit_latency(&d.net),
        timings,
    }
}
