//! The repository benchmark: host time per simulated station-cycle
//! over four workloads, with per-layer call tracing.
//!
//! One run simulates one workload repeatedly from the same seed. A
//! repetition ("rep") is a fixed number of episodes, each on its own
//! traffic seed drawn from the run's seed. An episode sets the system up
//! from scratch, warms it up, times a fixed window of simulated cycles
//! and then drains it for a bounded number of cycles. Everything
//! simulated is a pure function of the seed, so every rep of a run must
//! produce the same fingerprints and the same counts. Window times are
//! pooled over the reps (total host time over total simulated work),
//! set-up and per-call times are medians. End-to-end host times are
//! scaled to a reference host speed, timed before every episode (see
//! [`host_speed`]). Several episodes per rep average out
//! how much one traffic seed differs from another, which matters most
//! where the fabric wedges at a seed-dependent cycle.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! alternates untraced reps with reps that time every public call into
//! each layer, and reports the per-layer metrics plus the tracing
//! overhead between the two kinds of rep. See `README.md` for which
//! layer metric should move which end-to-end metric on which workload.

mod ai;
mod bare;
mod txn;

use noc_core::telemetry::TraceSink;
use noc_core::Network;
use noc_sim::Histogram;
use std::collections::VecDeque;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bare `Network`, 4×4 torus, open-loop uniform past the knee.
    TorusSaturated,
    /// Bare `Network`, 8×8 torus (1024 stations), sparse open loop.
    TorusSparse1024,
    /// `TxnFabric` with observatory, spans and forensics on.
    TxnMixedObserved,
    /// `AiEngine` at 1:1 read/write on the default AI SoC.
    AiTable7,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TorusSaturated,
        Workload::TorusSparse1024,
        Workload::TxnMixedObserved,
        Workload::AiTable7,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TorusSaturated => "torus_saturated",
            Workload::TorusSparse1024 => "torus_sparse_1024",
            Workload::TxnMixedObserved => "txn_mixed_observed",
            Workload::AiTable7 => "ai_table7",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn episode(self, seed: u64, len: Length, traced: bool) -> Episode {
        match self {
            Workload::TorusSaturated => bare::episode(&bare::SATURATED, seed, len, traced),
            Workload::TorusSparse1024 => bare::episode(&bare::SPARSE_1024, seed, len, traced),
            Workload::TxnMixedObserved => txn::episode(seed, len, traced),
            Workload::AiTable7 => ai::episode(seed, len, traced),
        }
    }

    fn length(self, scale: Scale) -> Length {
        let full = match self {
            Workload::TorusSaturated => bare::SATURATED.len,
            Workload::TorusSparse1024 => bare::SPARSE_1024.len,
            Workload::TxnMixedObserved => txn::LEN,
            Workload::AiTable7 => ai::LEN,
        };
        match scale {
            Scale::Full => full,
            Scale::Short => Length {
                episodes: full.episodes.min(2),
                warmup: full.warmup / 4,
                window: full.window / 8,
                drain: full.drain,
            },
        }
    }
}

/// How much simulated work one rep does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's lengths.
    Full,
    /// A fraction of them, for the benchmark's own test.
    Short,
}

/// Simulated work of one rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Length {
    /// Episodes per rep, each on its own traffic seed.
    pub episodes: u64,
    /// Cycles simulated before the timed window.
    pub warmup: u64,
    /// Cycles in the timed window.
    pub window: u64,
    /// Upper bound on the cycles of the drain after the window.
    pub drain: u64,
}

/// A drain gives up once this many cycles pass in which no flit enters
/// or leaves the network: the fabric is wedged, and the stuck
/// operations count as failed. A healthy fabric of these sizes moves a
/// flit far more often.
const DRAIN_STALL_CYCLES: u64 = 300;

/// splitmix64: the benchmark's own traffic stream.
pub(crate) struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per workload by `salt`.
    pub(crate) fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// A uniformly chosen index in `0..n` other than `not`.
    pub(crate) fn other(&mut self, not: usize, n: usize) -> usize {
        (not + 1 + self.below(n - 1)) % n
    }
}

/// Host time of each call made through [`CallTimer::time`], kept only
/// in traced reps.
#[derive(Debug, Default)]
pub(crate) struct CallTimer {
    on: bool,
    ns: Vec<u64>,
}

impl CallTimer {
    pub(crate) fn new(on: bool) -> Self {
        CallTimer { on, ns: Vec::new() }
    }

    #[inline]
    pub(crate) fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        if !self.on {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.ns.push(start.elapsed().as_nanos() as u64);
        out
    }

    /// Add `other`'s samples to this timer's.
    pub(crate) fn extend(&mut self, other: &CallTimer) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub(crate) fn calls(&self) -> usize {
        self.ns.len()
    }

    pub(crate) fn total_ns(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64
    }

    pub(crate) fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.total_ns() / self.ns.len() as f64
        }
    }

    pub(crate) fn p99_ns(&mut self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let k = (self.ns.len() * 99).div_ceil(100) - 1;
        *self.ns.select_nth_unstable(k).1 as f64
    }
}

/// Host seconds of the set-up steps of one episode.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupTimes {
    pub(crate) generate_s: f64,
    pub(crate) compile_s: f64,
    pub(crate) build_s: f64,
}

impl SetupTimes {
    fn total_s(&self) -> f64 {
        self.generate_s + self.compile_s + self.build_s
    }
}

/// What an episode, or a rep, simulated: a pure function of the seed
/// and length.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sim {
    /// The system's fingerprint at the end of the episode (a rep:
    /// every episode's, in order).
    pub(crate) fingerprint: Vec<u64>,
    /// Operations the system accepted: flits, or transactions.
    pub(crate) accepted: u64,
    /// Accepted operations completed by the end of the drain.
    pub(crate) completed: u64,
    /// Typed errors returned by the system.
    pub(crate) errors: u64,
    /// Operations completed inside the timed window.
    pub(crate) window_ops: u64,
    /// Payload bytes delivered inside the timed window.
    pub(crate) window_bytes: u64,
    /// Deterministic per-layer counts (a rep: their mean over its
    /// episodes).
    pub(crate) counts: Vec<(&'static str, f64)>,
    /// Conservation violations found at the end of the episode.
    pub(crate) violations: Vec<String>,
    /// Why a drain stopped with operations still in flight.
    pub(crate) wedges: Vec<String>,
}

/// One episode: the simulated outcome plus host times.
#[derive(Debug)]
pub(crate) struct Episode {
    pub(crate) setup: SetupTimes,
    /// Host seconds of the timed window.
    pub(crate) window_s: f64,
    /// Stations of the fabric.
    pub(crate) stations: u64,
    pub(crate) sim: Sim,
    /// Simulated latency of every completed operation, in cycles.
    pub(crate) latency: Histogram,
    /// Per-call host times of a traced episode, by metric name.
    pub(crate) timings: Vec<(&'static str, f64)>,
}

/// One rep: its episodes combined.
#[derive(Debug)]
struct Rep {
    setups: Vec<SetupTimes>,
    /// Set-up seconds of each episode, at the reference host speed.
    setups_ref_s: Vec<f64>,
    /// Host seconds of the timed windows.
    window_s: f64,
    /// The same, at the reference host speed.
    window_ref_s: f64,
    /// Host speed of each episode, from [`host_speed`].
    speeds: Vec<f64>,
    /// Stations × cycles of the timed windows.
    station_cycles: u64,
    sim: Sim,
    /// Latency over every episode: (p50, p99, samples).
    latency: (u64, u64, u64),
    /// Mean over the episodes of each per-call timing.
    timings: Vec<(&'static str, f64)>,
}

impl Rep {
    fn new(workload: Workload, seed: u64, len: Length, traced: bool) -> Rep {
        let mut seeds = Rng::new(seed, 0);
        let (speeds, episodes): (Vec<f64>, Vec<Episode>) = (0..len.episodes)
            .map(|_| (host_speed(), workload.episode(seeds.next(), len, traced)))
            .unzip();
        let mut latency = Histogram::new("latency");
        let mut sim = Sim {
            fingerprint: Vec::new(),
            accepted: 0,
            completed: 0,
            errors: 0,
            window_ops: 0,
            window_bytes: 0,
            counts: Vec::new(),
            violations: Vec::new(),
            wedges: Vec::new(),
        };
        for (i, e) in episodes.iter().enumerate() {
            sim.fingerprint.extend(&e.sim.fingerprint);
            sim.accepted += e.sim.accepted;
            sim.completed += e.sim.completed;
            sim.errors += e.sim.errors;
            sim.window_ops += e.sim.window_ops;
            sim.window_bytes += e.sim.window_bytes;
            let tag = |m: &String| format!("episode {i}: {m}");
            sim.violations.extend(e.sim.violations.iter().map(tag));
            sim.wedges.extend(e.sim.wedges.iter().map(tag));
            latency.merge(&e.latency);
        }
        let mean = |pick: fn(&Episode) -> &[(&'static str, f64)]| {
            pick(&episodes[0])
                .iter()
                .map(|&(name, _)| {
                    let sum: f64 = episodes
                        .iter()
                        .filter_map(|e| pick(e).iter().find(|(n, _)| *n == name))
                        .map(|v| v.1)
                        .sum();
                    (name, sum / episodes.len() as f64)
                })
                .collect::<Vec<_>>()
        };
        sim.counts = mean(|e| &e.sim.counts);
        Rep {
            setups: episodes.iter().map(|e| e.setup).collect(),
            setups_ref_s: episodes
                .iter()
                .zip(&speeds)
                .map(|(e, v)| e.setup.total_s() * v)
                .collect(),
            window_s: episodes.iter().map(|e| e.window_s).sum(),
            window_ref_s: episodes
                .iter()
                .zip(&speeds)
                .map(|(e, v)| e.window_s * v)
                .sum(),
            speeds,
            station_cycles: episodes.iter().map(|e| e.stations * len.window).sum(),
            latency: (
                latency.percentile(0.50),
                latency.percentile(0.99),
                latency.count(),
            ),
            timings: mean(|e| &e.timings),
            sim,
        }
    }
}

/// Host seconds [`speed_kernel`] takes at the reference speed: its
/// median on the host the benchmark was tuned on, a 2-core Intel Xeon
/// that was not otherwise loaded.
const REFERENCE_KERNEL_S: f64 = 5.0e-3;

/// A fixed piece of work that belongs to the benchmark, not to the
/// simulator: sorting random keys, then moving entries between many
/// short queues, about 5 ms in all. Like the simulator it allocates,
/// branches on data and touches a few MiB.
fn speed_kernel() {
    let mut rng = Rng::new(0, 0);
    let mut keys: Vec<u64> = (0..1 << 16).map(|_| rng.next()).collect();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    let mut queues: Vec<VecDeque<u32>> = (0..4096).map(|_| VecDeque::with_capacity(8)).collect();
    let mut moved = 0u64;
    for i in 0..200_000u32 {
        let a = rng.below(queues.len());
        if queues[a].len() < 8 {
            queues[a].push_back(i);
        }
        let b = (a + 1) % queues.len();
        if let Some(x) = queues[b].pop_front() {
            moved += u64::from(x & 1);
        }
    }
    std::hint::black_box(moved);
}

/// How fast the host runs right now, as the factor that converts host
/// seconds measured now into seconds at the reference speed. Timed
/// before every episode, while no simulator object is alive.
///
/// The shared host this benchmark was tuned on changes speed in phases
/// of seconds to minutes, by up to 1.5× on every kind of code at once
/// (see `README.md`), so raw host times of unchanged code spread by
/// more than their bounds between runs. The kernel slows down with the
/// host but not with the simulator, so scaled times keep every change
/// of the simulator and lose most of the host's drift.
fn host_speed() -> f64 {
    let (_, kernel_s) = timed(speed_kernel);
    REFERENCE_KERNEL_S / kernel_s
}

/// Per-layer counts every workload reports from its `Network`.
pub(crate) fn core_counts<S: TraceSink>(net: &Network<S>) -> Vec<(&'static str, f64)> {
    let stats = net.stats();
    let profile = net.tick_profile();
    let delivered = stats.delivered.get();
    let injected = stats.injected.get();
    let losses = stats.inject_losses.get();
    vec![
        (
            "core.station_visit_share",
            ratio(profile.stations_visited, profile.stations_total),
        ),
        (
            "core.full_sweep_share",
            ratio(profile.full_lane_sweeps, profile.lane_passes),
        ),
        (
            "core.deflections_per_delivery",
            ratio(stats.deflections.get(), delivered),
        ),
        ("core.inject_loss_share", ratio(losses, injected + losses)),
        ("core.swaps", stats.swaps.get() as f64),
        ("core.in_flight_end", net.in_flight() as f64),
    ]
}

/// The network's enqueue-to-delivery latency over every flit class.
pub(crate) fn flit_latency<S: TraceSink>(net: &Network<S>) -> Histogram {
    let mut all = Histogram::new("latency");
    for h in &net.stats().total_latency {
        all.merge(h);
    }
    all
}

/// Flit conservation: everything enqueued was delivered or is still
/// physically inside the network.
pub(crate) fn flit_conservation<S: TraceSink>(net: &Network<S>, violations: &mut Vec<String>) {
    let stats = net.stats();
    let (enq, del, res) = (
        stats.enqueued.get(),
        stats.delivered.get(),
        net.count_resident_flits(),
    );
    if enq != del + res {
        violations.push(format!(
            "flit conservation: enqueued {enq} != delivered {del} + resident {res}"
        ));
    }
}

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Time `f`, returning its result and the host seconds it took.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One named metric of a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations accepted in one rep: a function of the seed alone.
    pub attempted: u64,
    /// Operations of one rep that did not complete by the end of a
    /// bounded drain, plus typed errors.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of every episode's fingerprint.
    pub fingerprint: u64,
    /// Human-readable report lines: host, fingerprint, sample counts,
    /// wedges and failed checks.
    pub report: Vec<String>,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ns_per_station_cycle", "ns"),
    ("sim_ops_per_host_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_latency_cycles", "cycles"),
    ("sim_p99_latency_cycles", "cycles"),
    ("sim_bytes_per_cycle", "B/cycle"),
    ("completed_share", "ratio"),
];

/// Per-layer metrics, printed by a traced run. A layer the workload
/// does not drive reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.tick_ns", "ns"),
    ("core.tick_p99_ns", "ns"),
    ("core.station_visit_share", "ratio"),
    ("core.full_sweep_share", "ratio"),
    ("core.enqueue_ns", "ns"),
    ("core.enqueue_refused_share", "ratio"),
    ("core.pop_ns", "ns"),
    ("core.deflections_per_delivery", "ratio"),
    ("core.inject_loss_share", "ratio"),
    ("core.swaps", "count"),
    ("core.in_flight_end", "count"),
    ("setup.generate_ms", "ms"),
    ("setup.compile_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("txn.submit_ns", "ns"),
    ("txn.submit_refused_share", "ratio"),
    ("txn.tick_ns", "ns"),
    ("txn.tick_p99_ns", "ns"),
    ("txn.drain_ns", "ns"),
    ("txn.flits_per_txn", "flits/txn"),
    ("txn.reassembly_deferred", "count"),
    ("telemetry.boundary_excess_ns", "ns"),
    ("telemetry.share", "ratio"),
    ("telemetry.snapshots", "count"),
    ("telemetry.spans_recorded", "count"),
    ("telemetry.wedge_latched", "count"),
    ("ai.tick_ns", "ns"),
    ("ai.tick_p99_ns", "ns"),
    ("ai.read_bytes_per_cycle", "B/cycle"),
    ("ai.write_bytes_per_cycle", "B/cycle"),
    ("ai.dma_bytes_per_cycle", "B/cycle"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer counts that must repeat exactly from run to run of
/// one seed, so that a change can be judged on them as counts.
pub const DETERMINISTIC_COUNTS: [&str; 5] = [
    "core.station_visit_share",
    "core.full_sweep_share",
    "core.deflections_per_delivery",
    "txn.reassembly_deferred",
    "telemetry.snapshots",
];

/// Reps a run makes at least, whatever its time budget: enough to
/// check that repeats of one seed agree.
const MIN_REPS: usize = 2;

/// Run `workload` from `seed`: reps until `seconds` of host time have
/// passed (at least [`MIN_REPS`], and for a traced run at least that
/// many of each kind), then aggregate.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let len = workload.length(scale);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        let enough = plain.len() >= MIN_REPS && (!trace || traced.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced_turn = trace && traced.len() < plain.len();
        let rep = Rep::new(workload, seed, len, traced_turn);
        if traced_turn {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    aggregate(workload, len, &plain, &traced, trace)
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Host ns per station-cycle at the reference speed, pooled over every
/// window of `reps`: the pooled ratio weighs every second of the run
/// alike, and spreads less from run to run than the median over reps.
fn ns_per_station_cycle(reps: &[Rep]) -> f64 {
    let window_s: f64 = reps.iter().map(|r| r.window_ref_s).sum();
    let station_cycles: u64 = reps.iter().map(|r| r.station_cycles).sum();
    window_s * 1e9 / station_cycles as f64
}

/// FNV-1a over the fingerprint words: one printable digest.
fn digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn aggregate(
    workload: Workload,
    len: Length,
    plain: &[Rep],
    traced: &[Rep],
    trace: bool,
) -> Outcome {
    let first = &plain[0].sim;
    let latency = plain[0].latency;
    let all: Vec<&Rep> = plain.iter().chain(traced).collect();
    let mut report = Vec::new();
    let host = noc_experiments::scaling::host_info();
    report.push(format!(
        "host: {} logical cores, {}",
        host.logical_cores, host.cpu_model
    ));
    report.push(format!(
        "workload {}: {} reps ({} traced) of {} episodes, fingerprint {:016x}",
        workload.name(),
        all.len(),
        traced.len(),
        len.episodes,
        digest(&first.fingerprint)
    ));
    report.push(format!(
        "sim latency: p50 {} cycles, p99 {} cycles over {} samples",
        latency.0, latency.1, latency.2
    ));
    let raw_s: f64 = plain.iter().map(|r| r.window_s).sum();
    let station_cycles: u64 = plain.iter().map(|r| r.station_cycles).sum();
    let speeds: Vec<f64> = all.iter().flat_map(|r| r.speeds.clone()).collect();
    report.push(format!(
        "host speed: median {:.3} of the reference over {} episodes; unscaled {:.3} ns per station-cycle",
        median(speeds.clone()),
        speeds.len(),
        raw_s * 1e9 / station_cycles as f64
    ));
    if let Some(wedge) = first.wedges.first() {
        report.push(format!(
            "WEDGE (stuck operations count as failed) in {} of {} episodes; first: {wedge}",
            first.wedges.len(),
            len.episodes
        ));
    }

    let mut correct = true;
    let mut fail = |report: &mut Vec<String>, msg: String| {
        correct = false;
        report.push(format!("CHECK FAILED: {msg}"));
    };
    for v in &first.violations {
        fail(&mut report, v.clone());
    }
    // Every rep replays the same seed, traced or not: anything that
    // differs is nondeterminism or a tracing side effect.
    for (i, rep) in all.iter().enumerate().skip(1) {
        if rep.sim.fingerprint != first.fingerprint {
            fail(
                &mut report,
                format!("rep {i} fingerprint differs from rep 0"),
            );
        }
        if rep.sim != *first || rep.latency != latency {
            fail(
                &mut report,
                format!("rep {i} simulated outcome differs from rep 0"),
            );
        }
    }
    if first.accepted == 0 || first.window_ops == 0 {
        fail(
            &mut report,
            "no operation completed in the timed window".into(),
        );
    }
    let peak_rss = peak_rss_mib();
    if peak_rss.is_none() {
        fail(&mut report, "peak RSS unavailable".into());
    }

    // Counted over one rep, not over every rep: every rep replays the
    // seed (checked above), so the counts depend on the seed alone and
    // not on how many reps the host managed in the time budget.
    let attempted = first.accepted;
    let failed = first.accepted - first.completed + first.errors;
    let setups: Vec<&SetupTimes> = all.iter().flat_map(|r| &r.setups).collect();
    let setup_median =
        |pick: fn(&SetupTimes) -> f64| median(setups.iter().map(|s| pick(s)).collect());
    let plain_nspsc = ns_per_station_cycle(plain);

    let mut values: Vec<(&str, f64)> = Vec::new();
    if trace {
        let traced_nspsc = ns_per_station_cycle(traced);
        values.extend(first.counts.iter().copied());
        let names: Vec<&str> = traced[0].timings.iter().map(|(n, _)| *n).collect();
        for name in names {
            let samples = traced
                .iter()
                .filter_map(|r| r.timings.iter().find(|(n, _)| *n == name).map(|t| t.1))
                .collect();
            values.push((name, median(samples)));
        }
        values.push(("setup.generate_ms", 1e3 * setup_median(|s| s.generate_s)));
        values.push(("setup.compile_ms", 1e3 * setup_median(|s| s.compile_s)));
        values.push(("setup.build_ms", 1e3 * setup_median(|s| s.build_s)));
        values.push((
            "trace.overhead_pct",
            100.0 * (traced_nspsc - plain_nspsc) / plain_nspsc,
        ));
    } else {
        values.push((
            "setup_s",
            median(all.iter().flat_map(|r| r.setups_ref_s.clone()).collect()),
        ));
        values.push(("ns_per_station_cycle", plain_nspsc));
        values.push((
            "sim_ops_per_host_s",
            plain.iter().map(|r| r.sim.window_ops).sum::<u64>() as f64
                / plain.iter().map(|r| r.window_ref_s).sum::<f64>(),
        ));
        values.push(("peak_rss_mib", peak_rss.unwrap_or(0.0)));
        values.push(("sim_p50_latency_cycles", latency.0 as f64));
        values.push(("sim_p99_latency_cycles", latency.1 as f64));
        values.push((
            "sim_bytes_per_cycle",
            ratio(first.window_bytes, len.episodes * len.window),
        ));
        values.push(("completed_share", ratio(first.completed, first.accepted)));
    }

    let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1),
        })
        .collect::<Vec<_>>();
    for m in &metrics {
        if !m.value.is_finite() {
            fail(&mut report, format!("metric {} is not finite", m.name));
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        fingerprint: digest(&first.fingerprint),
        report,
    }
}
