//! Epoch-batched tick equivalence: `tick_epoch(k)` must validate its
//! bound with typed errors, reproduce the per-cycle engine's pinned
//! output at K = 1 (through `tick()` and `tick_epoch(1)` alike), and —
//! when traffic is applied only at epoch boundaries — replay the
//! per-cycle engine bit for bit at any K up to the bridge-latency
//! bound, on both the sequential and the parallel engine.
//!
//! The last property is phrased where it matters most: same-flow flits
//! must be delivered in the same order under epoch batching as under
//! per-cycle ticking (a proptest over random two-ring fabrics and
//! schedules), with the full stats fingerprint as a stricter backstop.

use std::collections::BTreeMap;

use noc_core::telemetry::RingBufferSink;
use noc_core::{
    BridgeConfig, EngineError, ExecMode, FlitClass, Network, NetworkConfig, NodeId, RingKind,
    TickMode, Topology, TopologyBuilder,
};
use proptest::prelude::*;

/// splitmix64: deterministic per-seed stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Two full rings joined by one bridge of the given latency, two
/// devices per ring.
fn two_ring(latency: u32) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
    let mut devs = Vec::new();
    for (i, &r) in [r0, r1].iter().enumerate() {
        devs.push(b.add_node(format!("a{i}"), r, 1).unwrap());
        devs.push(b.add_node(format!("b{i}"), r, 4).unwrap());
    }
    b.add_bridge(BridgeConfig::l2().with_latency(latency), r0, 6, r1, 6)
        .unwrap();
    (b.build().unwrap(), devs)
}

/// Random 2–4 ring chain: mixed half/full rings over two chiplets,
/// consecutive rings joined by an L2 bridge of random latency, two
/// devices per ring.
fn chain_topology(rng: &mut Rng) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let dies = [b.add_chiplet("die0"), b.add_chiplet("die1")];
    let nrings = 2 + rng.below(3) as usize;
    let mut rings = Vec::new();
    let mut devs = Vec::new();
    for i in 0..nrings {
        let kind = if rng.below(2) == 0 {
            RingKind::Full
        } else {
            RingKind::Half
        };
        let n = 6 + rng.below(11) as u16;
        let r = b.add_ring(dies[i % 2], kind, n).unwrap();
        devs.push(
            b.add_node(format!("p{i}"), r, 1 + rng.below(2) as u16)
                .unwrap(),
        );
        devs.push(b.add_node(format!("q{i}"), r, 4).unwrap());
        rings.push((r, n));
    }
    for w in 0..nrings - 1 {
        let cfg = BridgeConfig::l2().with_latency(1 + rng.below(8) as u32);
        b.add_bridge(
            cfg,
            rings[w].0,
            rings[w].1 - 1,
            rings[w + 1].0,
            rings[w + 1].1 - 1,
        )
        .unwrap();
    }
    (b.build().unwrap(), devs)
}

#[test]
fn epoch_bounds_are_typed_errors() {
    let (topo, devs) = two_ring(3);
    let mut net = Network::new(topo, NetworkConfig::default());
    assert_eq!(net.max_epoch(), 3);

    match net.tick_epoch(0) {
        Err(EngineError::EmptyEpoch) => {}
        other => panic!("k = 0 must be EmptyEpoch, got {other:?}"),
    }
    match net.tick_epoch(4) {
        Err(EngineError::EpochTooLong {
            requested: 4,
            max: 3,
        }) => {}
        other => panic!("k = 4 must be EpochTooLong, got {other:?}"),
    }
    // Rejected epochs must not advance time or touch state.
    assert_eq!(net.now().raw(), 0);
    net.enqueue(devs[0], devs[2], FlitClass::Data, 64, 1)
        .unwrap();
    net.tick_epoch(3).expect("k = max_epoch is legal");
    assert_eq!(net.now().raw(), 3);

    // A bridgeless fabric has no pipeline to outrun: any K is legal.
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 8).unwrap();
    let a = b.add_node("a", r, 0).unwrap();
    let z = b.add_node("z", r, 4).unwrap();
    let mut lone = Network::new(b.build().unwrap(), NetworkConfig::default());
    assert_eq!(lone.max_epoch(), u64::MAX);
    lone.enqueue(a, z, FlitClass::Data, 64, 1).unwrap();
    lone.tick_epoch(64).unwrap();
    assert_eq!(lone.now().raw(), 64);
    assert!(lone.pop_delivered(z).is_some());
}

/// Digest of one delivered flit for stream comparison.
fn digest(f: &noc_core::Flit) -> (u64, NodeId, NodeId, u64, u32, u32, u32, u32) {
    (
        f.id,
        f.src,
        f.dst,
        f.token,
        f.payload_bytes,
        f.hops,
        f.deflections,
        f.ring_changes,
    )
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fnv_words(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv(h, &w.to_le_bytes()))
}

/// One run's observables, each folded to one word: the stats
/// fingerprint, the delivery stream (cycle and flit digest, in pop
/// order) and the telemetry record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    fingerprint: u64,
    deliveries: u64,
    trace: u64,
}

/// The digests of 400 cycles of random traffic on seed `seed`'s chain
/// topology, advanced by `tick()` or by `tick_epoch(1)`.
fn digests(seed: u64, exec: ExecMode, epoch: bool) -> Digests {
    let mut rng = Rng(seed.wrapping_mul(0xd605_0bb5_9b44_2b5d) ^ 0x1c69_b3f7_4ac4_ab57);
    let (topo, devs) = chain_topology(&mut rng);
    let mut net = Network::with_exec(
        topo,
        NetworkConfig::default(),
        TickMode::Fast,
        exec,
        RingBufferSink::new(1 << 20),
    );
    let mut token = 0u64;
    let mut deliveries = FNV_OFFSET;
    for cycle in 0..400u64 {
        if cycle < 250 {
            for si in 0..devs.len() {
                if rng.below(3) != 0 {
                    continue;
                }
                let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
                token += 1;
                // A refused enqueue shows in the fingerprint.
                let _ = net.enqueue(devs[si], devs[di], FlitClass::Data, 64, token);
            }
        }
        if epoch {
            net.tick_epoch(1).expect("k = 1 is always legal");
        } else {
            net.tick();
        }
        for &d in &devs {
            while let Some(f) = net.pop_delivered(d) {
                let (id, src, dst, token, bytes, hops, deflections, changes) = digest(&f);
                deliveries = fnv_words(
                    deliveries,
                    &[
                        cycle,
                        id,
                        u64::from(src.0),
                        u64::from(dst.0),
                        token,
                        u64::from(bytes),
                        u64::from(hops),
                        u64::from(deflections),
                        u64::from(changes),
                    ],
                );
            }
        }
    }
    assert!(
        net.stats().delivered.get() > 0,
        "seed {seed}: nothing was delivered"
    );
    let fingerprint = fnv_words(FNV_OFFSET, &net.fingerprint());
    let trace = net
        .into_sink()
        .to_vec()
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv(h, format!("{r:?}").as_bytes()));
    Digests {
        fingerprint,
        deliveries,
        trace,
    }
}

/// `(fingerprint, deliveries, trace)` digests per seed, recorded from
/// the engine when `tick()` still had its own per-cycle body beside
/// the epoch loop (identical under every exec mode then, and identical
/// to `tick_epoch(1)`).
#[rustfmt::skip]
const PINNED: [(u64, u64, u64); 10] = [
    (0xd4e9_3b15_2c83_0f2d, 0x8977_2b16_a2bf_bb92, 0xaf45_b971_efed_65e1),
    (0x0ea3_ed26_f956_2e24, 0x640d_443f_65aa_ec77, 0x12d9_f1eb_7120_1103),
    (0x6188_dede_f38d_7055, 0x1a0e_458e_2265_8f87, 0x641c_3fd7_54cd_640e),
    (0x38b9_393a_0894_569c, 0x18f8_4391_6d71_1f87, 0x5ff9_8ea8_88a8_122a),
    (0x23b7_bdf5_a2e0_bdba, 0x25f6_7b17_9c2f_80cb, 0xfb7c_234e_0c41_1301),
    (0xfa70_1220_2faa_27b6, 0xaa56_1fcb_826d_7cef, 0x8284_aaeb_d692_7c99),
    (0x39f2_acab_59d8_17ce, 0xaf52_07a7_1aa4_913c, 0x1b22_5510_1f1d_868e),
    (0xf9de_4114_04bb_e19b, 0x387f_10ac_3eb5_380b, 0x1eb5_c7e4_869c_a0f4),
    (0xa3ac_c43c_a4b3_f55a, 0x634c_ca21_7a18_e2cf, 0x7b29_fbc6_6e8b_ef9d),
    (0x47c5_73f0_be40_d848, 0xd366_1555_9508_eb64, 0xe9f2_4151_99eb_5ecd),
];

/// `tick()` and `tick_epoch(1)` must reproduce the per-cycle engine's
/// recorded output bit for bit — stats fingerprint, delivery stream and
/// telemetry record stream — on ten pinned seeds, under the sequential
/// engine and the parallel one at 2, 4 and 8 threads.
#[test]
fn epoch_of_one_is_bit_identical_to_tick_on_10_pinned_seeds() {
    for (seed, &(fingerprint, deliveries, trace)) in PINNED.iter().enumerate() {
        let pinned = Digests {
            fingerprint,
            deliveries,
            trace,
        };
        for exec in [
            ExecMode::Sequential,
            ExecMode::Parallel(2),
            ExecMode::Parallel(4),
            ExecMode::Parallel(8),
        ] {
            for epoch in [false, true] {
                assert_eq!(
                    digests(seed as u64, exec, epoch),
                    pinned,
                    "seed {seed}: {exec:?} (tick_epoch(1): {epoch}) diverged from the pinned digests"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch boundaries never reorder same-flow delivery: with traffic
    /// applied only at epoch-aligned cycles, every flow's delivered
    /// token sequence under `tick_epoch(k)` — sequential *and* parallel
    /// — equals the per-cycle engine's, and the stats fingerprints
    /// match exactly.
    #[test]
    fn epoch_boundaries_never_reorder_same_flow_delivery(
        seed in any::<u64>(),
        k in 2u64..9,
        threads in 2usize..5,
        steps in 20u64..60,
    ) {
        let mut rng = Rng(seed ^ 0xe703_7ed1_a359_7b93);
        let (topo, devs) = two_ring(8); // latency 8 admits every sampled k
        let cfg = NetworkConfig::default();
        let mut nets = [
            Network::with_exec(topo.clone(), cfg.clone(), TickMode::Fast, ExecMode::Sequential,
                noc_core::telemetry::NullSink),
            Network::with_exec(topo.clone(), cfg.clone(), TickMode::Fast, ExecMode::Sequential,
                noc_core::telemetry::NullSink),
            Network::with_exec(topo, cfg, TickMode::Fast, ExecMode::Parallel(threads),
                noc_core::telemetry::NullSink),
        ];
        prop_assert!(k <= nets[0].max_epoch());

        // flows[n]: (src, dst) -> delivered token sequence for net n.
        let mut flows: [BTreeMap<(NodeId, NodeId), Vec<u64>>; 3] = Default::default();
        let mut token = 0u64;
        for step in 0..steps + 2_000 {
            if step < steps {
                for si in 0..devs.len() {
                    if rng.below(2) != 0 {
                        continue;
                    }
                    let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
                    token += 1;
                    let ok: Vec<bool> = nets
                        .iter_mut()
                        .map(|n| n.enqueue(devs[si], devs[di], FlitClass::Data, 64, token).is_ok())
                        .collect();
                    prop_assert!(ok[0] == ok[1] && ok[1] == ok[2],
                        "step {step}: enqueue outcome diverged {ok:?}");
                }
            }
            // One epoch on every net; the baseline takes it one cycle
            // at a time.
            for _ in 0..k {
                nets[0].tick();
            }
            nets[1].tick_epoch(k).expect("k within bound");
            nets[2].tick_epoch(k).expect("k within bound");
            for &d in &devs {
                for (n, fl) in nets.iter_mut().zip(flows.iter_mut()) {
                    while let Some(f) = n.pop_delivered(d) {
                        fl.entry((f.src, f.dst)).or_default().push(f.token);
                    }
                }
            }
            if step >= steps && nets.iter().all(|n| n.in_flight() == 0) {
                break;
            }
        }
        prop_assert!(nets.iter().all(|n| n.in_flight() == 0), "failed to drain");
        prop_assert!(nets[0].stats().delivered.get() > 0, "nothing was delivered");
        prop_assert_eq!(&flows[0], &flows[1], "sequential epochs reordered a flow (k={})", k);
        prop_assert_eq!(&flows[0], &flows[2],
            "parallel({}) epochs reordered a flow (k={})", threads, k);
        let fp = nets.each_ref().map(|n| n.stats().fingerprint());
        prop_assert_eq!(&fp[0], &fp[1], "sequential epoch fingerprint diverged");
        prop_assert_eq!(&fp[0], &fp[2], "parallel epoch fingerprint diverged");
    }
}
