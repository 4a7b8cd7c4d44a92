//! The AI workload: Table 7's 1:1 read/write row on the default AI
//! SoC (RBRG-L1 bridges), driven through `AiEngine::tick` and
//! single-cycle `AiEngine::run` calls.

use crate::{
    core_counts, flit_conservation, flit_latency, timed, CallTimer, Episode, Length, SetupTimes,
    Sim, DRAIN_STALL_CYCLES,
};
use noc_ai::{AiConfig, AiEngine, AiProcessor, AiTraffic};
use std::time::Instant;

pub(crate) const LEN: Length = Length {
    episodes: 8,
    warmup: 1_000,
    window: 3_000,
    drain: 20_000,
};

pub(crate) fn episode(seed: u64, len: Length, traced: bool) -> Episode {
    let (mut engine, build_s) = timed(|| {
        let proc = AiProcessor::build(AiConfig::default()).expect("the default AI SoC builds");
        let traffic = AiTraffic {
            seed,
            ..AiTraffic::from_ratio(1, 1)
        };
        AiEngine::new(proc, traffic)
    });
    let setup = SetupTimes {
        build_s,
        ..SetupTimes::default()
    };
    let stations = engine.processor().net.topology().total_stations();
    let mut errors = 0u64;
    let mut alive = (0..len.warmup).all(|_| engine.tick().is_ok());
    errors += u64::from(!alive);

    // One single-cycle `run` call per cycle, so a traced window can time
    // each cycle; the timer does nothing in an untraced window.
    let before = engine.processor().net.stats();
    let mut tick = CallTimer::new(traced);
    let (mut read, mut write, mut dma) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for _ in 0..len.window {
        if !alive {
            break;
        }
        match tick.time(|| engine.run(0, 1)) {
            Ok(r) => {
                read += r.read_bytes;
                write += r.write_bytes;
                dma += r.dma_bytes;
            }
            Err(_) => {
                errors += 1;
                alive = false;
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let after = engine.processor().net.stats();
    let timings = vec![
        ("ai.tick_ns", tick.mean_ns()),
        ("ai.tick_p99_ns", tick.p99_ns()),
    ];

    // Bounded drain of the network alone: the engine's closed loop
    // never stops issuing, so stop calling it and deliver what is in
    // flight.
    let net = &mut engine.processor_mut().net;
    let devices: Vec<_> = net.topology().devices().map(|n| n.id).collect();
    let (mut idle, mut drained) = (0u64, 0u64);
    while alive && net.in_flight() > 0 && drained < len.drain && idle < DRAIN_STALL_CYCLES {
        let in_flight = net.in_flight();
        if net.try_tick().is_err() {
            errors += 1;
            break;
        }
        for &d in &devices {
            while net.pop_delivered(d).is_some() {}
        }
        idle = if net.in_flight() == in_flight {
            idle + 1
        } else {
            0
        };
        drained += 1;
    }
    let stuck = net.in_flight();
    let wedge = (stuck > 0).then(|| {
        format!(
            "{stuck} flits stuck at cycle {} after a {drained}-cycle drain",
            net.now().raw()
        )
    });

    let end = net.stats();
    let mut violations = Vec::new();
    flit_conservation(net, &mut violations);
    let window = len.window as f64;
    let mut counts = core_counts(net);
    counts.extend([
        ("ai.read_bytes_per_cycle", read as f64 / window),
        ("ai.write_bytes_per_cycle", write as f64 / window),
        ("ai.dma_bytes_per_cycle", dma as f64 / window),
    ]);
    Episode {
        setup,
        window_s,
        stations,
        sim: Sim {
            fingerprint: net.fingerprint(),
            accepted: end.enqueued.get(),
            completed: end.delivered.get(),
            errors,
            window_ops: after.delivered.get() - before.delivered.get(),
            window_bytes: read + write + dma,
            counts,
            violations,
            wedges: wedge.into_iter().collect(),
        },
        latency: flit_latency(net),
        timings,
    }
}
