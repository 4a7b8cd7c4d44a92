//! Every workload on a held-out seed, at short length: the metric set
//! matches `BENCHMARK.json`, the correctness checks pass, and the
//! deterministic counts repeat exactly from one run to the next.

use noc_perfbench::{run, Outcome, Scale, Workload, DETERMINISTIC_COUNTS};
use serde::Value;

/// Never used while the benchmark was tuned.
const HELD_OUT_SEED: u64 = 0x00dd_ba11;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn check(outcome: &Outcome, expected: &[(String, String)]) {
    assert!(outcome.correct, "checks failed: {:#?}", outcome.report);
    assert!(outcome.attempted >= 1);
    assert!(outcome.failed <= outcome.attempted);
    let printed: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(printed, expected, "metric names and units");
    for m in &outcome.metrics {
        assert!(valid_name(m.name), "invalid metric name {}", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let line: Value = serde_json::from_str(&outcome.json()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn every_workload_on_a_held_out_seed() {
    let spec = spec();
    let end_to_end = listed(&spec, "end_to_end");
    let per_layer = listed(&spec, "per_layer");
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    for workload in Workload::ALL {
        let plain = run(workload, HELD_OUT_SEED, 0.0, false, Scale::Short);
        check(&plain, &end_to_end);
        assert!(plain.metric("ns_per_station_cycle").unwrap() > 0.0);
        assert!(plain.metric("setup_s").unwrap() > 0.0);

        let traced = run(workload, HELD_OUT_SEED, 0.0, true, Scale::Short);
        check(&traced, &per_layer);
        let again = run(workload, HELD_OUT_SEED, 0.0, true, Scale::Short);
        for name in DETERMINISTIC_COUNTS {
            assert_eq!(
                traced.metric(name).map(f64::to_bits),
                again.metric(name).map(f64::to_bits),
                "{}: {name} differs between runs of one seed",
                workload.name()
            );
        }
        assert_eq!(
            traced.fingerprint, plain.fingerprint,
            "tracing changed the simulation"
        );
        assert_eq!(
            traced.fingerprint, again.fingerprint,
            "fingerprint differs between runs of one seed"
        );
        assert_eq!(
            (plain.attempted, plain.failed),
            (traced.attempted, traced.failed),
            "{}: operation counts differ between runs of one seed",
            workload.name()
        );
    }
}
