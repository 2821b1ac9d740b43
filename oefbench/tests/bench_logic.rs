//! Tests of the benchmark's own logic: stream determinism and shape, the
//! percentile rule, span self times, the pace probe, and agreement with
//! `BENCHMARK.json`.

use oef_workloads::ChurnEventKind;
use oefbench::pace::{Probe, PARTS};
use oefbench::report::{END_TO_END, PER_LAYER};
use oefbench::stats::{percentile, tail, Span, Spans, MIN_BEYOND};
use oefbench::stream::{workload, workloads, Population, Stream, WARMUP_ROUNDS};
use std::collections::HashSet;

fn stream_json(name: &str, seed: u64, rounds: usize) -> String {
    let spec = workload(name).expect("workload exists");
    let mut stream = Stream::new(&spec, seed);
    let mut out = String::new();
    for _ in 0..rounds {
        let (round, events) = stream.next_round();
        out.push_str(&format!("{round}:"));
        out.push_str(&serde_json::to_string(&events).expect("events serialize"));
        out.push('\n');
    }
    out
}

#[test]
fn same_seed_gives_a_byte_identical_stream_and_another_seed_a_different_one() {
    for spec in workloads() {
        // Far enough to cross several lazily generated chunks.
        let a = stream_json(spec.name, 7, 160);
        let b = stream_json(spec.name, 7, 160);
        let c = stream_json(spec.name, 8, 160);
        assert_eq!(a, b, "{}: same seed, different stream", spec.name);
        assert_ne!(a, c, "{}: different seeds, same stream", spec.name);
    }
}

#[test]
fn streams_only_name_live_subjects_and_hold_their_population() {
    for spec in workloads() {
        let mut stream = Stream::new(&spec, 3);
        let mut tenants: HashSet<String> = HashSet::new();
        let mut hosts: HashSet<String> = HashSet::new();
        let mut churn = 0usize;
        for _ in 0..300 {
            let (round, events) = stream.next_round();
            for e in events {
                match e.kind {
                    ChurnEventKind::Join { .. } => {
                        assert!(
                            tenants.insert(e.subject.clone()),
                            "double join {}",
                            e.subject
                        );
                        churn += usize::from(round >= WARMUP_ROUNDS);
                    }
                    ChurnEventKind::Leave => {
                        assert!(tenants.remove(&e.subject), "leave of unknown {}", e.subject);
                        churn += 1;
                    }
                    ChurnEventKind::AddHost { .. } => assert!(hosts.insert(e.subject)),
                    ChurnEventKind::RemoveHost => assert!(hosts.remove(&e.subject)),
                    _ => assert!(
                        tenants.contains(&e.subject),
                        "event for unknown {}",
                        e.subject
                    ),
                }
            }
            if round >= WARMUP_ROUNDS {
                let population = tenants.len() as f64 / spec.population as f64;
                assert!(
                    (0.5..=1.5).contains(&population),
                    "{}: round {round} holds {} tenants",
                    spec.name,
                    tenants.len()
                );
            }
        }
        match spec.dynamics {
            Population::Resident => assert_eq!(churn, 0, "{}: resident tenants churned", spec.name),
            Population::Churning { .. } => assert!(churn > 0, "{}: no churn", spec.name),
        }
    }
}

#[test]
fn a_reported_tail_has_at_least_ten_samples_beyond_it() {
    for n in [1usize, 9, 50, 99, 100, 101, 500, 999, 1000, 1001, 5000] {
        let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
        for q in [0.9, 0.99] {
            match percentile(&samples, q) {
                Some(v) => {
                    let beyond = samples.iter().filter(|&&s| s > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q}: {beyond} beyond {v}");
                }
                None => {
                    let rank = (q * n as f64).ceil() as usize;
                    assert!(
                        n - rank < MIN_BEYOND,
                        "n={n} q={q} refused a supported tail"
                    );
                }
            }
        }
        assert!(
            percentile(&samples, 0.5).is_some(),
            "the median is always reported"
        );
    }
    assert_eq!(percentile(&[], 0.5), None);
    // p90 of 0..100 is the 90th value: exactly 10 samples beyond it.
    let hundred: Vec<f64> = (0..100).map(|i| i as f64).collect();
    assert_eq!(percentile(&hundred, 0.9), Some(89.0));
    assert_eq!(percentile(&hundred[..99], 0.9), None);
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        command: 1,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_duration_minus_the_union_of_children() {
    let mut spans = Spans::new();
    let root = spans.push(span("command", None, 100, 200));
    // Two overlapping children cover [110, 150) once, a third [160, 170),
    // and one spilling past the parent counts only up to its end.
    let a = spans.push(span("a", Some(root), 110, 140));
    spans.push(span("b", Some(root), 120, 150));
    spans.push(span("c", Some(root), 160, 170));
    spans.push(span("d", Some(root), 190, 230));
    // A grandchild is its parent's business, not the root's.
    spans.push(span("e", Some(a), 115, 125));
    assert_eq!(spans.self_ns(root), 100 - 40 - 10 - 10);
    assert_eq!(spans.self_ns(a), 30 - 10);
    let leaf = spans.push(span("leaf", None, 0, 7));
    assert_eq!(spans.self_ns(leaf), 7);
}

#[test]
fn benchmark_json_lists_exactly_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        json.get(key)
            .and_then(serde_json::Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(serde_json::Value::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(serde_json::Value::as_str)
                        .map(str::to_string),
                )
            })
            .collect()
    };
    let declared = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), declared(END_TO_END));
    assert_eq!(names("per_layer"), declared(PER_LAYER));
    let listed: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let known: Vec<String> = workloads().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(listed, known);
}

#[test]
fn a_windowed_tail_ignores_a_burst_in_one_window() {
    // 5000 samples of 1.0 with a burst of 60 large values in the middle
    // window: the plain p99 lands in the burst, the windowed one does not.
    let mut samples = vec![1.0; 5000];
    for s in &mut samples[2100..2160] {
        *s = 100.0;
    }
    assert_eq!(percentile(&samples, 0.99), Some(100.0));
    assert_eq!(tail(&samples, 0.99), Some(1.0));
    // Too few samples for two windows: the plain quantile, same rule.
    let few: Vec<f64> = (0..150).map(f64::from).collect();
    assert_eq!(tail(&few, 0.9), percentile(&few, 0.9));
    assert_eq!(tail(&few[..99], 0.9), None);
}

#[test]
fn the_median_uses_every_sample() {
    // Three windows of 60% ones then two of nines: the windows' medians
    // are 1, 1, 1, 9, 9, but most samples are 9.
    let mut samples = Vec::new();
    for _ in 0..3 {
        samples.extend(vec![1.0; 1200]);
        samples.extend(vec![9.0; 800]);
    }
    samples.extend(vec![9.0; 4000]);
    assert_eq!(tail(&samples, 0.5), Some(9.0));
}

#[test]
fn the_pace_is_one_before_any_sample_and_a_positive_ratio_after() {
    let mut probe = Probe::new();
    assert_eq!(probe.pace(), 1.0);
    for _ in 0..3 {
        probe.sample();
    }
    assert_eq!(probe.samples(), 3);
    assert_eq!(probe.medians().len(), PARTS.len());
    let pace = probe.pace();
    // Any real machine is within a factor of 100 of the reference.
    assert!(pace > 0.01 && pace < 100.0, "pace {pace}");
    assert!(probe.spent() > std::time::Duration::ZERO);
}
