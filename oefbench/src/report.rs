//! Metric names, units, and their computation from the runs.

use crate::client::{Class, Tally};
use crate::pace::PARTS;
use crate::stats::{mean, median, percentile, tail, Spans};
use crate::tcp::TcpReport;
use crate::traced::TracedPass;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// End-to-end metrics (untraced TCP run), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cmds_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p90_ms", "ms"),
    ("recovery_s", "s"),
    ("cluster_throughput", "1/round"),
    ("daemon_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with their units.  A layer the
/// workload does not run (no journal, no checkpoint) reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codec.request_bytes", "bytes"),
    ("codec.request_encode_us.p50", "us"),
    ("codec.request_encode_us.p90", "us"),
    ("codec.request_decode_us.p50", "us"),
    ("codec.request_decode_us.p90", "us"),
    ("codec.reply_encode_us.p50", "us"),
    ("codec.reply_encode_us.p90", "us"),
    ("codec.tick_reply_bytes", "bytes"),
    ("codec.tick_reply_encode_ms.p50", "ms"),
    ("codec.tick_reply_encode_ms.p90", "ms"),
    ("codec.tick_reply_decode_ms.p50", "ms"),
    ("codec.tick_reply_decode_ms.p90", "ms"),
    ("server.gap_us.tick", "us"),
    ("server.gap_us.mutate", "us"),
    ("server.gap_us.read", "us"),
    ("server.busy_retries", "count"),
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p90", "us"),
    ("journal.sync_us.p50", "us"),
    ("journal.sync_us.p90", "us"),
    ("journal.bytes_per_cmd", "bytes"),
    ("journal.fsyncs_per_kcmd", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.take_ms.p50", "ms"),
    ("snapshot.restore_ms.p50", "ms"),
    ("coordinator.apply_us.p50", "us"),
    ("coordinator.apply_us.p90", "us"),
    ("coordinator.tick_ms.p50", "ms"),
    ("coordinator.tick_ms.p90", "ms"),
    ("lp.solve_ms.p50", "ms"),
    ("lp.solve_ms.p90", "ms"),
    ("lp.solve_vs_reply", "ratio"),
    ("lp.warm_frac", "ratio"),
    ("lp.refactorizations_per_solve", "count"),
    ("lp.eta_pivots_per_solve", "count"),
    ("lp.repairs_per_solve", "count"),
    ("lp.basis_repairs_per_solve", "count"),
    ("placement.tick_ms.p50", "ms"),
    ("placement.tick_ms.p90", "ms"),
    ("obs.scrape_ms.p50", "ms"),
    ("obs.scrape_ms.p90", "ms"),
    ("obs.scrape_bytes", "bytes"),
    ("obs.attrib_ms.p50", "ms"),
    ("obs.attrib_ms.p90", "ms"),
    ("client.reader_late_ms.p50", "ms"),
    ("client.reader_late_ms.p90", "ms"),
    ("client.mutate_us.p50", "us"),
    ("client.mutate_us.p90", "us"),
    ("client.mutate_us.p99", "us"),
    ("client.read_us.p50", "us"),
    ("client.read_us.p99", "us"),
    ("host.pace", "ratio"),
    ("host.steal", "ratio"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Collects metrics in declaration order.
struct Collector {
    table: &'static [(&'static str, &'static str)],
    metrics: Vec<Metric>,
}

impl Collector {
    fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Collector {
            table,
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        let (name, unit) = unit_of(self.table, name);
        self.metrics.push(Metric { name, unit, value });
    }

    fn finish(mut self) -> Vec<Metric> {
        let order = |name: &str| self.table.iter().position(|(n, _)| *n == name);
        self.metrics.sort_by_key(|m| order(m.name));
        for (name, _) in self.table {
            assert!(
                self.metrics.iter().any(|m| m.name == *name),
                "metric {name} was not computed"
            );
        }
        self.metrics
    }
}

/// A quantile of an end-to-end latency sample (see [`tail`]); a tail
/// without enough samples beyond it counts as a failure (and reports the
/// sample's maximum).
fn e2e_percentile(samples: &[f64], q: f64, scale: f64, what: &str, tally: &mut Tally) -> f64 {
    let value = tail(samples, q);
    tally.record(value.is_some(), || {
        format!(
            "{what}: {} samples cannot support the {q} quantile",
            samples.len()
        )
    });
    value
        .unwrap_or_else(|| samples.iter().copied().fold(0.0, f64::max))
        .max(0.0)
        * scale
}

/// One stderr line per latency class: sample count and a few quantiles,
/// so a reader can see how much each tail rests on.
pub fn log_distributions(tcp: &TcpReport) {
    let mut classes: Vec<_> = tcp.latency.iter().collect();
    classes.sort_by_key(|(name, _)| *name);
    for (name, samples) in classes {
        let q = |p: f64| {
            percentile(samples, p).map_or_else(|| "-".to_string(), |v| format!("{:.0}", v * 1e6))
        };
        eprintln!(
            "oefbench: {name}: n={} p50={} p90={} p99={} p99.9={} max={}us",
            samples.len(),
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            samples.iter().copied().fold(0.0, f64::max) * 1e6
        );
    }
    for (name, samples) in [("setup", &tcp.setup_s), ("recovery", &tcp.recovery_s)] {
        let ms: Vec<String> = samples.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        eprintln!("oefbench: {name}: [{}] ms", ms.join(" "));
    }
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(tcp: &TcpReport, tally: &mut Tally) -> Vec<Metric> {
    let mut c = Collector::new(END_TO_END);
    let empty = Vec::new();
    let lat = |class: Class| tcp.latency.get(class.name()).unwrap_or(&empty);
    c.put("setup_s", median(&tcp.setup_s).unwrap_or(0.0));
    c.put(
        "cmds_per_s",
        tcp.commands as f64 / tcp.measured_secs.max(1e-9),
    );
    let tick = lat(Class::Tick);
    c.put("tick_p50_ms", e2e_percentile(tick, 0.5, 1e3, "tick", tally));
    c.put("tick_p90_ms", e2e_percentile(tick, 0.9, 1e3, "tick", tally));
    c.put("recovery_s", median(&tcp.recovery_s).unwrap_or(0.0));
    c.put("cluster_throughput", mean(&tcp.round_throughput));
    c.put("daemon_rss_mb", tcp.rss_mb);
    let mut metrics = c.finish();
    let raw: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}={:.6}", m.name, m.value))
        .collect();
    let parts: Vec<String> = PARTS
        .iter()
        .zip(&tcp.pace_parts)
        .map(|(name, secs)| format!("{name}={:.1}us", secs * 1e6))
        .collect();
    eprintln!(
        "oefbench: pace {:.4} over {} samples ({}); steal {:.4}; raw {}",
        tcp.pace,
        tcp.pace_samples,
        parts.join(" "),
        tcp.steal,
        raw.join(" ")
    );
    // Timings at the reference pace with nothing stolen (see
    // `crate::pace`).
    let slowness = tcp.pace / (1.0 - tcp.steal);
    for m in &mut metrics {
        match m.unit {
            "s" | "ms" | "us" => m.value /= slowness,
            "1/s" => m.value *= slowness,
            _ => {}
        }
    }
    metrics
}

/// A per-layer percentile: the sample's maximum when its tail is short
/// (noted on stderr), 0 for a layer that did not run.
fn layer_percentile(samples: &[f64], q: f64, name: &str) -> f64 {
    match tail(samples, q) {
        Some(v) => v,
        None if samples.is_empty() => 0.0,
        None => {
            eprintln!(
                "oefbench: {name}: {} samples, reporting their maximum",
                samples.len()
            );
            samples.iter().copied().fold(0.0, f64::max)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of a traced run.
pub fn per_layer(tcp: &TcpReport, pass: &TracedPass, spans: &Spans) -> Vec<Metric> {
    let mut c = Collector::new(PER_LAYER);
    let us = 1e3;
    let ms = 1e6;
    let pct = |c: &mut Collector, base: &str, samples: &[f64], qs: &[(&str, f64)]| {
        for (suffix, q) in qs {
            let name = format!("{base}.{suffix}");
            let v = layer_percentile(samples, *q, &name);
            c.put(&name, v);
        }
    };
    const P50_P90: &[(&str, f64)] = &[("p50", 0.5), ("p90", 0.9)];

    // Durations of the spans named `name` whose command's class passes
    // `keep`.
    let spans_of = |name: &str, keep: &dyn Fn(Option<&Class>) -> bool, unit_ns: f64| -> Vec<f64> {
        spans
            .all()
            .iter()
            .filter(|s| s.name == name && keep(pass.classes.get(&s.command)))
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect()
    };
    let tick = |c: Option<&Class>| c == Some(&Class::Tick);
    let mutate = |c: Option<&Class>| c == Some(&Class::Mutate);
    let not_tick = |c: Option<&Class>| c != Some(&Class::Tick);

    c.put("codec.request_bytes", mean(&pass.request_bytes));
    pct(
        &mut c,
        "codec.request_encode_us",
        &spans.durations("request_encode", us),
        P50_P90,
    );
    pct(
        &mut c,
        "codec.request_decode_us",
        &spans.durations("request_decode", us),
        P50_P90,
    );
    pct(
        &mut c,
        "codec.reply_encode_us",
        &spans_of("reply_encode", &not_tick, us),
        P50_P90,
    );
    c.put("codec.tick_reply_bytes", mean(&pass.tick_reply_bytes));
    pct(
        &mut c,
        "codec.tick_reply_encode_ms",
        &spans_of("reply_encode", &tick, ms),
        P50_P90,
    );
    pct(
        &mut c,
        "codec.tick_reply_decode_ms",
        &spans_of("reply_decode", &tick, ms),
        P50_P90,
    );

    // The unmeasured share per class: e2e mean round trip minus the mean
    // time the traced layers covered inside each command.
    let empty = Vec::new();
    for (class, metric) in [
        (Class::Tick, "server.gap_us.tick"),
        (Class::Mutate, "server.gap_us.mutate"),
        (Class::Read, "server.gap_us.read"),
    ] {
        let e2e = match class {
            Class::Read => &tcp.read_rtt,
            _ => tcp.latency.get(class.name()).unwrap_or(&empty),
        };
        let layers: Vec<f64> = spans
            .all()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == class.name() && s.parent.is_none())
            .map(|(i, s)| (s.duration_ns() - spans.self_ns(i)) as f64 / us)
            .collect();
        c.put(metric, mean(e2e) * 1e6 - mean(&layers));
    }
    c.put("server.busy_retries", tcp.busy_retries as f64);

    pct(
        &mut c,
        "journal.append_us",
        &spans.durations("journal_append", us),
        P50_P90,
    );
    pct(
        &mut c,
        "journal.sync_us",
        &spans.durations("journal_sync", us),
        P50_P90,
    );
    let (m0, m1) = &tcp.metrics;
    let appends = m1.journal_appends.saturating_sub(m0.journal_appends);
    c.put(
        "journal.bytes_per_cmd",
        ratio(
            m1.journal_appended_bytes
                .saturating_sub(m0.journal_appended_bytes),
            appends,
        ),
    );
    c.put(
        "journal.fsyncs_per_kcmd",
        1e3 * ratio(m1.journal_fsyncs.saturating_sub(m0.journal_fsyncs), appends),
    );

    c.put("snapshot.bytes", mean(&pass.snapshot_bytes));
    pct(
        &mut c,
        "snapshot.take_ms",
        &spans.durations("snapshot_take", ms),
        &[("p50", 0.5)],
    );
    pct(
        &mut c,
        "snapshot.restore_ms",
        &spans.durations("snapshot_restore", ms),
        &[("p50", 0.5)],
    );

    pct(
        &mut c,
        "coordinator.apply_us",
        &spans_of("apply", &mutate, us),
        P50_P90,
    );
    pct(
        &mut c,
        "coordinator.tick_ms",
        &spans_of("apply", &tick, ms),
        P50_P90,
    );

    pct(
        &mut c,
        "lp.solve_ms",
        &spans.durations("lp_solve", ms),
        P50_P90,
    );
    let ratios: Vec<f64> = pass
        .solve_vs_reply
        .iter()
        .filter(|(_, reply)| *reply > 0.0)
        .map(|(own, reply)| own / reply)
        .collect();
    c.put("lp.solve_vs_reply", median(&ratios).unwrap_or(0.0));
    let solves = (m1.warm_solves + m1.cold_solves).saturating_sub(m0.warm_solves + m0.cold_solves);
    let delta = |a: u64, b: u64| a.saturating_sub(b);
    c.put(
        "lp.warm_frac",
        ratio(delta(m1.warm_solves, m0.warm_solves), solves),
    );
    c.put(
        "lp.refactorizations_per_solve",
        ratio(delta(m1.refactorizations, m0.refactorizations), solves),
    );
    c.put(
        "lp.eta_pivots_per_solve",
        ratio(delta(m1.eta_pivots, m0.eta_pivots), solves),
    );
    c.put(
        "lp.repairs_per_solve",
        ratio(delta(m1.churn_repairs, m0.churn_repairs), solves),
    );
    c.put(
        "lp.basis_repairs_per_solve",
        ratio(delta(m1.basis_repairs, m0.basis_repairs), solves),
    );

    let placement: Vec<f64> = pass
        .tick_split
        .iter()
        .map(|(apply, solve)| (apply - solve).max(0.0))
        .collect();
    pct(&mut c, "placement.tick_ms", &placement, P50_P90);

    pct(
        &mut c,
        "obs.scrape_ms",
        &spans.durations("scrape", ms),
        P50_P90,
    );
    c.put("obs.scrape_bytes", mean(&pass.scrape_bytes));
    pct(
        &mut c,
        "obs.attrib_ms",
        &spans.durations("attrib", ms),
        P50_P90,
    );
    let late_ms: Vec<f64> = tcp.reader_late.iter().map(|s| s * 1e3).collect();
    pct(&mut c, "client.reader_late_ms", &late_ms, P50_P90);
    // The TCP phase's mutation and read round trips: set mostly by how
    // fast the host wakes threads, so not gated end to end (see the
    // README), kept here so a change's effect on them stays visible.
    let in_us = |class: Class| -> Vec<f64> {
        tcp.latency
            .get(class.name())
            .map_or_else(Vec::new, |v| v.iter().map(|s| s * 1e6).collect())
    };
    pct(
        &mut c,
        "client.mutate_us",
        &in_us(Class::Mutate),
        &[("p50", 0.5), ("p90", 0.9), ("p99", 0.99)],
    );
    pct(
        &mut c,
        "client.read_us",
        &in_us(Class::Read),
        &[("p50", 0.5), ("p99", 0.99)],
    );
    c.put("host.pace", tcp.pace);
    c.put("host.steal", tcp.steal);
    c.finish()
}

/// Per command class, the TCP run's mean round trip next to the mean time
/// each traced layer took inside one command of that class, and the gap
/// between the two — the layers plus the gap add up to the round trip.
/// JSON, for the trace file.
pub fn breakdown_json(tcp: &TcpReport, spans: &Spans) -> String {
    let empty = Vec::new();
    let mut out = String::from("{");
    for (i, class) in [Class::Tick, Class::Mutate, Class::Read]
        .into_iter()
        .enumerate()
    {
        let e2e = match class {
            Class::Read => &tcp.read_rtt,
            _ => tcp.latency.get(class.name()).unwrap_or(&empty),
        };
        let roots: Vec<usize> = spans
            .all()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == class.name() && s.parent.is_none())
            .map(|(i, _)| i)
            .collect();
        let n = roots.len().max(1) as f64;
        let mut layers: Vec<(&str, f64)> = Vec::new();
        for s in spans.all() {
            if s.parent.is_some_and(|p| roots.binary_search(&p).is_ok()) {
                let us = s.duration_ns() as f64 / 1e3 / n;
                match layers.iter_mut().find(|(name, _)| *name == s.name) {
                    Some(slot) => slot.1 += us,
                    None => layers.push((s.name, us)),
                }
            }
        }
        let harness: f64 = roots
            .iter()
            .map(|&r| spans.self_ns(r) as f64 / 1e3)
            .sum::<f64>()
            / n;
        let covered: f64 = layers.iter().map(|(_, us)| us).sum();
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"commands\": {}, \"e2e_mean_us\": {:.3}, \"gap_us\": {:.3}, \"harness_us\": {harness:.3}, \"layers_us\": {{",
            class.name(),
            roots.len(),
            mean(e2e) * 1e6,
            mean(e2e) * 1e6 - covered,
        ));
        for (j, (name, us)) in layers.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {us:.3}"));
        }
        out.push_str("}}");
    }
    out.push('}');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        out.push_str(&format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    out.push_str("}}");
    out
}
