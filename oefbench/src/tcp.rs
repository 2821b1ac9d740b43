//! The untraced end-to-end run: the real daemon over loopback TCP.
//!
//! One process, two load-generator threads:
//!
//! * the **writer** replays the stream in a closed loop (next command only
//!   after the previous reply) with the repository's `ServiceClient`;
//! * the **reader** polls `Status`/`Metrics` on an open-loop schedule
//!   ([`READ_PERIOD`]), with a `GET /metrics` scrape every
//!   [`SCRAPE_EVERY`]th poll.  Its latencies are timed from each poll's due
//!   time, so a stall also charges the polls queued behind it, and how late
//!   the generator itself ran is kept apart.
//!
//! Set-up (spawn, hosts, initial joins, warm-up rounds) is repeated
//! [`TcpOptions::setups`] times on fresh daemons and the last one carries
//! on into the measured phase.  The run ends with `kill -9` and restarts:
//! a journaled daemon is crashed in several states, recovers from its
//! journal each time and carries on, and the last recovery is checked
//! against an uninterrupted in-process twin; a daemon without a journal
//! restarts empty.

use crate::client::{cluster_throughput, steps, Class, Client, Step, Tally, Transport, EPSILON};
use crate::daemon::{http_get, Daemon, Launch};
use crate::pace::{self, Probe};
use crate::stream::{Stream, WorkloadSpec, COMPACT_EVERY, WARMUP_ROUNDS};
use oef_cluster::ClusterTopology;
use oef_core::sharded;
use oef_service::{
    ClientConfig, ClientError, Command, ErrorCode, MetricsReport, Response, RoundSummary,
    ServiceClient, ServiceConfig, ServiceLimits,
};
use oef_shard::{placement_from_name, ShardCoordinator};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Interval between the reader's polls.
pub const READ_PERIOD: Duration = Duration::from_millis(10);
/// Every this many polls the reader also scrapes `GET /metrics`.
pub const SCRAPE_EVERY: u64 = 20;
/// The durable workload is killed when this many journaled commands follow
/// the last checkpoint: a fixed replay tail, and a multiple of the
/// group-commit batch, so no acknowledged command is lost.
const CRASH_TAIL: u64 = 768;
/// Busy replies retried by the benchmark's own loop (counted) before the
/// command counts as failed.
const BUSY_RETRIES: u32 = 8;
/// Measured rounds `cluster_throughput` averages over: a fixed prefix, so
/// the figure depends on the seed only.
pub const THROUGHPUT_ROUNDS: usize = 100;
/// Interval between the writer's pace samples in the measured phase.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// A slow daemon may stretch the measured phase to this multiple of
/// `--seconds` to reach [`THROUGHPUT_ROUNDS`] ticks.
const MAX_OVERRUN: f64 = 3.0;

/// How much of the full run to do.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Set-ups timed (on fresh daemons); the last one is measured.
    pub setups: usize,
    /// Restarts after the final `kill -9` (0 = end without one).
    pub restarts: usize,
    /// States a durable workload is crashed in; its restarts are shared
    /// out evenly among them.
    pub crashes: usize,
    /// Fetch `GET /attrib` at the end of the measured phase.
    pub fetch_attrib: bool,
}

/// Everything the TCP run measured.
#[derive(Debug, Default)]
pub struct TcpReport {
    /// Seconds from spawn to the end of set-up, one per set-up.
    pub setup_s: Vec<f64>,
    /// Length of the measured phase.
    pub measured_secs: f64,
    /// Commands completed in the measured phase (writer and reader).
    pub commands: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Writer round trips of `Tick`s and other mutations (seconds), and
    /// reader round trips timed from the due time.
    pub latency: HashMap<&'static str, Vec<f64>>,
    /// Reader round trips timed from the send (seconds).
    pub read_rtt: Vec<f64>,
    /// How late the reader sent each poll (seconds).
    pub reader_late: Vec<f64>,
    /// Σ actual throughput of each of the first [`THROUGHPUT_ROUNDS`]
    /// measured rounds.
    pub round_throughput: Vec<f64>,
    /// Seconds from each restart to its first `Status` reply.
    pub recovery_s: Vec<f64>,
    /// Peak RSS of the measured daemon (MiB).
    pub rss_mb: f64,
    /// `Metrics` at the start and end of the measured phase.
    pub metrics: (MetricsReport, MetricsReport),
    /// `Busy` replies retried.
    pub busy_retries: u64,
    /// `GET /attrib` body at the end of the measured phase.
    pub attrib: Option<String>,
    /// The host's pace over the run (see [`crate::pace`]).
    pub pace: f64,
    /// Share of the wanted CPU time the host withheld during the run (see
    /// [`crate::pace`]).
    pub steal: f64,
    /// Median time of each pace probe part (seconds).
    pub pace_parts: Vec<f64>,
    /// Pace samples taken.
    pub pace_samples: usize,
    /// Operations and check failures.
    pub tally: Tally,
}

/// The TCP transport: the repository's client, with `Busy` retried here
/// so retries can be counted.
struct Tcp {
    client: ServiceClient,
    busy_retries: u64,
    accepted: u64,
}

impl Tcp {
    fn connect(addr: std::net::SocketAddr) -> Result<Tcp, String> {
        let config = ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            busy_retries: 0,
            busy_backoff: Duration::from_millis(5),
        };
        let client = ServiceClient::connect_with(addr, config).map_err(|e| e.to_string())?;
        Ok(Tcp {
            client,
            busy_retries: 0,
            accepted: 0,
        })
    }
}

impl Transport for Tcp {
    fn call(&mut self, command: Command) -> Result<Response, String> {
        let mut backoff = Duration::from_millis(5);
        let mut retries = 0;
        loop {
            match self.client.call(command.clone()) {
                Ok(response) => {
                    self.accepted += 1;
                    return Ok(response);
                }
                Err(ClientError::Service {
                    code: ErrorCode::Busy,
                    ..
                }) if retries < BUSY_RETRIES => {
                    retries += 1;
                    self.busy_retries += 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                Err(ClientError::Service { code, message }) => {
                    return Ok(Response::Error { code, message })
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// What the reader thread measured.
#[derive(Debug, Default)]
struct ReaderOut {
    from_due: Vec<f64>,
    rtt: Vec<f64>,
    late: Vec<f64>,
    accepted: u64,
    busy_retries: u64,
    tally: Tally,
}

fn reader(
    addr: std::net::SocketAddr,
    metrics_addr: std::net::SocketAddr,
    stop: &AtomicBool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut tcp = match Tcp::connect(addr) {
        Ok(tcp) => tcp,
        Err(e) => {
            out.tally
                .record(false, || format!("reader cannot connect: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let mut poll: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        let due = start + READ_PERIOD * poll as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let command = if poll.is_multiple_of(2) {
            Command::Status
        } else {
            Command::Metrics
        };
        let wanted_status = matches!(command, Command::Status);
        let response = tcp.call(command);
        let done = Instant::now();
        let ok = matches!(
            (&response, wanted_status),
            (Ok(Response::Status(_)), true) | (Ok(Response::Metrics(_)), false)
        );
        out.tally
            .record(ok, || format!("reader poll {poll} answered {response:?}"));
        out.from_due.push((done - due).as_secs_f64());
        out.rtt.push((done - sent).as_secs_f64());
        out.late
            .push(sent.saturating_duration_since(due).as_secs_f64());
        poll += 1;
        if poll.is_multiple_of(SCRAPE_EVERY) {
            let body = http_get(metrics_addr, "/metrics");
            out.tally.record(
                body.as_ref()
                    .is_ok_and(|b| b.contains("oef_commands_processed_total")),
                || format!("scrape failed: {:?}", body.as_ref().err()),
            );
        }
    }
    out.accepted = tcp.accepted;
    out.busy_retries = tcp.busy_retries;
    out
}

/// The daemon config the workload's flags produce, for the in-process twin.
pub fn service_config(spec: &WorkloadSpec) -> ServiceConfig {
    ServiceConfig {
        policy: "oef-noncooperative".to_string(),
        limits: ServiceLimits {
            max_tenants: spec.max_tenants,
            ..ServiceLimits::default()
        },
        ..ServiceConfig::default()
    }
}

/// A fresh in-process federation shaped like the workload's daemon.
pub fn coordinator(spec: &WorkloadSpec) -> ShardCoordinator {
    let placement = placement_from_name("least-loaded").expect("built-in placement");
    ShardCoordinator::new(
        (0..spec.shards)
            .map(|_| ClusterTopology::paper_cluster())
            .collect(),
        service_config(spec),
        placement,
    )
    .expect("benchmark workloads configure valid federations")
}

fn fetch_metrics(tcp: &mut Tcp, tally: &mut Tally) -> MetricsReport {
    let response = tcp.call(Command::Metrics);
    match response {
        Ok(Response::Metrics(report)) => {
            tally.record(true, String::new);
            report
        }
        other => {
            tally.record(false, || format!("Metrics answered {other:?}"));
            MetricsReport::default()
        }
    }
}

/// Runs one workload end to end over TCP.
///
/// # Errors
///
/// Only when a daemon cannot be started at all; every other failure is
/// counted in [`TcpReport::tally`].
pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    serviced: &Path,
    workdir: &Path,
    options: TcpOptions,
) -> Result<TcpReport, String> {
    let mut report = TcpReport::default();
    let mut probe = Probe::new();
    let ticks = pace::cpu_ticks();
    let mut stream = Stream::new(spec, seed);
    let setup_rounds: Vec<Vec<Step>> = (0..WARMUP_ROUNDS)
        .map(|_| steps(stream.next_round().1))
        .collect();
    let journal_dir = |k: usize| spec.journal.then(|| workdir.join(format!("journal-{k}")));

    // Set-up, repeated on fresh daemons; the last one is kept.
    let mut kept: Option<(Daemon, Tcp, Client, Launch)> = None;
    for k in 0..options.setups.max(1) {
        probe.sample();
        let launch = Launch::new(spec, serviced, journal_dir(k), workdir.join("daemon.log"));
        let started = Instant::now();
        let daemon = launch.spawn(false)?;
        let mut tcp = Tcp::connect(daemon.addr)?;
        let mut client = Client::new(spec);
        client.recorded = spec.journal.then(Vec::new);
        for step in client.setup_host_steps(spec) {
            client.execute(&mut tcp, &step);
        }
        for round in &setup_rounds {
            for step in round {
                client.execute(&mut tcp, step);
            }
        }
        report.setup_s.push(started.elapsed().as_secs_f64());
        if let Some((old, old_tcp, old_client, old_launch)) =
            kept.replace((daemon, tcp, client, launch))
        {
            drop(old_tcp);
            old.kill9();
            report.tally.merge(old_client.tally);
            if let Some(dir) = old_launch.journal_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    let (daemon, mut tcp, mut client, launch) = kept.expect("at least one set-up");

    // Measured phase: the writer here, the reader on a second thread.
    let before = fetch_metrics(&mut tcp, &mut report.tally);
    let stop = AtomicBool::new(false);
    let mut latency: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut writer_commands = 0u64;
    let (reader_out, measured) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(daemon.addr, daemon.metrics_addr, &stop));
        let started = Instant::now();
        let probing = probe.spent();
        loop {
            probe.sample_every(PROBE_EVERY);
            let (_, events) = stream.next_round();
            for step in steps(events) {
                let Some(executed) = client.execute(&mut tcp, &step) else {
                    continue;
                };
                writer_commands += 1;
                latency
                    .entry(executed.class.name())
                    .or_default()
                    .push(executed.elapsed.as_secs_f64());
                if let Some(round) = &executed.round {
                    if report.round_throughput.len() < THROUGHPUT_ROUNDS {
                        report.round_throughput.push(cluster_throughput(round));
                    }
                }
            }
            report.rounds += 1;
            // Measure `seconds`, running on (up to a cap) until the tick
            // sample supports its p90 and the throughput prefix is full.
            let elapsed = (started.elapsed() - (probe.spent() - probing)).as_secs_f64();
            if (elapsed >= seconds && report.rounds >= THROUGHPUT_ROUNDS)
                || elapsed >= seconds * MAX_OVERRUN
                || client.transport_failed
            {
                break;
            }
        }
        let measured = (started.elapsed() - (probe.spent() - probing)).as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let out = reader.join().unwrap_or_else(|_| {
            let mut out = ReaderOut::default();
            out.tally
                .record(false, || "reader thread panicked".to_string());
            out
        });
        (out, measured)
    });
    report.measured_secs = measured;
    report.commands = writer_commands + reader_out.from_due.len() as u64;
    latency.insert(Class::Read.name(), reader_out.from_due);
    report.latency = latency;
    report.read_rtt = reader_out.rtt;
    report.reader_late = reader_out.late;
    report.tally.merge(reader_out.tally);
    if report.round_throughput.len() < THROUGHPUT_ROUNDS {
        report.tally.record(false, || {
            format!(
                "only {} measured rounds; cluster_throughput needs {THROUGHPUT_ROUNDS}",
                report.round_throughput.len()
            )
        });
    }

    // Reconcile with the daemon's own counters: every reply this daemon
    // sent before the closing `Metrics` is one processed command.
    let served = tcp.accepted + reader_out.accepted;
    let after = fetch_metrics(&mut tcp, &mut report.tally);
    report.tally.record(after.commands_processed == served, || {
        format!(
            "daemon counted {} processed commands, the clients got {served} replies",
            after.commands_processed
        )
    });
    report.metrics = (before, after);
    report.busy_retries = tcp.busy_retries + reader_out.busy_retries;
    report.rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
    if options.fetch_attrib {
        match http_get(daemon.metrics_addr, "/attrib") {
            Ok(body) => {
                report.tally.record(true, String::new);
                report.attrib = Some(body);
            }
            Err(e) => report.tally.record(false, || e),
        }
    }

    if options.restarts > 0 {
        // A durable workload is crashed in `crashes` states, each restarted
        // `restarts / crashes` times, carrying on with the last recovered
        // daemon: one state's recovery time depends on how much it holds,
        // so the median over several follows the workload, not one state.
        // Each crash comes a fixed distance past a checkpoint, so every
        // recovery replays the same journal tail.  A journal-less daemon
        // restarts empty, all `restarts` times after one kill.
        let crashes = if spec.journal {
            options.crashes.max(1)
        } else {
            1
        };
        let mut pending = VecDeque::new();
        let mut live = Some((daemon, tcp));
        for crash in 0..crashes {
            let Some((daemon, mut tcp)) = live.take() else {
                break;
            };
            if spec.journal {
                // A fresh daemon checkpoints at multiples of COMPACT_EVERY
                // journaled commands; a recovered one COMPACT_EVERY
                // commands after its recovery.
                let at = client.journaled;
                let target = if crash == 0 {
                    at + (CRASH_TAIL + COMPACT_EVERY - at % COMPACT_EVERY) % COMPACT_EVERY
                } else {
                    at + COMPACT_EVERY + CRASH_TAIL
                };
                run_on(&mut stream, &mut pending, &mut client, &mut tcp, target);
            }
            drop(tcp);
            daemon.kill9();
            let last = crash + 1 == crashes;
            live = restart(
                spec,
                &launch,
                options.restarts / crashes,
                !last,
                &mut client,
                &mut report,
                &mut probe,
            )?;
        }
    } else {
        drop(tcp);
        daemon.kill9();
    }
    probe.sample();
    report.pace = probe.pace();
    report.steal = pace::steal_share(ticks, pace::cpu_ticks());
    report.pace_parts = probe.medians();
    report.pace_samples = probe.samples();
    report.tally.merge(client.tally);
    if let Some(dir) = &launch.journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(report)
}

/// Replays the stream until the client has journaled `target` commands;
/// the rest of an interrupted round waits in `pending` for the next call.
fn run_on(
    stream: &mut Stream,
    pending: &mut VecDeque<Step>,
    client: &mut Client,
    tcp: &mut Tcp,
    target: u64,
) {
    while client.journaled < target && !client.transport_failed {
        match pending.pop_front() {
            Some(step) => {
                client.execute(tcp, &step);
            }
            None => pending.extend(steps(stream.next_round().1)),
        }
    }
}

/// Restarts after the `kill -9`, timing each to its first `Status`.  With
/// `keep`, the last restarted daemon is returned to carry on; otherwise the
/// last restart of a durable workload is verified against the twin.
fn restart(
    spec: &WorkloadSpec,
    launch: &Launch,
    restarts: usize,
    keep: bool,
    client: &mut Client,
    report: &mut TcpReport,
    probe: &mut Probe,
) -> Result<Option<(Daemon, Tcp)>, String> {
    let mut tally = Tally::default();
    let mut kept = None;
    for i in 0..restarts {
        probe.sample();
        let started = Instant::now();
        let daemon = launch.spawn(true)?;
        let status =
            Tcp::connect(daemon.addr).and_then(|mut tcp| match tcp.call(Command::Status) {
                Ok(Response::Status(status)) => Ok((tcp, status)),
                other => Err(format!("restarted daemon answered Status with {other:?}")),
            });
        report.recovery_s.push(started.elapsed().as_secs_f64());
        let (tcp, status) = match status {
            Ok(ok) => ok,
            Err(e) => {
                tally.record(false, || e);
                continue;
            }
        };
        let expected_tenants = if spec.journal {
            client.live_tenants().len()
        } else {
            0
        };
        tally.record(status.tenants == expected_tenants, || {
            format!(
                "restart {i} serves {} tenants, expected {expected_tenants}",
                status.tenants
            )
        });
        if i + 1 == restarts {
            if keep {
                kept = Some((daemon, tcp));
                break;
            }
            if spec.journal {
                verify_recovery(spec, tcp, client, &mut tally);
            }
        }
        daemon.kill9();
    }
    report.tally.merge(tally);
    Ok(kept)
}

/// Checks a recovered daemon: its next allocation matches an uninterrupted
/// in-process twin fed the same commands, and every pre-crash tenant
/// handle still resolves.
fn verify_recovery(spec: &WorkloadSpec, mut tcp: Tcp, client: &mut Client, tally: &mut Tally) {
    let started = Instant::now();
    let mut twin = coordinator(spec);
    for command in client.recorded.take().unwrap_or_default() {
        twin.apply(command, 0);
    }
    let expected = twin.apply(Command::Tick, 0);
    eprintln!(
        "oefbench: twin replay took {:.2}s",
        started.elapsed().as_secs_f64()
    );
    let got = tcp.call(Command::Tick);
    let matched = match (&expected, &got) {
        (Response::RoundCompleted(want), Ok(Response::RoundCompleted(have))) => {
            same_allocation(want, have)
        }
        _ => Err(format!("twin Tick {expected:?} vs recovered {got:?}")),
    };
    let failed = matched.err();
    tally.record(failed.is_none(), || failed.unwrap_or_default());
    for handle in client.live_tenants() {
        let speedup = client.speedup(handle).unwrap_or_default().to_vec();
        let resolved = tcp.call(Command::UpdateSpeedups {
            tenant: handle,
            speedup,
        });
        tally.record(
            matches!(resolved, Ok(Response::SpeedupsUpdated { .. })),
            || {
                format!(
                    "pre-crash handle {} does not resolve: {resolved:?}",
                    sharded::format(handle)
                )
            },
        );
    }
}

/// Same tenants with the same `gpu_shares` to [`EPSILON`].
pub fn same_allocation(want: &RoundSummary, have: &RoundSummary) -> Result<(), String> {
    if want.round != have.round || want.tenants.len() != have.tenants.len() {
        return Err(format!(
            "round {} with {} tenants, expected round {} with {}",
            have.round,
            have.tenants.len(),
            want.round,
            want.tenants.len()
        ));
    }
    for (w, h) in want.tenants.iter().zip(&have.tenants) {
        let close = w.tenant == h.tenant
            && w.gpu_shares.len() == h.gpu_shares.len()
            && w.gpu_shares
                .iter()
                .zip(&h.gpu_shares)
                .all(|(a, b)| (a - b).abs() <= EPSILON * a.abs().max(1.0));
        if !close {
            return Err(format!(
                "tenant {} got {:?}, expected {:?}",
                sharded::format(h.tenant),
                h.gpu_shares,
                w.gpu_shares
            ));
        }
    }
    Ok(())
}

/// Where per-run scratch files live.
pub fn run_dir(root: &Path, workload: &str, seed: u64) -> PathBuf {
    root.join(format!("run-{workload}-{seed}-{}", std::process::id()))
}
