//! Replays a workload stream through any transport and checks every reply.
//!
//! [`Client`] is the benchmark's side of the wire: it maps the stream's
//! tenant and host names to the handles the daemon mints, tracks what it told the
//! daemon (every tenant's speedup profile, every shard's per-type capacity
//! from its own `AddHost`/`RemoveHost` calls) and checks each reply against
//! that record:
//!
//! * every reply is the variant its command expects;
//! * every `Tick` reply fits each shard's per-type capacity;
//! * every tenant a shard lists gets the same normalised throughput
//!   `Σⱼ xₗⱼ·sₗⱼ` (program (9), constraint (9c)) to [`EPSILON`] relative,
//!   valued with the profile the client sent.
//!
//! A failed check counts as a failed operation; no check is ever skipped.

use crate::stream::{WorkloadSpec, HOST_GPUS};
use oef_cluster::ClusterTopology;
use oef_core::sharded;
use oef_service::{Command, Response, RoundSummary};
use oef_workloads::{ChurnEvent, ChurnEventKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Relative tolerance of every allocation check.
pub const EPSILON: f64 = 1e-6;

/// Command classes the benchmark reports latencies for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `Tick`.
    Tick,
    /// State-changing commands other than `Tick`.
    Mutate,
    /// `Status` and `Metrics`.
    Read,
}

impl Class {
    /// Class of a command.
    pub fn of(command: &Command) -> Class {
        match command {
            Command::Tick => Class::Tick,
            Command::Status | Command::Metrics | Command::Snapshot => Class::Read,
            _ => Class::Mutate,
        }
    }

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Tick => "tick",
            Class::Mutate => "mutate",
            Class::Read => "read",
        }
    }
}

/// A way to send one command and receive its response.
pub trait Transport {
    /// Sends `command`; service-level refusals come back as
    /// [`Response::Error`], transport failures as `Err`.
    fn call(&mut self, command: Command) -> Result<Response, String>;
}

/// One step of a round: an event of the stream or the closing `Tick`.
#[derive(Debug, Clone)]
pub enum Step {
    /// A stream event.
    Event(ChurnEvent),
    /// The round's `Tick`.
    Tick,
}

/// Expands a round's events into its steps: the events, then the `Tick`.
pub fn steps(events: Vec<ChurnEvent>) -> Vec<Step> {
    let mut steps: Vec<Step> = events.into_iter().map(Step::Event).collect();
    steps.push(Step::Tick);
    steps
}

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (commands, scrapes, restarts, checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first failure messages, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one attempted operation and whether it succeeded.
    pub fn record(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(m);
            }
        }
    }
}

/// What one executed step produced.
#[derive(Debug)]
pub struct Executed {
    /// The command's class.
    pub class: Class,
    /// Round trip as the client timed it.
    pub elapsed: Duration,
    /// The `Tick` reply, when the step was a successful tick.
    pub round: Option<RoundSummary>,
}

#[derive(Debug, Clone)]
struct HostRecord {
    handle: u64,
    shard: usize,
    gpu_type: usize,
    gpus: usize,
}

/// The client: handle maps, the record of what it told the daemon, checks.
#[derive(Debug)]
pub struct Client {
    tenants: HashMap<String, u64>,
    speedups: HashMap<u64, Vec<f64>>,
    hosts: HashMap<String, HostRecord>,
    capacity: Vec<Vec<f64>>,
    gpu_type_names: Vec<String>,
    /// Operations and check outcomes so far.
    pub tally: Tally,
    /// Commands that reached the daemon's journal (every command except
    /// reads), counted for the crash point of the durable workload.
    pub journaled: u64,
    /// Every mutating command sent, in order, when recording for a twin.
    pub recorded: Option<Vec<Command>>,
    /// Set once a command could not be exchanged at all: the daemon is gone
    /// or wedged, and the run should stop rather than time out command by
    /// command.
    pub transport_failed: bool,
}

impl Client {
    /// A fresh client for a daemon of `spec`'s shape (every shard starts
    /// with the paper's 24-GPU topology).
    pub fn new(spec: &WorkloadSpec) -> Self {
        let base = ClusterTopology::paper_cluster();
        let per_shard: Vec<f64> = base.capacities().iter().map(|&c| c as f64).collect();
        Client {
            tenants: HashMap::new(),
            speedups: HashMap::new(),
            hosts: HashMap::new(),
            capacity: vec![per_shard; spec.shards],
            gpu_type_names: base.gpu_type_names().to_vec(),
            tally: Tally::default(),
            journaled: 0,
            recorded: None,
            transport_failed: false,
        }
    }

    /// Per-type capacity of `shard` as the client tracks it.
    pub fn capacity(&self, shard: usize) -> &[f64] {
        &self.capacity[shard]
    }

    /// GPU type names of the topology, slowest first.
    pub fn gpu_type_names(&self) -> &[String] {
        &self.gpu_type_names
    }

    /// The profile the client last sent for tenant `handle`.
    pub fn speedup(&self, handle: u64) -> Option<&[f64]> {
        self.speedups.get(&handle).map(Vec::as_slice)
    }

    /// Handles of every tenant the client believes is registered.
    pub fn live_tenants(&self) -> Vec<u64> {
        let mut handles: Vec<u64> = self.tenants.values().copied().collect();
        handles.sort_unstable();
        handles
    }

    /// Steps of the set-up hosts: `per_type` hosts of each GPU type per
    /// shard, added before the first join.
    pub fn setup_host_steps(&self, spec: &WorkloadSpec) -> Vec<Step> {
        let mut steps = Vec::new();
        for _ in 0..spec.shards * spec.setup_hosts_per_type {
            for gpu_type in 0..self.gpu_type_names.len() {
                steps.push(Step::Event(ChurnEvent {
                    round: 0,
                    subject: format!("setup-host-{}", steps.len()),
                    kind: ChurnEventKind::AddHost {
                        gpu_type,
                        num_gpus: HOST_GPUS,
                    },
                }));
            }
        }
        steps
    }

    fn command_for(&self, step: &Step) -> Result<Command, String> {
        let event = match step {
            Step::Tick => return Ok(Command::Tick),
            Step::Event(event) => event,
        };
        let tenant = |name: &str, tenants: &HashMap<String, u64>| {
            tenants
                .get(name)
                .copied()
                .ok_or_else(|| format!("stream names unknown tenant {name}"))
        };
        Ok(match &event.kind {
            ChurnEventKind::Join { weight, speedup } => Command::TenantJoin {
                name: event.subject.clone(),
                weight: *weight,
                speedup: speedup.clone(),
            },
            ChurnEventKind::Leave => Command::TenantLeave {
                tenant: tenant(&event.subject, &self.tenants)?,
            },
            ChurnEventKind::UpdateSpeedups { speedup } => Command::UpdateSpeedups {
                tenant: tenant(&event.subject, &self.tenants)?,
                speedup: speedup.clone(),
            },
            ChurnEventKind::SubmitJob(job) => Command::SubmitJob {
                tenant: tenant(&event.subject, &self.tenants)?,
                model: job.model.clone(),
                workers: job.workers,
                total_work: job.total_work,
            },
            ChurnEventKind::AddHost { gpu_type, num_gpus } => Command::AddHost {
                gpu_type: *gpu_type,
                num_gpus: *num_gpus,
            },
            ChurnEventKind::RemoveHost => Command::RemoveHost {
                handle: self
                    .hosts
                    .get(&event.subject)
                    .map(|h| h.handle)
                    .ok_or_else(|| format!("stream removes unknown host {}", event.subject))?,
            },
        })
    }

    /// Sends one step through `transport`, checks the reply and updates the
    /// client's record.  Every outcome lands in [`Client::tally`]; `None`
    /// when nothing could be sent.
    pub fn execute(&mut self, transport: &mut dyn Transport, step: &Step) -> Option<Executed> {
        let command = match self.command_for(step) {
            Ok(_) if self.transport_failed => Err("not sent: the daemon stopped answering".into()),
            other => other,
        };
        let command = match command {
            Ok(command) => command,
            Err(message) => {
                self.tally.record(false, || message);
                return None;
            }
        };
        let class = Class::of(&command);
        if class != Class::Read {
            self.journaled += 1;
            if let Some(recorded) = &mut self.recorded {
                recorded.push(command.clone());
            }
        }
        let started = Instant::now();
        let outcome = transport.call(command);
        let elapsed = started.elapsed();
        let mut round = None;
        let result = match outcome {
            Err(e) => {
                self.transport_failed = true;
                Err(format!("transport failed: {e}"))
            }
            Ok(response) => self.absorb(step, response, &mut round),
        };
        let failed = result.err();
        self.tally
            .record(failed.is_none(), || failed.unwrap_or_default());
        Some(Executed {
            class,
            elapsed,
            round,
        })
    }

    /// Checks a response against its step and records its effects.
    fn absorb(
        &mut self,
        step: &Step,
        response: Response,
        round: &mut Option<RoundSummary>,
    ) -> Result<(), String> {
        if let Response::Error { code, message } = &response {
            return Err(format!("{step:?} refused ({code}): {message}"));
        }
        let event = match step {
            Step::Tick => {
                let Response::RoundCompleted(summary) = response else {
                    return Err(format!("Tick answered {response:?}"));
                };
                let checked = self.check_round(&summary);
                *round = Some(summary);
                return checked;
            }
            Step::Event(event) => event,
        };
        match (&event.kind, response) {
            (ChurnEventKind::Join { speedup, .. }, Response::TenantJoined { tenant }) => {
                self.tenants.insert(event.subject.clone(), tenant);
                self.speedups.insert(tenant, speedup.clone());
            }
            (ChurnEventKind::Leave, Response::TenantLeft { .. }) => {
                if let Some(handle) = self.tenants.remove(&event.subject) {
                    self.speedups.remove(&handle);
                }
            }
            (ChurnEventKind::UpdateSpeedups { speedup }, Response::SpeedupsUpdated { .. }) => {
                let handle = self.tenants[&event.subject];
                self.speedups.insert(handle, speedup.clone());
            }
            (ChurnEventKind::SubmitJob(_), Response::JobSubmitted { .. }) => {}
            (ChurnEventKind::AddHost { gpu_type, num_gpus }, Response::HostAdded { host }) => {
                let shard = sharded::shard_of(host);
                if shard >= self.capacity.len() || *gpu_type >= self.capacity[shard].len() {
                    return Err(format!("AddHost minted handle {host:#x} on no known shard"));
                }
                self.capacity[shard][*gpu_type] += *num_gpus as f64;
                self.hosts.insert(
                    event.subject.clone(),
                    HostRecord {
                        handle: host,
                        shard,
                        gpu_type: *gpu_type,
                        gpus: *num_gpus,
                    },
                );
            }
            (ChurnEventKind::RemoveHost, Response::HostRemoved { .. }) => {
                if let Some(host) = self.hosts.remove(&event.subject) {
                    self.capacity[host.shard][host.gpu_type] -= host.gpus as f64;
                }
            }
            (kind, response) => {
                return Err(format!("{kind:?} answered with {response:?}"));
            }
        }
        Ok(())
    }

    /// Capacity and equal-throughput checks of one `Tick` reply, per shard.
    pub fn check_round(&self, summary: &RoundSummary) -> Result<(), String> {
        let k = self.gpu_type_names.len();
        let mut used = vec![vec![0.0; k]; self.capacity.len()];
        let mut throughput: Vec<Vec<f64>> = vec![Vec::new(); self.capacity.len()];
        for tenant in &summary.tenants {
            let shard = sharded::shard_of(tenant.tenant);
            let Some(speedup) = self.speedups.get(&tenant.tenant) else {
                return Err(format!(
                    "round {} lists tenant {} the client never registered",
                    summary.round,
                    sharded::format(tenant.tenant)
                ));
            };
            if shard >= used.len() || tenant.gpu_shares.len() != k {
                return Err(format!(
                    "round {} lists tenant {} with {} shares",
                    summary.round,
                    sharded::format(tenant.tenant),
                    tenant.gpu_shares.len()
                ));
            }
            let mut thr = 0.0;
            for j in 0..k {
                used[shard][j] += tenant.gpu_shares[j];
                thr += tenant.gpu_shares[j] * speedup[j];
            }
            throughput[shard].push(thr);
        }
        for (shard, per_type) in used.iter().enumerate() {
            for (j, &u) in per_type.iter().enumerate() {
                let cap = self.capacity[shard][j];
                if u > cap + EPSILON * cap.max(1.0) {
                    return Err(format!(
                        "round {}: shard {shard} allocates {u} of GPU type {j}, capacity {cap}",
                        summary.round
                    ));
                }
            }
        }
        for (shard, thr) in throughput.iter().enumerate() {
            let (lo, hi) = thr
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
                    (lo.min(t), hi.max(t))
                });
            if !thr.is_empty() && hi - lo > EPSILON * hi.abs().max(1e-12) {
                return Err(format!(
                    "round {}: shard {shard} normalised throughputs spread over [{lo}, {hi}]",
                    summary.round
                ));
            }
        }
        Ok(())
    }
}

/// Σ over tenants of `actual_throughput` — the paper's efficiency
/// objective for one round.
pub fn cluster_throughput(summary: &RoundSummary) -> f64 {
    summary.tenants.iter().map(|t| t.actual_throughput).sum()
}
