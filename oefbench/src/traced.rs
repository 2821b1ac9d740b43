//! The traced run: the same command stream driven in-process through each
//! layer's public entry points, with a span around every call.
//!
//! Per command, in the order the daemon does the same work:
//!
//! | span             | layer entry point                                    |
//! |------------------|------------------------------------------------------|
//! | `request_encode` | `serde_json::to_string(&Request)` (client side)      |
//! | `request_decode` | `serde_json::from_str::<Request>` (server side)      |
//! | `journal_append` | `oef_journal::Journal::append` (durable workload)    |
//! | `journal_sync`   | `Journal::sync`, every 64th append                   |
//! | `apply`          | `ShardCoordinator::apply` / `SchedulerService::apply`|
//! | `checkpoint`     | sync + `snapshot_json` + atomic write + compact      |
//! | `reply_encode`   | `serde_json::to_string(&Reply)` (server side)        |
//! | `reply_decode`   | `serde_json::from_str::<Reply>` (client side)        |
//!
//! under one root per command id, named by the command's class (`tick`,
//! `mutate` or `read`).  Outside the command path the
//! run also times `lp_solve` (the benchmark's own `AllocationPolicy::allocate`
//! on each shard's inputs as the `Tick` reply lists them, whose result must
//! match the reply), `snapshot_restore` (`ShardCoordinator::from_federated_json`
//! on each checkpoint), and the observability reads `scrape`
//! (`Registry::render`) and `attrib` (`AttributionRegistry::to_json`).
//!
//! No tracing runs inside the program: every span is opened and closed by
//! this file.

use crate::client::{steps, Class, Client, Tally, Transport, EPSILON};
use crate::stats::Spans;
use crate::stream::{Stream, WorkloadSpec, COMPACT_EVERY, FSYNC_EVERY, WARMUP_ROUNDS};
use crate::tcp::{coordinator, service_config};
use oef_attrib::AttributionRegistry;
use oef_cluster::ClusterTopology;
use oef_core::{sharded, AllocationPolicy, ClusterSpec, NonCooperativeOef, SpeedupMatrix};
use oef_journal::{Journal, JournalConfig, PendingFile};
use oef_obs::Registry;
use oef_service::{
    Command, CommandHandler, Reply, Request, Response, RoundSummary, SchedulerService,
};
use oef_shard::{JournalOptions, ShardCoordinator};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Tenant series the attribution family exposes, as the daemon sets it.
const ATTRIB_TOP_K: usize = 10;
/// Every this many in-process reads also renders `/metrics` and `/attrib`.
const OBS_EVERY: u64 = 5;

/// The command core the workload's daemon serves.
enum Core {
    /// `--shards 1` without a journal: the unsharded service.
    Service(Box<SchedulerService>),
    /// A federation (journaled daemons always serve one).
    Federation(Box<ShardCoordinator>),
}

impl Core {
    fn apply(&mut self, command: Command) -> Response {
        match self {
            Core::Service(s) => s.apply(command, 0),
            Core::Federation(c) => c.apply(command, 0),
        }
    }
}

/// The journal and checkpoint layer, driven the way the daemon's
/// `Journaled` wrapper drives it.
struct JournalLayer {
    journal: Journal,
    snapshot_path: PathBuf,
    appends: u64,
    since_compact: u64,
}

/// What the traced run measured besides its spans.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Class of every command id.
    pub classes: HashMap<u64, Class>,
    /// Request line sizes (bytes).
    pub request_bytes: Vec<f64>,
    /// Tick reply line sizes (bytes).
    pub tick_reply_bytes: Vec<f64>,
    /// Per tick: (apply ms, solver ms the reply reports).
    pub tick_split: Vec<(f64, f64)>,
    /// Checkpoint snapshot sizes (bytes).
    pub snapshot_bytes: Vec<f64>,
    /// `/metrics` body sizes (bytes).
    pub scrape_bytes: Vec<f64>,
    /// Per tick: (slowest replica solve ms, solver ms the reply reports).
    pub solve_vs_reply: Vec<(f64, f64)>,
    /// Operations and check failures.
    pub tally: Tally,
}

/// The in-process transport: codec, journal and core, each inside a span.
struct InProcess<'s> {
    core: Core,
    journal: Option<JournalLayer>,
    spans: &'s mut Spans,
    next_id: u64,
    /// The id of the last command sent.
    last_id: u64,
    registry: Registry,
    cost: AttributionRegistry,
    out: TracedPass,
}

impl<'s> InProcess<'s> {
    /// The core of `spec`'s daemon, wired for observability the way
    /// `oef-serviced --metrics-addr` wires it.
    fn new(spec: &WorkloadSpec, workdir: &Path, spans: &'s mut Spans) -> Result<Self, String> {
        let registry = Registry::new();
        let cost = AttributionRegistry::new();
        cost.attach(&registry, ATTRIB_TOP_K);
        let mut core = if spec.shards == 1 && !spec.journal {
            Core::Service(Box::new(
                SchedulerService::new(ClusterTopology::paper_cluster(), service_config(spec))
                    .map_err(|e| e.to_string())?,
            ))
        } else {
            Core::Federation(Box::new(coordinator(spec)))
        };
        match &mut core {
            Core::Service(s) => {
                CommandHandler::attach_observability(s.as_mut(), &registry);
                CommandHandler::attach_attribution(s.as_mut(), &cost);
            }
            Core::Federation(c) => {
                c.attach_observability(&registry);
                c.attach_attribution(&cost);
            }
        }
        let journal = if spec.journal {
            let dir = workdir.join("traced-journal");
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            // Group commit by hand (fsync_every 0 + an explicit sync every
            // FSYNC_EVERY appends) so the sync gets a span of its own.
            let journal = Journal::create(
                &dir,
                JournalConfig {
                    lanes: spec.shards as u32,
                    fsync_every: 0,
                    segment_records: JournalOptions::default().segment_records,
                },
            )
            .map_err(|e| format!("cannot create journal: {e}"))?;
            Some(JournalLayer {
                journal,
                snapshot_path: dir.join("snapshot.json"),
                appends: 0,
                since_compact: 0,
            })
        } else {
            None
        };
        Ok(InProcess {
            core,
            journal,
            spans,
            next_id: 1,
            last_id: 0,
            registry,
            cost,
            out: TracedPass::default(),
        })
    }

    /// Renders `/metrics` and `/attrib` bodies, each inside a span.
    fn observe(&mut self) {
        let id = self.last_id;
        let body = self
            .spans
            .time("scrape", id, None, || self.registry.render());
        self.out.scrape_bytes.push(body.len() as f64);
        let attrib = self.spans.time("attrib", id, None, || self.cost.to_json());
        self.out.tally.record(
            body.contains("oef_commands_processed_total") && attrib.starts_with('{'),
            || "in-process /metrics or /attrib body is malformed".to_string(),
        );
    }

    /// Checkpoints once more, as a clean shutdown does, so every durable
    /// traced run has at least one snapshot sample.
    fn shutdown_checkpoint(&mut self) {
        if self.journal.is_some() {
            let id = self.last_id;
            self.checkpoint(id, None);
        }
    }

    fn checkpoint(&mut self, id: u64, parent: Option<usize>) {
        let Core::Federation(coordinator) = &mut self.core else {
            return;
        };
        let Some(layer) = &mut self.journal else {
            return;
        };
        let span = self.spans.begin("checkpoint", id, parent);
        layer.since_compact = 0;
        let synced = self
            .spans
            .time("journal_sync", id, Some(span), || layer.journal.sync());
        let snapshot = self.spans.time("snapshot_take", id, Some(span), || {
            coordinator.snapshot_json()
        });
        let written = match &snapshot {
            Ok(json) => {
                self.out.snapshot_bytes.push(json.len() as f64);
                self.spans.time("snapshot_write", id, Some(span), || {
                    PendingFile::begin(&layer.snapshot_path).and_then(|mut pending| {
                        pending.write_all(json.as_bytes())?;
                        pending.commit()
                    })
                })
            }
            Err(e) => Err(std::io::Error::other(e.clone())),
        };
        let compacted = layer.journal.compact(coordinator.journal_seq());
        self.spans.end(span);
        self.out.tally.record(
            synced.is_ok() && written.is_ok() && compacted.is_ok(),
            || format!("checkpoint failed: {synced:?} {written:?} {compacted:?}"),
        );
        if let Ok(json) = snapshot {
            let restored = self.spans.time("snapshot_restore", id, None, || {
                ShardCoordinator::from_federated_json(&json)
            });
            self.out.tally.record(restored.is_ok(), || {
                format!("checkpoint does not restore: {:?}", restored.err())
            });
        }
    }
}

impl Transport for InProcess<'_> {
    fn call(&mut self, command: Command) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        self.last_id = id;
        let class = Class::of(&command);
        self.out.classes.insert(id, class);
        let root = self.spans.begin(class.name(), id, None);

        let request = Request::new(id, command);
        let line = self
            .spans
            .time("request_encode", id, Some(root), || {
                serde_json::to_string(&request)
            })
            .map_err(|e| e.to_string())?;
        self.out.request_bytes.push(line.len() as f64 + 1.0);
        let request: Request = self
            .spans
            .time("request_decode", id, Some(root), || {
                serde_json::from_str(&line)
            })
            .map_err(|e| e.to_string())?;
        let command = request.command;

        let mut seq = None;
        if class != Class::Read {
            if let Some(layer) = &mut self.journal {
                let payload = serde_json::to_string(&command).map_err(|e| e.to_string())?;
                let lane = lane_of(&command);
                let appended = self.spans.time("journal_append", id, Some(root), || {
                    layer.journal.append(lane, payload.as_bytes())
                });
                let appended = appended.map_err(|e| format!("journal append failed: {e}"))?;
                seq = Some(appended);
                layer.appends += 1;
                if layer.appends % FSYNC_EVERY == 0 {
                    self.spans
                        .time("journal_sync", id, Some(root), || layer.journal.sync())
                        .map_err(|e| format!("journal sync failed: {e}"))?;
                }
            }
        }

        let apply = self.spans.begin("apply", id, Some(root));
        let response = self.core.apply(command);
        self.spans.end(apply);
        let apply_ms = self.spans.all()[apply].duration_ns() as f64 / 1e6;
        if let Response::RoundCompleted(summary) = &response {
            self.out
                .tick_split
                .push((apply_ms, summary.solver_time_secs * 1e3));
        }

        if let (Some(seq), Core::Federation(c)) = (seq, &mut self.core) {
            c.set_journal_seq(seq);
            let due = self.journal.as_mut().is_some_and(|layer| {
                layer.since_compact += 1;
                layer.since_compact >= COMPACT_EVERY
            });
            if due {
                self.checkpoint(id, Some(root));
            }
        }

        let reply = Reply::new(id, response);
        let line = self
            .spans
            .time("reply_encode", id, Some(root), || {
                serde_json::to_string(&reply)
            })
            .map_err(|e| e.to_string())?;
        if class == Class::Tick {
            self.out.tick_reply_bytes.push(line.len() as f64 + 1.0);
        }
        let reply: Reply = self
            .spans
            .time("reply_decode", id, Some(root), || {
                serde_json::from_str(&line)
            })
            .map_err(|e| e.to_string())?;
        self.spans.end(root);
        if reply.id != id {
            return Err(format!("reply id {} for request {id}", reply.id));
        }
        Ok(reply.response)
    }
}

/// Journal lane of a command, as the daemon routes it: the shard its
/// handle names, lane 0 for commands without one.
fn lane_of(command: &Command) -> u32 {
    let handle = match command {
        Command::TenantLeave { tenant }
        | Command::UpdateSpeedups { tenant, .. }
        | Command::SubmitJob { tenant, .. }
        | Command::JobFinished { tenant, .. }
        | Command::MigrateTenant { tenant, .. } => *tenant,
        Command::RemoveHost { handle } => *handle,
        _ => return 0,
    };
    sharded::shard_of(handle) as u32
}

/// The benchmark's own copy of each shard's policy, fed the inputs each
/// `Tick` reply lists.
struct Replica {
    policies: Vec<NonCooperativeOef>,
    /// Per tick: (slowest replica solve ms, solver ms the reply reports).
    solve_vs_reply: Vec<(f64, f64)>,
}

impl Replica {
    /// One fresh policy per shard.
    fn new(shards: usize) -> Self {
        Replica {
            policies: (0..shards).map(|_| NonCooperativeOef::default()).collect(),
            solve_vs_reply: Vec::new(),
        }
    }

    /// Solves each shard's LP on the reply's inputs inside an `lp_solve`
    /// span and checks the result against the reply's `gpu_shares`.
    ///
    /// # Errors
    ///
    /// The first mismatch or solver failure.
    fn check(
        &mut self,
        client: &Client,
        summary: &RoundSummary,
        spans: &mut Spans,
        command: u64,
    ) -> Result<(), String> {
        let mut slowest = 0.0f64;
        for (shard, policy) in self.policies.iter().enumerate() {
            let listed: Vec<_> = summary
                .tenants
                .iter()
                .filter(|t| sharded::shard_of(t.tenant) == shard)
                .collect();
            if listed.is_empty() {
                continue;
            }
            let cluster = ClusterSpec::new(
                client
                    .gpu_type_names()
                    .iter()
                    .cloned()
                    .zip(client.capacity(shard).iter().copied())
                    .collect(),
            )
            .map_err(|e| e.to_string())?;
            let rows = listed
                .iter()
                .map(|t| {
                    client
                        .speedup(t.tenant)
                        .map(<[f64]>::to_vec)
                        .ok_or_else(|| format!("unknown tenant {}", sharded::format(t.tenant)))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let speedups = SpeedupMatrix::from_rows(rows).map_err(|e| e.to_string())?;
            let span = spans.begin("lp_solve", command, None);
            let allocation = policy.allocate(&cluster, &speedups);
            spans.end(span);
            slowest = slowest.max(spans.all()[span].duration_ns() as f64 / 1e6);
            let allocation = allocation.map_err(|e| format!("replica solve failed: {e}"))?;
            for (i, tenant) in listed.iter().enumerate() {
                let row = allocation.user_row(i);
                let close = row.len() == tenant.gpu_shares.len()
                    && row
                        .iter()
                        .zip(&tenant.gpu_shares)
                        .all(|(a, b)| (a - b).abs() <= EPSILON * a.abs().max(1.0));
                if !close {
                    return Err(format!(
                        "round {}: replica gives tenant {} {row:?}, the reply {:?}",
                        summary.round,
                        sharded::format(tenant.tenant),
                        tenant.gpu_shares
                    ));
                }
            }
        }
        if slowest > 0.0 {
            self.solve_vs_reply
                .push((slowest, summary.solver_time_secs * 1e3));
        }
        Ok(())
    }
}

/// Replays set-up plus `rounds` measured rounds of the stream in-process,
/// interleaving `reads_per_step` reads per writer command as the TCP
/// run's reader did.
///
/// # Errors
///
/// Only when the core cannot be built.
pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    rounds: usize,
    reads_per_step: f64,
    workdir: &Path,
    spans: &mut Spans,
) -> Result<TracedPass, String> {
    let mut transport = InProcess::new(spec, workdir, spans)?;
    let mut client = Client::new(spec);
    let mut replica = Replica::new(spec.shards);
    let mut stream = Stream::new(spec, seed);
    let mut reads_due = 0.0f64;
    let mut reads = 0u64;

    let setup = client.setup_host_steps(spec);
    for step in &setup {
        client.execute(&mut transport, step);
    }
    for round in 0..WARMUP_ROUNDS + rounds {
        let (_, events) = stream.next_round();
        for step in steps(events) {
            let executed = client.execute(&mut transport, &step);
            if let Some(summary) = executed.as_ref().and_then(|e| e.round.as_ref()) {
                let id = transport.last_id;
                let checked = replica.check(&client, summary, transport.spans, id);
                client
                    .tally
                    .record(checked.is_ok(), || checked.err().unwrap_or_default());
            }
            if round < WARMUP_ROUNDS {
                continue;
            }
            reads_due += reads_per_step;
            while reads_due >= 1.0 {
                reads_due -= 1.0;
                // Reads go straight to the transport: they are not stream
                // events and the client has no record to update.
                let command = if reads.is_multiple_of(2) {
                    Command::Status
                } else {
                    Command::Metrics
                };
                let want_status = matches!(command, Command::Status);
                let response = transport.call(command);
                let ok = matches!(
                    (&response, want_status),
                    (Ok(Response::Status(_)), true) | (Ok(Response::Metrics(_)), false)
                );
                client
                    .tally
                    .record(ok, || format!("in-process read answered {response:?}"));
                reads += 1;
                if reads.is_multiple_of(OBS_EVERY) {
                    transport.observe();
                }
            }
        }
    }
    transport.shutdown_checkpoint();
    let mut out = transport.out;
    out.solve_vs_reply = replica.solve_vs_reply;
    out.tally.merge(client.tally);
    Ok(out)
}
