//! The benchmark workloads and their seeded command streams.
//!
//! Every stream comes from [`PhillyTraceGenerator`] → [`ChurnTrace`]: the
//! generator draws tenants (model mix, speedup profiles, job sizes, arrival
//! processes), the churn derivation turns them into joins, submissions,
//! re-profiles, leaves and host churn.  On top of that, this module only
//! decides *when* each tenant lives, so that a workload keeps a steady
//! population for as many rounds as a run consumes:
//!
//! * An **initial cohort** of `population` tenants joins at round 0 and
//!   submits its first jobs at round 1; rounds `0..WARMUP_ROUNDS` are the
//!   set-up phase (the join ramp and its cold solves).
//! * **Churning** workloads then receive fresh tenants in chunks of
//!   [`CHUNK_ROUNDS`] rounds at the rate that keeps the population level
//!   (`population / lifetime` per round), and the initial cohort's lifetimes
//!   are stretched at random so its leaves spread out instead of arriving
//!   together.
//! * **Resident** workloads keep the initial cohort forever; each chunk
//!   draws a fresh trace for the same tenants and takes only its job
//!   submissions and re-profiles, so the LP sees data changes but never a
//!   shape change.
//!
//! Chunks are generated lazily, so a stream never runs out however fast the
//! daemon serves it.  Everything is a pure function of the seed.

use oef_workloads::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace, PhillyTraceGenerator, Trace, TraceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Seconds of simulated time per scheduling round (the daemon's default).
pub const ROUND_SECS: f64 = 300.0;
/// Rounds of the set-up phase: joins at round 0, first jobs and the cold
/// solve at round 1, a warm solve at round 2.
pub const WARMUP_ROUNDS: usize = 3;
/// Rounds covered by one lazily generated chunk of arrivals.
pub const CHUNK_ROUNDS: usize = 50;
/// Every tenant re-reports its profile this often (rounds).
pub const REPROFILE_EVERY: usize = 24;
/// Rounds a churning tenant stays after its last job arrives.
const LINGER_ROUNDS: usize = WARMUP_ROUNDS + 1;
/// Devices on every host the benchmark adds.
pub const HOST_GPUS: usize = 4;
/// Rounds a churned host stays before it is removed.
const HOST_LINGER_ROUNDS: usize = 20;
/// Work budget relative to the cluster: heavily over-subscribed, so jobs
/// rarely finish and a tenant stays schedulable from its first job to its
/// leave.
const CONTENTION: f64 = 60.0;

/// How a workload's tenant population evolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// Tenants join in set-up and never leave.
    Resident,
    /// Tenants arrive and leave throughout; each lives about this many
    /// rounds.
    Churning {
        /// Mean tenant lifetime in rounds.
        lifetime_rounds: usize,
    },
}

/// One named benchmark workload: daemon shape plus stream parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name used on the command line.
    pub name: &'static str,
    /// Scheduler shards (`--shards`).
    pub shards: usize,
    /// Whether the daemon journals (`--journal-dir`, `--fsync-every 256`).
    pub journal: bool,
    /// Admission quota per shard (`--max-tenants`).
    pub max_tenants: usize,
    /// Registered tenants the stream holds steady.
    pub population: usize,
    /// Resident or churning tenants.
    pub dynamics: Population,
    /// Jobs per tenant lifetime (churning) or per chunk (resident).
    pub jobs_per_tenant: usize,
    /// Hosts of each GPU type added per shard during set-up.
    pub setup_hosts_per_type: usize,
    /// A transient host joins every this many rounds (0 = no host churn).
    pub host_churn_every: usize,
}

/// Group-commit batch of the journaled workload (`--fsync-every`).  At 64
/// an fsync came every dozen rounds, and the shared virtual disk's fsync
/// latency (0.4 ms in a calm period, 2.4 ms in a busy one) moved
/// `cmds_per_s` by a fifth between runs of the same code; at 256 it moves
/// it by about a twentieth.
pub const FSYNC_EVERY: u64 = 256;
/// Checkpoint interval of the journaled workload (`--compact-every`), in
/// journaled commands: the daemon's default.
pub const COMPACT_EVERY: u64 = 4096;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "durable-20",
            shards: 1,
            journal: true,
            max_tenants: 64,
            population: 20,
            dynamics: Population::Churning {
                lifetime_rounds: 40,
            },
            jobs_per_tenant: 6,
            setup_hosts_per_type: 1,
            host_churn_every: 30,
        },
        WorkloadSpec {
            name: "steady-500",
            shards: 1,
            journal: false,
            max_tenants: 600,
            population: 500,
            dynamics: Population::Resident,
            jobs_per_tenant: 1,
            setup_hosts_per_type: 2,
            host_churn_every: 0,
        },
        WorkloadSpec {
            name: "churn-1000",
            shards: 2,
            journal: false,
            max_tenants: 1000,
            population: 1000,
            dynamics: Population::Churning {
                lifetime_rounds: 100,
            },
            jobs_per_tenant: 3,
            setup_hosts_per_type: 2,
            host_churn_every: 0,
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// SplitMix64: derives independent sub-seeds from the run seed.
fn mix(seed: u64, chunk: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn philly(tenants: usize, jobs: usize, window_rounds: usize, seed: u64) -> Trace {
    PhillyTraceGenerator::new(TraceConfig {
        num_tenants: tenants,
        jobs_per_tenant: jobs,
        duration_secs: window_rounds as f64 * ROUND_SECS,
        contention: CONTENTION,
        cluster_devices: 24,
        speedup_jitter: 0.05,
        multi_model_fraction: 0.1,
        seed,
    })
    .generate()
}

fn churn_config(linger_rounds: usize, reprofile: bool, host_churn_every: usize) -> ChurnConfig {
    ChurnConfig {
        round_secs: ROUND_SECS,
        linger_rounds,
        reprofile_every_rounds: if reprofile { REPROFILE_EVERY } else { 0 },
        reprofile_jitter: 0.03,
        skew: 0.0,
        host_churn_every_rounds: host_churn_every,
        host_churn_linger_rounds: HOST_LINGER_ROUNDS,
        host_churn_gpus: HOST_GPUS,
    }
}

/// Moves a tenant's job arrivals so the first lands exactly at
/// `first_round` (the tenant then joins one round earlier), scaling the
/// gaps between arrivals by `stretch`.
fn place(trace: &mut Trace, tenant: usize, first_round: usize, stretch: f64) {
    let jobs = &mut trace.tenants[tenant].jobs;
    let Some(first) = jobs.first().map(|j| j.arrival_time) else {
        return;
    };
    for job in jobs.iter_mut() {
        job.arrival_time = first_round as f64 * ROUND_SECS + (job.arrival_time - first) * stretch;
    }
}

/// A workload's command stream, generated chunk by chunk as rounds are
/// consumed.
#[derive(Debug)]
pub struct Stream {
    spec: WorkloadSpec,
    seed: u64,
    pending: BTreeMap<usize, Vec<ChurnEvent>>,
    chunks: usize,
    next_round: usize,
}

impl Stream {
    /// The stream of `spec` for `seed`, positioned at round 0.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let mut stream = Stream {
            spec: spec.clone(),
            seed,
            pending: BTreeMap::new(),
            chunks: 0,
            next_round: 0,
        };
        let cohort = stream.initial_cohort();
        stream.merge(cohort);
        stream
    }

    /// Returns the next round's index and its events, in causal order.
    pub fn next_round(&mut self) -> (usize, Vec<ChurnEvent>) {
        let round = self.next_round;
        if round >= WARMUP_ROUNDS {
            // Chunk c only holds events at or after its first round, so
            // generating it on arrival at that round is early enough.
            let chunk = (round - WARMUP_ROUNDS) / CHUNK_ROUNDS;
            while self.chunks <= chunk {
                let events = self.chunk(self.chunks);
                self.merge(events);
                self.chunks += 1;
            }
        }
        self.next_round += 1;
        (round, self.pending.remove(&round).unwrap_or_default())
    }

    fn merge(&mut self, events: Vec<ChurnEvent>) {
        for event in events {
            self.pending.entry(event.round).or_default().push(event);
        }
    }

    fn lifetime(&self) -> Option<usize> {
        match self.spec.dynamics {
            Population::Resident => None,
            Population::Churning { lifetime_rounds } => {
                Some(lifetime_rounds.max(LINGER_ROUNDS + 2))
            }
        }
    }

    /// Philly arrival window giving a tenant roughly `lifetime` rounds from
    /// join to leave.  A tenant's `J` arrivals land at cumulative
    /// exponential gaps of mean `window / 2J`, so from the first to the
    /// last they span about `(J - 1) / 2J` of the window.
    fn arrival_window(&self, lifetime: usize) -> usize {
        let jobs = self.spec.jobs_per_tenant.max(2);
        2 * (lifetime - LINGER_ROUNDS) * jobs / (jobs - 1)
    }

    fn initial_cohort(&self) -> Vec<ChurnEvent> {
        let spec = &self.spec;
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0, 1));
        match self.lifetime() {
            None => {
                // Drawn over a chunk's window so the first job is as large
                // as the chunks' jobs (work scales with the window).
                let mut trace = philly(spec.population, 1, CHUNK_ROUNDS, mix(self.seed, 0, 0));
                for t in 0..trace.tenants.len() {
                    trace.tenants[t].jobs.truncate(1);
                    place(&mut trace, t, 1, 1.0);
                }
                // Joins and first submissions only: resident tenants never
                // leave, and their re-profiles come with the chunks.
                let churn = ChurnTrace::from_trace(&trace, &churn_config(1, false, 0));
                churn
                    .events
                    .into_iter()
                    .filter(|e| {
                        matches!(
                            e.kind,
                            ChurnEventKind::Join { .. } | ChurnEventKind::SubmitJob(_)
                        )
                    })
                    .map(|e| rename(e, "r"))
                    .collect()
            }
            Some(lifetime) => {
                let mut trace = philly(
                    spec.population,
                    spec.jobs_per_tenant,
                    self.arrival_window(lifetime),
                    mix(self.seed, 0, 0),
                );
                for t in 0..trace.tenants.len() {
                    // Remaining lifetimes spread out, as in a population
                    // that has been churning for a while.
                    let stretch = rng.gen_range(0.05..1.0);
                    place(&mut trace, t, 1, stretch);
                }
                let churn = ChurnTrace::from_trace(&trace, &churn_config(LINGER_ROUNDS, true, 0));
                churn.events.into_iter().map(|e| rename(e, "i")).collect()
            }
        }
    }

    fn chunk(&self, chunk: usize) -> Vec<ChurnEvent> {
        let spec = &self.spec;
        let start = WARMUP_ROUNDS + chunk * CHUNK_ROUNDS;
        let trace_seed = mix(self.seed, chunk as u64 + 1, 0);
        match self.lifetime() {
            None => {
                // The same resident tenants draw a fresh chunk of jobs; only
                // submissions and re-profiles inside the chunk are kept.
                let mut trace = philly(
                    spec.population,
                    spec.jobs_per_tenant,
                    CHUNK_ROUNDS,
                    trace_seed,
                );
                for tenant in &mut trace.tenants {
                    for job in &mut tenant.jobs {
                        job.arrival_time += start as f64 * ROUND_SECS;
                    }
                }
                let churn = ChurnTrace::from_trace(&trace, &churn_config(CHUNK_ROUNDS, true, 0));
                churn
                    .events
                    .into_iter()
                    .filter(|e| {
                        (start..start + CHUNK_ROUNDS).contains(&e.round)
                            && matches!(
                                e.kind,
                                ChurnEventKind::SubmitJob(_)
                                    | ChurnEventKind::UpdateSpeedups { .. }
                            )
                    })
                    .map(|e| rename(e, "r"))
                    .collect()
            }
            Some(lifetime) => {
                let arrivals =
                    ((spec.population * CHUNK_ROUNDS) as f64 / lifetime as f64).round() as usize;
                let mut events = Vec::new();
                if arrivals > 0 {
                    let mut trace = philly(
                        arrivals,
                        spec.jobs_per_tenant,
                        self.arrival_window(lifetime),
                        trace_seed,
                    );
                    let mut rng = StdRng::seed_from_u64(mix(self.seed, chunk as u64 + 1, 1));
                    for t in 0..trace.tenants.len() {
                        let join = rng.gen_range(0..CHUNK_ROUNDS);
                        place(&mut trace, t, join + 1, 1.0);
                    }
                    let churn = ChurnTrace::from_trace(
                        &trace,
                        &churn_config(LINGER_ROUNDS, true, spec.host_churn_every),
                    );
                    events = chunk_host_churn(churn.events);
                }
                let prefix = format!("c{chunk}");
                events
                    .into_iter()
                    .map(|mut e| {
                        e.round += start;
                        rename(e, &prefix)
                    })
                    .collect()
            }
        }
    }
}

/// Keeps a chunk's host churn inside the chunk: hosts added at or after
/// the chunk's last round belong to the next chunk's cadence, and a host
/// whose removal fell past the chunk's horizon is dropped so hosts never
/// accumulate across chunks.
fn chunk_host_churn(events: Vec<ChurnEvent>) -> Vec<ChurnEvent> {
    let removed: HashSet<String> = events
        .iter()
        .filter(|e| matches!(e.kind, ChurnEventKind::RemoveHost))
        .map(|e| e.subject.clone())
        .collect();
    let kept: HashSet<String> = events
        .iter()
        .filter(|e| {
            matches!(e.kind, ChurnEventKind::AddHost { .. })
                && e.round < CHUNK_ROUNDS
                && removed.contains(&e.subject)
        })
        .map(|e| e.subject.clone())
        .collect();
    events
        .into_iter()
        .filter(|e| match e.kind {
            ChurnEventKind::AddHost { .. } | ChurnEventKind::RemoveHost => {
                kept.contains(&e.subject)
            }
            _ => true,
        })
        .collect()
}

fn rename(mut event: ChurnEvent, prefix: &str) -> ChurnEvent {
    event.subject = format!("{prefix}-{}", event.subject);
    event
}
