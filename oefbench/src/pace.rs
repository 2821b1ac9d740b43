//! The host's pace: how fast the machine runs right now.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by a
//! third between batches of runs a few minutes apart, because other
//! tenants of the host contend for its cores, caches and scheduler.
//! Wall-clock timings follow that drift whatever the program does.  A
//! [`Probe`] times fixed pieces of the benchmark's *own* work (no code of
//! the program) at intervals through a run: arithmetic, a byte scan of
//! JSON-like text, and hash-map and vector allocation.  The geometric mean
//! over the parts of each part's median time over its [`REFERENCE_US`] is
//! the run's *pace*: 1 on the reference host in a calm period, 1.3 on a
//! host running 30% slower.
//!
//! The probe's bursts are short enough to fall mostly between the spells
//! in which the host runs someone else on our virtual CPUs, so those spells
//! are taken from the kernel instead: the *steal* share is the part of the
//! CPU time the run wanted that the host withheld (`/proc/stat`), and work
//! that took `t` of wall time would have taken `t·(1 − steal)` without it.
//! End-to-end timings are reported multiplied by `(1 − steal) / pace` and
//! rates divided by it: as they would read at the reference pace with
//! nothing stolen.  The raw figures, the pace and the steal share go to
//! stderr.
//!
//! Two more parts were tried and left out.  Thread wake-ups (a loopback
//! ping-pong): their median jumps between two levels about 2.5× apart from
//! one run to the next, which the program's timings do not follow.
//! Validating every 512th suffix of a 64 KiB text as UTF-8 (the memory
//! pattern of the JSON shim's reply decode): it moved by 7% across a host
//! change that moved `steady-500`'s `Tick` by 1.6×.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's parts, each timed on its own.
pub const PARTS: [&str; 3] = ["compute", "scan", "alloc"];
/// Median time of each part (µs) on the reference host, a 2-vCPU KVM
/// guest on a Xeon, in a calm period.
pub const REFERENCE_US: [f64; 3] = [70.0, 70.0, 80.0];
/// Bytes of JSON-like text scanned per unit.
const TEXT_BYTES: usize = 32 * 1024;

/// The probe's working set, built once.
pub struct Probe {
    text: Vec<u8>,
    times: [Vec<f64>; 3],
    last: Option<Instant>,
    spent: Duration,
}

impl Probe {
    /// A probe with its working set built; no samples yet.
    pub fn new() -> Self {
        let text: Vec<u8> = (0..TEXT_BYTES)
            .map(|i| b"{\"tenant\": 12, \"shares\": [0.25, 1.5e-3]}, "[i % 42])
            .collect();
        Probe {
            text,
            times: Default::default(),
            last: None,
            spent: Duration::ZERO,
        }
    }

    fn compute() -> u64 {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut y = 1.0f64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            y = y.mul_add(1.000_000_1, (x & 0xff) as f64 * 1e-9 + i as f64 * 1e-12);
        }
        x ^ y.to_bits()
    }

    fn scan(&self) -> u64 {
        let text = black_box(&self.text[..]);
        let mut acc = std::str::from_utf8(text).map_or(0, str::len) as u64;
        let mut number = 0u64;
        for &b in text {
            match b {
                b'0'..=b'9' => number = number.wrapping_mul(10) + u64::from(b - b'0'),
                b'"' | b',' | b':' => {
                    acc = acc.wrapping_add(number);
                    number = 0;
                }
                b'[' | b'{' => acc += 3,
                _ => acc ^= u64::from(b),
            }
        }
        acc
    }

    fn alloc() -> u64 {
        let mut map: HashMap<u64, Vec<f64>> = HashMap::new();
        for k in 0..512u64 {
            map.insert(
                k.wrapping_mul(0x9E37_79B9),
                vec![k as f64; 1 + (k % 13) as usize],
            );
        }
        map.values().map(|v| v.len() as u64).sum()
    }

    /// Times one untimed warm-up pass and then one timed pass of every
    /// part.
    pub fn sample(&mut self) {
        let started = Instant::now();
        for timed in [false, true] {
            for part in 0..PARTS.len() {
                let t = Instant::now();
                black_box(match part {
                    0 => Self::compute(),
                    1 => self.scan(),
                    _ => Self::alloc(),
                });
                if timed {
                    self.times[part].push(t.elapsed().as_secs_f64());
                }
            }
        }
        let now = Instant::now();
        self.spent += now - started;
        self.last = Some(now);
    }

    /// Samples if `every` has passed since the last sample.
    pub fn sample_every(&mut self, every: Duration) {
        if self.last.is_none_or(|t| t.elapsed() >= every) {
            self.sample();
        }
    }

    /// Time spent sampling so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Median time of each part (seconds), in [`PARTS`] order.
    pub fn medians(&self) -> Vec<f64> {
        self.times
            .iter()
            .map(|t| crate::stats::median(t).unwrap_or(0.0))
            .collect()
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.times[0].len()
    }

    /// The pace (see the module docs); 1 before any sample.
    pub fn pace(&self) -> f64 {
        if self.samples() == 0 {
            return 1.0;
        }
        let logs: f64 = self
            .medians()
            .iter()
            .zip(REFERENCE_US)
            .map(|(m, r)| (m * 1e6 / r).ln())
            .sum();
        (logs / PARTS.len() as f64).exp()
    }
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

/// The machine's busy and stolen CPU time so far (`/proc/stat` ticks,
/// all CPUs): time spent running, and time a runnable virtual CPU waited
/// for the host.  `None` where the file is missing or unreadable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    let field = |i: usize| fields.get(i).copied();
    let busy = field(0)? + field(1)? + field(2)? + field(5)? + field(6)?;
    Some((busy, field(7)?))
}

/// Share of the wanted CPU time the host withheld between two
/// [`cpu_ticks`] readings (0 when unknown).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((b0, s0)), Some((b1, s1))) if b1 > b0 && s1 >= s0 => {
            (s1 - s0) as f64 / ((b1 - b0) + (s1 - s0)) as f64
        }
        _ => 0.0,
    }
}
