//! End-to-end benchmark of the served OEF scheduler.
//!
//! `oefbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! starts the real `oef-serviced`, drives one named workload over loopback
//! TCP with the repository's `ServiceClient`, checks every reply, and
//! prints one JSON result line.  With `--trace 1` it instead replays the
//! same command stream in-process through each layer's public entry
//! points and reports per-layer metrics.  See `oefbench/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod pace;
pub mod report;
pub mod stats;
pub mod stream;
pub mod tcp;
pub mod traced;
