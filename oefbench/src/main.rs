//! Command-line entry of the benchmark; see the library docs.

use oefbench::client::Tally;
use oefbench::report::{breakdown_json, end_to_end, log_distributions, per_layer, result_json};
use oefbench::stats::Spans;
use oefbench::stream::workload;
use oefbench::tcp::{self, TcpOptions};
use oefbench::traced;
use std::path::{Path, PathBuf};

/// Set-ups timed per untraced run (`setup_s` is their median).
const SETUPS: usize = 7;
/// Restarts after the final `kill -9` (`recovery_s` is their median).
const RESTARTS: usize = 45;
/// States a durable workload is crashed and recovered in.
const CRASHES: usize = 9;
/// Most measured rounds the traced run replays in-process.
const TRACED_ROUNDS: usize = 4000;
/// Scratch and trace output, relative to the working directory.
const OUT_DIR: &str = ".oefbench";

struct Args {
    serviced: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut serviced = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--serviced" => serviced = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("bad --seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: use 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        serviced: serviced.ok_or("--serviced is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<String, String> {
    let spec =
        workload(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    if !args.serviced.is_file() {
        return Err(format!("no daemon binary at {}", args.serviced.display()));
    }
    let root = Path::new(OUT_DIR);
    let workdir = tcp::run_dir(root, spec.name, args.seed);
    std::fs::create_dir_all(&workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let result = if args.trace {
        traced_run(&spec, args, root, &workdir)
    } else {
        let options = TcpOptions {
            setups: SETUPS,
            restarts: RESTARTS,
            crashes: CRASHES,
            fetch_attrib: false,
        };
        tcp::run(
            &spec,
            args.seed,
            args.seconds,
            &args.serviced,
            &workdir,
            options,
        )
        .map(|report| {
            let mut tally = report.tally.clone();
            let metrics = end_to_end(&report, &mut tally);
            log_distributions(&report);
            log_failures(&tally);
            result_json(&tally, &metrics)
        })
    };
    let _ = std::fs::remove_dir_all(&workdir);
    result
}

fn traced_run(
    spec: &oefbench::stream::WorkloadSpec,
    args: &Args,
    root: &Path,
    workdir: &Path,
) -> Result<String, String> {
    let options = TcpOptions {
        setups: 1,
        restarts: 0,
        crashes: 0,
        fetch_attrib: true,
    };
    let report = tcp::run(
        spec,
        args.seed,
        args.seconds,
        &args.serviced,
        workdir,
        options,
    )?;
    let writer_steps: usize = ["tick", "mutate"]
        .iter()
        .map(|c| report.latency.get(c).map_or(0, Vec::len))
        .sum();
    let reads = report.latency.get("read").map_or(0, Vec::len);
    let reads_per_step = reads as f64 / writer_steps.max(1) as f64;
    // The in-process pass replays the same stream prefix, capped so a fast
    // workload's span file stays a few megabytes.
    let rounds = report.rounds.min(TRACED_ROUNDS);
    let mut spans = Spans::new();
    let pass = traced::run(spec, args.seed, rounds, reads_per_step, workdir, &mut spans)?;
    let metrics = per_layer(&report, &pass, &spans);
    let mut tally = report.tally.clone();
    tally.merge(pass.tally.clone());
    log_failures(&tally);

    // The trace file: metrics, the daemon's own phase profile and every
    // span, written once now that the run is over.
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"measured_rounds\": {}, \"traced_rounds\": {rounds},\n\"metrics\": ",
        spec.name, args.seed, report.rounds
    ));
    out.push_str(&result_json(&tally, &metrics));
    out.push_str(",\n\"breakdown\": ");
    out.push_str(&breakdown_json(&report, &spans));
    out.push_str(",\n\"attrib\": ");
    out.push_str(report.attrib.as_deref().unwrap_or("null"));
    out.push_str(",\n\"spans\": ");
    spans.write_json(&mut out);
    out.push_str("}\n");
    let traces = root.join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("{}: {e}", traces.display()))?;
    let path = traces.join(format!("{}-seed{}.json", spec.name, args.seed));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("oefbench: spans written to {}", path.display());
    Ok(result_json(&tally, &metrics))
}

fn log_failures(tally: &Tally) {
    for message in &tally.messages {
        eprintln!("oefbench: FAILED {message}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("oefbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("oefbench: {e}");
            std::process::exit(1);
        }
    }
}
