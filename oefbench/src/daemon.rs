//! The real `oef-serviced` process: spawn, address discovery, `kill -9`,
//! peak memory and plain-HTTP reads of its metrics listener.

use crate::stream::{WorkloadSpec, COMPACT_EVERY, FSYNC_EVERY};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running daemon.  Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Keeps the stdout pipe open: the daemon prints a line at shutdown.
    _stdout: BufReader<ChildStdout>,
    /// Command port.
    pub addr: SocketAddr,
    /// `/metrics`, `/attrib` port.
    pub metrics_addr: SocketAddr,
}

/// How to start a daemon of one workload.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The `oef-serviced` binary.
    pub binary: PathBuf,
    /// Journal directory of a durable workload.
    pub journal_dir: Option<PathBuf>,
    /// Config flags (`--shards`, `--max-tenants`, ...).  Left out when a
    /// journaled daemon recovers: its checkpoint holds the configuration.
    pub config: Vec<String>,
    /// Where the daemon's stderr log goes.
    pub log: PathBuf,
}

impl Launch {
    /// The launch of `spec`'s daemon shape.
    pub fn new(
        spec: &WorkloadSpec,
        binary: &Path,
        journal_dir: Option<PathBuf>,
        log: PathBuf,
    ) -> Self {
        let config = vec![
            "--policy".to_string(),
            "oef-noncooperative".to_string(),
            "--shards".to_string(),
            spec.shards.to_string(),
            "--max-tenants".to_string(),
            spec.max_tenants.to_string(),
        ];
        Launch {
            binary: binary.to_path_buf(),
            journal_dir,
            config,
            log,
        }
    }

    /// Starts the daemon and waits until both listeners are bound.  With
    /// `recover`, a journaled daemon restarts from its journal directory.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the daemon exiting before it listens.
    pub fn spawn(&self, recover: bool) -> Result<Daemon, String> {
        let mut command = Command::new(&self.binary);
        command.args(["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"]);
        if let Some(dir) = &self.journal_dir {
            command.arg("--journal-dir").arg(dir);
            command.args(["--fsync-every", &FSYNC_EVERY.to_string()]);
            command.args(["--compact-every", &COMPACT_EVERY.to_string()]);
        }
        if !(recover && self.journal_dir.is_some()) {
            command.args(&self.config);
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.log)
            .map_err(|e| format!("cannot open {}: {e}", self.log.display()))?;
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut addr = None;
        let mut metrics_addr = None;
        let mut line = String::new();
        while addr.is_none() || metrics_addr.is_none() {
            line.clear();
            let read = stdout.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "oef-serviced exited before listening (see {})",
                    self.log.display()
                ));
            }
            let parse = |prefix: &str| {
                line.trim()
                    .strip_prefix(prefix)
                    .and_then(|a| a.parse::<SocketAddr>().ok())
            };
            if let Some(a) = parse("oef-serviced metrics listening on ") {
                metrics_addr = Some(a);
            } else if let Some(a) = parse("oef-serviced listening on ") {
                addr = Some(a);
            }
        }
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr: addr.expect("loop ends with both"),
            metrics_addr: metrics_addr.expect("loop ends with both"),
        })
    }
}

impl Daemon {
    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// `kill -9`, then waits for the process to be gone.
    pub fn kill9(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One HTTP/1.1 GET against the metrics listener (which closes the
/// connection after each reply).  Returns the body.
///
/// # Errors
///
/// Socket failures and non-200 replies.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("GET {path}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("GET {path}: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: oefbench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("GET {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("GET {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {path}: no header/body separator"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "GET {path}: {}",
            head.lines().next().unwrap_or_default()
        ));
    }
    Ok(body.to_string())
}
