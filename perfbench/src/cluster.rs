//! The multi-process deployment: `shard-server` processes over Unix
//! sockets, the coordinator connected to them, and the metric snapshots
//! read back from the servers.

use crate::procfs::vm_hwm_kib;
use crate::stats::{histogram_delta, histogram_sum};
use ssrq_net::{Endpoint, RemoteShardedEngine};
use ssrq_obs::{HistogramSnapshot, MetricSample, MetricValue};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Shard-server processes of a deployment.
pub const SHARDS: usize = 2;
/// Users of the served dataset.
pub const USERS: usize = 20_000;
/// Location partitioning of the deployment.
pub const PARTITIONING: &str = "spatial:16";
/// Per-shard round-trip deadline: a hung shard fails the request instead
/// of hanging the run.  Generous, because a planner probe of AIS-BID can
/// take seconds on this data.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// A directory removed, with everything in it, when dropped — also when
/// the run panics.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` (and its parents).
    pub fn create(path: &Path) -> std::io::Result<ScratchDir> {
        std::fs::create_dir_all(path)?;
        Ok(ScratchDir(path.to_path_buf()))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One `shard-server` process, killed and reaped when dropped.
#[derive(Debug)]
struct ShardProcess(Child);

impl Drop for ShardProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running deployment and the coordinator connected to it.
pub struct Cluster {
    /// The coordinator: sequential scatter, one connection per shard.
    pub engine: RemoteShardedEngine,
    /// The servers' endpoints, in shard order.
    pub endpoints: Vec<Endpoint>,
    /// From the first spawn until the last server announced its socket.
    pub ready: Duration,
    /// `ready` plus the coordinator's connect and handshake.
    pub setup: Duration,
    processes: Vec<ShardProcess>,
    _sockets: ScratchDir,
}

impl Cluster {
    /// Spawns every shard of the deployment under `dir` and connects the
    /// coordinator.
    ///
    /// # Errors
    ///
    /// A server that fails to start or announce itself, or a failed
    /// connect; already started servers are stopped.
    pub fn launch(binary: &Path, dir: &Path) -> Result<Cluster, String> {
        let sockets = ScratchDir::create(dir).map_err(|e| format!("socket dir: {e}"))?;
        let started = Instant::now();
        let mut processes = Vec::with_capacity(SHARDS);
        let mut stdouts = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let listen = format!("unix:{}", dir.join(format!("s{shard}.sock")).display());
            let mut child = Command::new(binary)
                .args(["--listen", &listen, "--shard", &shard.to_string()])
                .args([
                    "--shards",
                    &SHARDS.to_string(),
                    "--users",
                    &USERS.to_string(),
                ])
                .args(["--seed", &crate::inputs::DATASET_SEED.to_string()])
                .args(["--partitioning", PARTITIONING])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
            stdouts.push(child.stdout.take().expect("stdout is piped"));
            processes.push(ShardProcess(child));
        }
        let mut endpoints = Vec::with_capacity(SHARDS);
        for (shard, stdout) in stdouts.into_iter().enumerate() {
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("reading shard {shard}'s announcement: {e}"))?;
            let endpoint = line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|s| Endpoint::parse(s).ok())
                .ok_or_else(|| format!("shard {shard} announced {:?}", line.trim()))?;
            endpoints.push(endpoint);
        }
        let ready = started.elapsed();
        let engine = RemoteShardedEngine::builder(endpoints.clone())
            .pool_size(1)
            .deadline(DEADLINE)
            .connect()
            .map_err(|e| format!("coordinator connect: {e}"))?;
        Ok(Cluster {
            engine,
            endpoints,
            ready,
            setup: started.elapsed(),
            processes,
            _sockets: sockets,
        })
    }

    /// Summed peak resident memory of the server processes, in KiB.
    pub fn servers_hwm_kib(&self) -> u64 {
        self.processes
            .iter()
            .map(|p| vm_hwm_kib(Some(p.0.id())).unwrap_or(0))
            .sum()
    }

    /// Every server's metric registry, in shard order.
    ///
    /// # Errors
    ///
    /// A server that does not answer the metrics request.
    pub fn metrics(&self) -> Result<ServerMetrics, String> {
        (0..SHARDS)
            .map(|shard| {
                self.engine
                    .remote_metrics(shard)
                    .map(|report| report.metrics)
                    .map_err(|e| format!("metrics of shard {shard}: {e}"))
            })
            .collect::<Result<_, _>>()
            .map(ServerMetrics)
    }

    /// Asks every server to stop and waits (briefly) for each to exit;
    /// stragglers are killed.
    pub fn shutdown(mut self) {
        let _ = self.engine.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        for process in &mut self.processes {
            while Instant::now() < deadline {
                match process.0.try_wait() {
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                    _ => break,
                }
            }
        }
    }
}

/// Snapshots of every server's metric registry.
#[derive(Debug, Clone)]
pub struct ServerMetrics(Vec<Vec<MetricSample>>);

fn has_labels(sample: &MetricSample, labels: &[(&str, &str)]) -> bool {
    labels
        .iter()
        .all(|(k, v)| sample.labels.iter().any(|(sk, sv)| sk == k && sv == v))
}

impl ServerMetrics {
    fn samples<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MetricSample> + 'a {
        self.0.iter().flatten().filter(move |s| s.name == name)
    }

    /// A counter summed over servers and over the label sets that include
    /// `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.samples(name)
            .filter(|s| has_labels(s, labels))
            .map(|s| match s.value {
                MetricValue::Counter(n) => n,
                _ => 0,
            })
            .sum()
    }

    /// A histogram summed over servers and label sets.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        histogram_sum(self.samples(name).filter_map(|s| match &s.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }))
    }
}

/// What the servers counted between two snapshots.
#[derive(Debug, Clone)]
pub struct MetricsDelta {
    /// The earlier snapshot.
    pub before: ServerMetrics,
    /// The later snapshot.
    pub after: ServerMetrics,
}

impl MetricsDelta {
    /// Counter increase.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.after
            .counter(name, labels)
            .saturating_sub(self.before.counter(name, labels))
    }

    /// Histogram observations added.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        histogram_delta(&self.before.histogram(name), &self.after.histogram(name))
    }
}
