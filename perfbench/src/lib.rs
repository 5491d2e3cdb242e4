//! End-to-end and per-layer benchmark of the SSRQ engine and its
//! shard-server deployment.  `run.py` builds the program and this crate
//! and runs the `perfbench` binary; see `README.md` for the workloads and
//! metrics.

pub mod check;
pub mod cluster;
pub mod drive;
pub mod inputs;
pub mod large;
pub mod procfs;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;

use std::path::PathBuf;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `shard-server` binary.
    pub shard_server: PathBuf,
    /// Directory for the servers' sockets; removed afterwards.
    pub work_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Cores available: sender threads, clients and checker threads.
    pub cores: usize,
}
