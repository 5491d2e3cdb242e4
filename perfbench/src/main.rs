//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --shard-server <path> --work-dir <dir> [--record <file>]
//! [--commit <rev>] [--rustc <version>]`
//!
//! Runs one workload, prints every metric with its unit and sample count,
//! and ends with the one-line JSON result.  `run.py` builds everything
//! and supplies the paths and provenance.

use perfbench::cluster::{ScratchDir, SHARDS, USERS};
use perfbench::report::{Provenance, Report};
use perfbench::{inputs, large, serve, Env};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = std::collections::HashMap::new();
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        args.insert(name, value);
    }
    let get = |name: &str| {
        args.get(name)
            .cloned()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = get("workload")?;
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = ScratchDir::create(&PathBuf::from(get("work-dir")?))
        .map_err(|e| format!("--work-dir: {e}"))?;
    let env = Env {
        shard_server: PathBuf::from(get("shard-server")?),
        work_dir: work_dir.path().to_path_buf(),
        seed,
        seconds,
        traced,
        cores,
    };
    let mut report = Report::default();
    let (users, shards) = match workload.as_str() {
        "serve-cold" => {
            serve::serve_cold(&env, &mut report)?;
            (USERS, SHARDS)
        }
        "serve-hot-churn" => {
            serve::serve_hot_churn(&env, &mut report)?;
            (USERS, SHARDS)
        }
        "engine-large" => {
            large::engine_large(&env, &mut report)?;
            (large::USERS, 0)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let provenance = Provenance {
        workload,
        workload_seed: seed,
        dataset_seed: inputs::DATASET_SEED,
        users,
        shards,
        traced,
        seconds,
        cores,
        commit: args
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        rustc: args
            .get("rustc")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    };
    print!("{}", report.table(traced));
    if let Some(path) = args.get("record") {
        std::fs::write(path, report.record_json(&provenance) + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", report.result_json(traced));
    Ok(())
}
