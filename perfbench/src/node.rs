//! In-process `srra serve` nodes for the serving workloads: prefill, start,
//! stop, repeated set-up, client threads and per-thread CPU accounting.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use srra_explore::{Explorer, PointRecord};
use srra_serve::{Server, ServerConfig, ShardedStore};

use crate::metrics::Outcome;
use crate::points;
use crate::util::{self, Windows};

pub const SHARDS: usize = 4;
/// Name of every server thread: worker threads spawned by the accept loop
/// inherit it, so their CPU time can be told from the client threads'.
pub const SERVER_THREAD: &str = "perf-server";
const CLIENT_THREAD: &str = "perf-client";

/// Evaluates the seeded prefill space into the first store directory with
/// `Explorer` and copies the records into the others; returns the records in
/// point order.
pub fn prefill(
    dirs: &[&Path],
    budgets: &[u64],
    latencies: &[u64],
) -> Result<Vec<PointRecord>, String> {
    let space = points::space(budgets, latencies);
    let (first, rest) = dirs.split_first().expect("at least one store");
    let mut store = ShardedStore::open(first, SHARDS).map_err(|err| err.to_string())?;
    let run = Explorer::new(util::nproc())
        .explore(&space, &mut store)
        .map_err(|err| err.to_string())?;
    for dir in rest {
        let copy = ShardedStore::open(dir, SHARDS).map_err(|err| err.to_string())?;
        for record in &run.records {
            copy.put_record(record).map_err(|err| err.to_string())?;
        }
    }
    Ok(run.records)
}

/// A running server over one store directory.
pub struct Node {
    pub addr: String,
    handle: JoinHandle<()>,
}

impl Node {
    /// Opens (and hydrates) the store, binds an ephemeral loopback port and
    /// starts serving with `workers` connection workers.
    pub fn start(dir: &Path, workers: usize) -> Result<Self, String> {
        let server = Server::bind(&ServerConfig {
            workers,
            shards: SHARDS,
            ..ServerConfig::ephemeral(dir)
        })
        .map_err(|err| err.to_string())?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::Builder::new()
            .name(SERVER_THREAD.to_owned())
            .spawn(move || {
                server.run().expect("server runs until shutdown");
            })
            .map_err(|err| err.to_string())?;
        Ok(Self { addr, handle })
    }

    /// Sends `shutdown` over a fresh connection and waits for the exit.
    pub fn stop(self) {
        srra_serve::Client::new(self.addr.clone())
            .shutdown()
            .expect("server acknowledges shutdown");
        self.handle.join().expect("server thread exits cleanly");
    }
}

/// Summed CPU time (µs) of this process's live threads named `name`.
pub fn threads_cpu_us(name: &str) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs task list") {
        let task = entry.expect("task entry").path();
        let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            total += util::stat_cpu_us(task.join("stat")).unwrap_or(0);
        }
    }
    total
}

/// Runs `setup` `reps` times and keeps the last set-up; each earlier one is
/// stopped as soon as the next is ready.  Reports the median set-up time as
/// `setup_s`; a failed set-up fails the run's checks.
pub fn repeated_setup<T>(
    reps: usize,
    out: &mut Outcome,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut stop: impl FnMut(T),
) -> Option<T> {
    let mut times = Vec::new();
    let mut running = None;
    for rep in 0..reps {
        let started = Instant::now();
        match setup(rep) {
            Ok(ready) => {
                times.push(started.elapsed().as_secs_f64());
                if let Some(previous) = running.replace(ready) {
                    stop(previous);
                }
            }
            Err(err) => out.check(false, || format!("set-up failed: {err}")),
        }
    }
    out.metric("setup_s", util::median(&times));
    running
}

/// Runs `client` on one named client thread per item while the calling
/// thread samples process CPU at every window boundary; returns the client
/// results in item order and the CPU marks.
pub fn run_clients<I, R>(
    items: I,
    windows: &Windows,
    client: impl Fn(I::Item) -> R + Sync,
) -> (Vec<R>, Vec<u64>)
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
{
    std::thread::scope(|scope| {
        let client = &client;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                std::thread::Builder::new()
                    .name(CLIENT_THREAD.to_owned())
                    .spawn_scoped(scope, move || client(item))
                    .expect("client thread spawns")
            })
            .collect();
        let marks = windows.cpu_marks();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"));
        (results.collect(), marks)
    })
}
