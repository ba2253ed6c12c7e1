//! `cluster_mixed_json`: JSON-codec `ClusterClient`s over two in-process
//! nodes with `replicas = 2`.  The mix is Zipf `get` hits, `mget` batches and
//! about 10% `explore` of never-seen points, each evaluated once on its
//! primary and teed to the replica: writes beside reads, the JSON codec and
//! cluster routing.
//!
//! The timed phase is a closed loop, one request in flight per generator.
//! An open loop at a fixed offered rate was the first design; on a shared
//! two-vCPU machine its tail was set by host scheduling and its spread
//! between runs was several times any usable bound (see README.md), so the
//! open-loop view (queueing behind slow evaluations, generator lateness) is
//! measured in the traced run only.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use srra_cluster::{ClusterClient, ClusterConfig};
use srra_explore::PointRecord;
use srra_obs::Registry;
use srra_serve::{PointOutcome, QueryPoint};

use crate::metrics::Outcome;
use crate::node::{self, Node};
use crate::points;
use crate::util::{self, Rng, Tally, Windows, WorkDir, Zipf};
use crate::{alloc_count, Ctx};

/// Offered requests per second of the traced open-loop phase, summed over
/// the generator threads: under a third of the closed loop's throughput.
const OPEN_LOOP_RATE: f64 = 6_000.0;
const GET_SHARE: f64 = 0.8;
const MGET_SHARE: f64 = 0.1;
const MGET_BATCH: usize = 8;
/// Prefill axes: 8 budgets × 4 latencies × 72 = 2304 records on each node.
const PREFILL_BUDGETS: usize = 8;
const PREFILL_LATENCIES: usize = 4;
/// Budgets of never-seen explore points: disjoint from the prefill universe
/// and far more points than any run can ask for.
const FRESH_BUDGETS: std::ops::RangeInclusive<u64> = 65..=4096;
const NODES: usize = 2;
const REPLICAS: usize = 2;
const ZIPF_EXPONENT: f64 = 0.99;
const SETUP_REPS: usize = 5;

struct Running {
    _dir: WorkDir,
    nodes: Vec<Node>,
    clients: Vec<ClusterClient>,
    records: Vec<PointRecord>,
}

/// Set-up: fresh node directories, `Explorer` prefill copied to both nodes
/// (with two nodes and two replicas every key lives on both), two server
/// binds (each hydrating its store), one `ClusterClient` per generator
/// thread, one `ping` round each.
fn setup(
    ctx: &Ctx,
    rep: usize,
    axes: &(Vec<u64>, Vec<u64>),
    generators: usize,
) -> Result<Running, String> {
    let dir = WorkDir::new(&ctx.work, &format!("cluster-{rep}"));
    let node_dirs: Vec<_> = (0..NODES)
        .map(|i| dir.path().join(format!("node-{i}")))
        .collect();
    let dir_refs: Vec<&std::path::Path> = node_dirs.iter().map(|d| d.as_path()).collect();
    let records = node::prefill(&dir_refs, &axes.0, &axes.1)?;
    let mut nodes = Vec::new();
    for node_dir in &node_dirs {
        // One worker per connection the generators hold, plus one for the
        // shutdown request.
        nodes.push(Node::start(node_dir, generators + 1)?);
    }
    let config = ClusterConfig::new(nodes.iter().map(|n| n.addr.clone())).with_replicas(REPLICAS);
    let mut clients = Vec::new();
    for _ in 0..generators {
        let mut client = ClusterClient::connect(&config).map_err(|err| err.to_string())?;
        if client.ping_all().iter().any(|(_, up)| !up) {
            return Err("a node did not answer ping".to_owned());
        }
        clients.push(client);
    }
    Ok(Running {
        _dir: dir,
        nodes,
        clients,
        records,
    })
}

impl Running {
    fn stop(self) {
        let Running { nodes, clients, .. } = self;
        drop(clients);
        for node in nodes {
            node.stop();
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Get,
    MultiGet,
    Explore,
}

/// One generator thread's seeded request source.
struct Generator {
    rng: Rng,
    kernels: Vec<String>,
    index: usize,
    count: usize,
    seen: HashSet<(usize, usize, u64, u64, usize)>,
}

impl Generator {
    fn next_op(&mut self) -> Op {
        let u = self.rng.unit();
        if u < GET_SHARE {
            Op::Get
        } else if u < GET_SHARE + MGET_SHARE {
            Op::MultiGet
        } else {
            Op::Explore
        }
    }

    /// A point no thread has asked for before: thread `index` of `count`
    /// owns the fresh budgets congruent to `index`.
    fn fresh_point(&mut self) -> QueryPoint {
        let allocators = points::allocators();
        let devices = points::devices();
        let lanes = (FRESH_BUDGETS.end() - FRESH_BUDGETS.start() + 1) / self.count as u64;
        loop {
            let kernel = self.rng.below(self.kernels.len() as u64) as usize;
            let allocator = self.rng.below(allocators.len() as u64) as usize;
            let budget = FRESH_BUDGETS.start()
                + self.rng.below(lanes) * self.count as u64
                + self.index as u64;
            let latency = 1 + self.rng.below(*points::LATENCIES.end());
            let device = self.rng.below(devices.len() as u64) as usize;
            if self
                .seen
                .insert((kernel, allocator, budget, latency, device))
            {
                return QueryPoint {
                    kernel: self.kernels[kernel].clone(),
                    algorithm: allocators[allocator].name().to_owned(),
                    budget,
                    ram_latency: latency,
                    device: devices[device].name().to_owned(),
                };
            }
        }
    }
}

struct GenResult {
    ok: u64,
    failed: u64,
    wrong: u64,
    tally: Tally,
    lateness_us: Vec<f64>,
    scheduled_us: Vec<f64>,
    /// Each explored point with the fingerprint of the record it got, so
    /// the run holds no copy of the records it checks afterwards.
    explored: Vec<(QueryPoint, u32)>,
}

struct Phase {
    windows: Windows,
    ops: u64,
    failed: u64,
    wrong: u64,
    tally: Tally,
    cpu_marks: Vec<u64>,
    lateness_us: Vec<f64>,
    scheduled_us: Vec<f64>,
    explored: Vec<(QueryPoint, u32)>,
}

impl Phase {
    fn rate(&self) -> f64 {
        self.tally.ops_per_s(&self.windows)
    }
}

/// Sends one seeded request and checks its reply; `false` when it failed.
fn request(
    client: &mut ClusterClient,
    generator: &mut Generator,
    keys: &(Zipf, Vec<usize>),
    records: &[PointRecord],
    expected: &[PointRecord],
    result: &mut GenResult,
) -> bool {
    let op = generator.next_op();
    match op {
        Op::Get | Op::MultiGet => {
            let batch = if op == Op::Get { 1 } else { MGET_BATCH };
            let picks: Vec<usize> = (0..batch)
                .map(|_| keys.1[keys.0.sample(&mut generator.rng)])
                .collect();
            let reply = if op == Op::Get {
                client
                    .get(&records[picks[0]].canonical)
                    .map(|record| vec![record])
            } else {
                let canonicals: Vec<String> = picks
                    .iter()
                    .map(|&k| records[k].canonical.clone())
                    .collect();
                client.mget(&canonicals)
            };
            let Ok(found) = reply else { return false };
            let right = found.len() == picks.len()
                && found
                    .iter()
                    .zip(&picks)
                    .all(|(record, &k)| record.as_ref() == Some(&expected[k]));
            if !right {
                result.wrong += 1;
            }
            true
        }
        Op::Explore => {
            let point = generator.fresh_point();
            let Ok(reply) = client.explore(std::slice::from_ref(&point)) else {
                return false;
            };
            match reply.outcomes.into_iter().next() {
                Some(PointOutcome::Answered { record, hit: false }) => {
                    result.explored.push((point, points::fingerprint(&record)));
                    true
                }
                Some(PointOutcome::Answered { hit: true, .. }) => {
                    result.wrong += 1;
                    true
                }
                _ => false,
            }
        }
    }
}

/// One generator thread.  With `interval` unset it is a closed loop; with
/// it set, an open loop sending one request per interval from `start`, its
/// threads' schedules interleaved evenly.  Latency runs from the actual
/// send; the open loop also records lateness and latency from the schedule.
#[allow(clippy::too_many_arguments)]
fn generate(
    client: &mut ClusterClient,
    generator: &mut Generator,
    keys: &(Zipf, Vec<usize>),
    records: &[PointRecord],
    expected: &[PointRecord],
    windows: &Windows,
    interval: Option<Duration>,
    (start, deadline): (Instant, Instant),
) -> GenResult {
    let mut result = GenResult {
        ok: 0,
        failed: 0,
        wrong: 0,
        tally: Tally::new(windows),
        lateness_us: Vec::new(),
        scheduled_us: Vec::new(),
        explored: Vec::new(),
    };
    let mut due =
        interval.map(|i| start + i.mul_f64(generator.index as f64 / generator.count as f64));
    while due.unwrap_or_else(Instant::now) < deadline {
        if let Some(at) = due {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
        let sent = Instant::now();
        let ok = request(client, generator, keys, records, expected, &mut result);
        let done = Instant::now();
        let slot = windows.index(done);
        if ok {
            result.ok += 1;
            result.tally.ops[slot] += 1;
        } else {
            result.failed += 1;
        }
        result.tally.latency_us[slot].push(done.duration_since(sent).as_secs_f64() * 1e6);
        if let (Some(at), Some(step)) = (due, interval) {
            result
                .lateness_us
                .push(sent.saturating_duration_since(at).as_secs_f64() * 1e6);
            result
                .scheduled_us
                .push(done.duration_since(at).as_secs_f64() * 1e6);
            due = Some(at + step);
        }
    }
    result
}

fn phase(
    running: &mut Running,
    generators: &mut [Generator],
    keys: &(Zipf, Vec<usize>),
    expected: &[PointRecord],
    duration: Duration,
    interval: Option<Duration>,
) -> Phase {
    let start = Instant::now();
    let windows = Windows::new(start, duration);
    let deadline = start + duration;
    let records = &running.records;
    let span = (start, deadline);
    let (results, cpu_marks) = node::run_clients(
        running.clients.iter_mut().zip(generators.iter_mut()),
        &windows,
        |(client, generator)| {
            generate(
                client, generator, keys, records, expected, &windows, interval, span,
            )
        },
    );
    let mut phase = Phase {
        windows,
        ops: 0,
        failed: 0,
        wrong: 0,
        tally: Tally::new(&windows),
        cpu_marks,
        lateness_us: Vec::new(),
        scheduled_us: Vec::new(),
        explored: Vec::new(),
    };
    for result in results {
        phase.ops += result.ok;
        phase.failed += result.failed;
        phase.wrong += result.wrong;
        phase.tally.merge(result.tally);
        phase.lateness_us.extend(result.lateness_us);
        phase.scheduled_us.extend(result.scheduled_us);
        phase.explored.extend(result.explored);
    }
    phase
}

pub fn layer_space(seed: u64) -> srra_explore::DesignSpace {
    let axes = points::seeded_axes(
        seed,
        3,
        points::SERVED_BUDGETS,
        PREFILL_BUDGETS,
        PREFILL_LATENCIES,
    );
    points::space(&axes.0, &axes.1)
}

fn counter(name: &str) -> u64 {
    Registry::global().counter(name).get()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let threads = util::nproc();
    let axes = points::seeded_axes(
        ctx.seed,
        3,
        points::SERVED_BUDGETS,
        PREFILL_BUDGETS,
        PREFILL_LATENCIES,
    );
    let running = node::repeated_setup(
        SETUP_REPS,
        out,
        |rep| setup(ctx, rep, &axes, threads),
        Running::stop,
    );
    let Some(mut running) = running else {
        out.attempted = 1;
        out.failed = 1;
        return;
    };

    let kernels = srra_kernels::compiled_paper_suite();
    let expected: Vec<PointRecord> = running
        .records
        .iter()
        .map(|record| points::reference_record(&kernels, &points::query_of(record)))
        .collect();
    let keys = (
        Zipf::new(expected.len(), ZIPF_EXPONENT),
        points::popularity_order(&expected),
    );
    let mut generators: Vec<Generator> = (0..threads)
        .map(|index| Generator {
            rng: Rng::new(ctx.seed, 50 + index as u64),
            kernels: kernels.iter().map(|k| k.name().to_owned()).collect(),
            index,
            count: threads,
            seen: HashSet::new(),
        })
        .collect();

    let seconds = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut phases = vec![phase(
        &mut running,
        &mut generators,
        &keys,
        &expected,
        seconds,
        None,
    )];
    let main = &phases[0];
    out.metric("ops_per_s", main.rate());
    out.metric("latency_p50_us", main.tally.latency(0.5));
    out.metric("latency_p99_us", main.tally.latency(0.99));
    out.metric("cpu_us_per_op", main.tally.cpu_us_per_op(&main.cpu_marks));
    out.samples.push(("requests", main.tally.samples()));
    out.samples
        .push(("time_windows", main.windows.count() as u64));
    out.samples
        .push(("prefilled_records", expected.len() as u64));

    if ctx.trace {
        let tees = counter("cluster_tee_stored_total");
        let repairs = counter("cluster_read_repairs_total");
        alloc_count::start();
        let traced = phase(
            &mut running,
            &mut generators,
            &keys,
            &expected,
            seconds,
            None,
        );
        let allocs = alloc_count::stop();
        out.metric("process.allocs_per_op", allocs as f64 / traced.ops as f64);
        out.metric(
            "bench.trace_overhead_pct",
            (1.0 - traced.rate() / phases[0].rate()) * 100.0,
        );
        out.metric(
            "cluster.replica_writes_per_explore",
            (counter("cluster_tee_stored_total") - tees) as f64
                / traced.explored.len().max(1) as f64,
        );
        out.metric(
            "cluster.read_repairs",
            (counter("cluster_read_repairs_total") - repairs) as f64,
        );
        phases.push(traced);

        let interval = Duration::from_secs_f64(threads as f64 / OPEN_LOOP_RATE);
        let open = phase(
            &mut running,
            &mut generators,
            &keys,
            &expected,
            seconds,
            Some(interval),
        );
        out.metric(
            "bench.gen_lateness_p99_us",
            util::quantile(&open.lateness_us, 0.99),
        );
        out.metric(
            "bench.scheduled_latency_p99_us",
            util::quantile(&open.scheduled_us, 0.99),
        );
        out.samples
            .push(("open_loop_requests_per_s", OPEN_LOOP_RATE as u64));
        phases.push(open);
    }

    let ops: u64 = phases.iter().map(|p| p.ops).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let wrong: u64 = phases.iter().map(|p| p.wrong).sum();
    let explored: Vec<&(QueryPoint, u32)> = phases.iter().flat_map(|p| &p.explored).collect();

    // Exactly-once evaluation and two copies of every record.
    let stats = running.clients[0].stats();
    let evaluated = stats.total_evaluated();
    let held = stats.total_records();
    let hits: u64 = stats
        .nodes
        .iter()
        .filter_map(|n| n.stats.as_ref())
        .map(|s| s.hits)
        .sum();
    out.metric("serve.evaluated", evaluated as f64);
    out.metric("serve.hits", hits as f64);
    out.check(evaluated == explored.len() as u64, || {
        format!(
            "nodes evaluated {evaluated} points for {} distinct explores",
            explored.len()
        )
    });
    let copies = REPLICAS * (expected.len() + explored.len());
    out.check(held == copies, || {
        format!("nodes hold {held} records, expected {copies}")
    });
    let mismatched = explored
        .iter()
        .filter(|(point, print)| {
            points::fingerprint(&points::reference_record(&kernels, point)) != *print
        })
        .count();
    out.check(mismatched == 0, || {
        format!("{mismatched} explored records differ from evaluate_point")
    });
    out.check(wrong == 0, || format!("{wrong} cluster replies were wrong"));
    out.attempted = ops + failed;
    out.failed = failed;
    running.stop();
}
