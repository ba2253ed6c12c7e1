//! `serve_get_binary`: a closed loop of pipelined binary `get` windows over
//! `nproc` keep-alive connections, with Zipf-skewed keys, against one
//! in-process server whose store was prefilled with real records.  Nothing
//! is evaluated: each request is codec, dispatch, `get_record` under the
//! shard lock, `obs` recording and loopback I/O.

use std::time::{Duration, Instant};

use srra_explore::PointRecord;
use srra_serve::{Connection, Request, Response};

use crate::metrics::Outcome;
use crate::node::{self, Node};
use crate::points;
use crate::util::{self, Rng, Tally, Windows, WorkDir, Zipf};
use crate::{alloc_count, Ctx};

/// Requests written per pipelined window before any reply is read.
const PIPELINE_DEPTH: usize = 32;
/// Prefill axes: 8 budgets × 4 latencies × 72 = 2304 records.
const PREFILL_BUDGETS: usize = 8;
const PREFILL_LATENCIES: usize = 4;
/// Precomputed windows per client, replayed cyclically.
const WINDOWS_PER_CLIENT: usize = 256;
const ZIPF_EXPONENT: f64 = 0.99;
const SETUP_REPS: usize = 5;

/// One client's request stream: the windows and the prefill index behind
/// every request, for checking replies.
struct Stream {
    windows: Vec<Vec<Request>>,
    keys: Vec<Vec<usize>>,
}

fn streams(seed: u64, records: &[PointRecord], clients: usize) -> Vec<Stream> {
    let zipf = Zipf::new(records.len(), ZIPF_EXPONENT);
    let rank_to_key = points::popularity_order(records);
    (0..clients)
        .map(|client| {
            let mut rng = Rng::new(seed, 30 + client as u64);
            let keys: Vec<Vec<usize>> = (0..WINDOWS_PER_CLIENT)
                .map(|_| {
                    (0..PIPELINE_DEPTH)
                        .map(|_| rank_to_key[zipf.sample(&mut rng)])
                        .collect()
                })
                .collect();
            let windows = keys
                .iter()
                .map(|window| {
                    window
                        .iter()
                        .map(|&k| Request::Get {
                            canonical: records[k].canonical.clone(),
                        })
                        .collect()
                })
                .collect();
            Stream { windows, keys }
        })
        .collect()
}

struct Running {
    _dir: WorkDir,
    node: Node,
    connections: Vec<Connection>,
    records: Vec<PointRecord>,
}

/// Set-up: fresh store directory, `Explorer` prefill, server bind (which
/// hydrates the store), one connection per client, one `ping` each.
fn setup(
    ctx: &Ctx,
    rep: usize,
    axes: &(Vec<u64>, Vec<u64>),
    clients: usize,
) -> Result<Running, String> {
    let dir = WorkDir::new(&ctx.work, &format!("serve-{rep}"));
    let records = node::prefill(&[dir.path()], &axes.0, &axes.1)?;
    let node = Node::start(dir.path(), clients)?;
    let mut connections = Vec::new();
    for _ in 0..clients {
        let mut connection =
            Connection::connect_binary(&node.addr).map_err(|err| err.to_string())?;
        connection.ping().map_err(|err| err.to_string())?;
        connections.push(connection);
    }
    Ok(Running {
        _dir: dir,
        node,
        connections,
        records,
    })
}

impl Running {
    fn stop(self) {
        // Idle keep-alive connections pin the workers; close them before
        // asking for shutdown.
        drop(self.connections);
        self.node.stop();
    }
}

struct ClientResult {
    ok: u64,
    failed: u64,
    wrong: u64,
    tally: Tally,
    cpu_us: u64,
}

struct Phase {
    windows: Windows,
    tally: Tally,
    cpu_marks: Vec<u64>,
    ops: u64,
    failed: u64,
    wrong: u64,
    server_cpu_us: u64,
    client_cpu_us: u64,
}

fn client_loop(
    connection: &mut Connection,
    stream: &Stream,
    expected: &[PointRecord],
    windows: &Windows,
    deadline: Instant,
) -> ClientResult {
    let cpu = util::thread_cpu_us();
    let mut result = ClientResult {
        ok: 0,
        failed: 0,
        wrong: 0,
        tally: Tally::new(windows),
        cpu_us: 0,
    };
    let mut index = 0;
    while Instant::now() < deadline {
        let window = &stream.windows[index % stream.windows.len()];
        let keys = &stream.keys[index % stream.keys.len()];
        index += 1;
        let sent = Instant::now();
        match connection.pipeline(window) {
            Ok(responses) => {
                let done = Instant::now();
                let slot = windows.index(done);
                result.tally.latency_us[slot].push(done.duration_since(sent).as_secs_f64() * 1e6);
                result.tally.ops[slot] += responses.len() as u64;
                for (response, &key) in responses.iter().zip(keys) {
                    match response {
                        Response::Found { record } if *record == expected[key] => result.ok += 1,
                        Response::Found { .. } => result.wrong += 1,
                        _ => result.failed += 1,
                    }
                }
                result.failed += (window.len() - responses.len()) as u64;
            }
            Err(_) => {
                result.failed += window.len() as u64;
                break;
            }
        }
    }
    result.cpu_us = util::thread_cpu_us() - cpu;
    result
}

fn phase(
    running: &mut Running,
    streams: &[Stream],
    expected: &[PointRecord],
    duration: Duration,
) -> Phase {
    let server_cpu = node::threads_cpu_us(node::SERVER_THREAD);
    let start = Instant::now();
    let windows = Windows::new(start, duration);
    let deadline = start + duration;
    let (results, cpu_marks) = node::run_clients(
        running.connections.iter_mut().zip(streams),
        &windows,
        |(connection, stream)| client_loop(connection, stream, expected, &windows, deadline),
    );
    let mut phase = Phase {
        windows,
        tally: Tally::new(&windows),
        cpu_marks,
        ops: 0,
        failed: 0,
        wrong: 0,
        server_cpu_us: node::threads_cpu_us(node::SERVER_THREAD) - server_cpu,
        client_cpu_us: 0,
    };
    for result in results {
        phase.ops += result.ok + result.wrong;
        phase.failed += result.failed;
        phase.wrong += result.wrong;
        phase.client_cpu_us += result.cpu_us;
        phase.tally.merge(result.tally);
    }
    phase
}

impl Phase {
    fn rate(&self) -> f64 {
        self.tally.ops_per_s(&self.windows)
    }
}

pub fn layer_space(seed: u64) -> srra_explore::DesignSpace {
    let axes = points::seeded_axes(
        seed,
        2,
        points::SERVED_BUDGETS,
        PREFILL_BUDGETS,
        PREFILL_LATENCIES,
    );
    points::space(&axes.0, &axes.1)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let clients = util::nproc();
    let axes = points::seeded_axes(
        ctx.seed,
        2,
        points::SERVED_BUDGETS,
        PREFILL_BUDGETS,
        PREFILL_LATENCIES,
    );
    let running = node::repeated_setup(
        SETUP_REPS,
        out,
        |rep| setup(ctx, rep, &axes, clients),
        Running::stop,
    );
    let Some(mut running) = running else {
        out.attempted = 1;
        out.failed = 1;
        return;
    };

    // The reference answers, evaluated in process away from the store and
    // the wire.
    let kernels = srra_kernels::compiled_paper_suite();
    let expected: Vec<PointRecord> = running
        .records
        .iter()
        .map(|record| points::reference_record(&kernels, &points::query_of(record)))
        .collect();
    let streams = streams(ctx.seed, &running.records, clients);

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let main = phase(
        &mut running,
        &streams,
        &expected,
        Duration::from_secs_f64(seconds),
    );
    let mut ops = main.ops;
    let mut failed = main.failed;
    let mut wrong = main.wrong;
    out.metric("ops_per_s", main.rate());
    out.metric("latency_p50_us", main.tally.latency(0.5));
    out.metric("latency_p99_us", main.tally.latency(0.99));
    out.metric("cpu_us_per_op", main.tally.cpu_us_per_op(&main.cpu_marks));
    out.samples
        .push(("pipelined_windows", main.tally.samples()));
    out.samples
        .push(("time_windows", main.windows.count() as u64));
    out.samples.push(("window_size", PIPELINE_DEPTH as u64));
    out.samples
        .push(("prefilled_records", expected.len() as u64));

    if ctx.trace {
        alloc_count::start();
        let traced = phase(
            &mut running,
            &streams,
            &expected,
            Duration::from_secs_f64(seconds),
        );
        let allocs = alloc_count::stop();
        ops += traced.ops;
        failed += traced.failed;
        wrong += traced.wrong;
        out.metric("process.allocs_per_op", allocs as f64 / traced.ops as f64);
        out.metric(
            "bench.trace_overhead_pct",
            (1.0 - traced.rate() / main.rate()) * 100.0,
        );
        out.metric(
            "serve.server_cpu_us_per_op",
            traced.server_cpu_us as f64 / traced.ops as f64,
        );
        out.metric(
            "serve.client_cpu_us_per_op",
            traced.client_cpu_us as f64 / traced.ops as f64,
        );
        // What the codec and lookup layers do not explain: socket, syscall
        // and scheduling time per request.
        let explained_ns: f64 = [
            "serve.bin_request_encode_ns",
            "serve.bin_request_decode_ns",
            "serve.bin_response_encode_ns",
            "serve.bin_response_decode_ns",
            "serve.shard_get_ns",
        ]
        .iter()
        .map(|name| out.value(name).expect("layer table ran first"))
        .sum();
        let per_op_us = main.tally.latency(0.5) / PIPELINE_DEPTH as f64;
        out.metric("serve.remainder_us_per_op", per_op_us - explained_ns / 1e3);
    }

    let stats = running.connections[0].stats();
    match stats {
        Ok(stats) => {
            out.metric("serve.evaluated", stats.evaluated as f64);
            out.metric("serve.hits", stats.hits as f64);
            out.check(stats.evaluated == 0, || {
                format!("a read-only workload evaluated {} points", stats.evaluated)
            });
        }
        Err(err) => out.check(false, || format!("stats failed: {err}")),
    }
    out.check(wrong == 0, || {
        format!("{wrong} served records differ from evaluate_point")
    });
    out.attempted = ops + failed;
    out.failed = failed;
    running.stop();
}
