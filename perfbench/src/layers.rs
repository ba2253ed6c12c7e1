//! The per-layer table of the traced run: each crate's public functions
//! timed from outside on the workload's own design points, as the median
//! over repetitions of the mean ns per call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use srra_cluster::Ring;
use srra_core::{
    memory_cost, CompiledKernel, MemoryCostModel, RegisterAllocation, ReplacementPlan,
};
use srra_dfg::{CriticalPathAnalysis, DataFlowGraph, LatencyModel, Storage, StorageMap};
use srra_explore::{DesignPoint, DesignSpace, PointRecord, ResultStore};
use srra_fpga::{AreaModel, ClockModel, EvaluationOptions, HardwareDesign, ListScheduler};
use srra_obs::{Counter, Histogram};
use srra_reuse::ReuseAnalysis;
use srra_serve::{
    decode_payload, encode_request_frame, encode_response_frame, Request, Response, ShardedStore,
};

use crate::metrics::Outcome;
use crate::node::SHARDS;
use crate::util::{median, WorkDir};

const REPS: usize = 5;
/// Design points sampled evenly from the workload's space.
const SAMPLE: usize = 144;
/// Frame header of the binary codec: magic byte and u32 length.
const FRAME_HEADER: usize = 5;

/// Median over [`REPS`] of the mean ns per call of `f` over `items`, each
/// repetition walking the items `loops` times.
fn per_call_ns<T>(items: &[T], loops: usize, mut f: impl FnMut(&T)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..loops {
                for item in items {
                    f(item);
                }
            }
            started.elapsed().as_nanos() as f64 / (items.len() * loops) as f64
        })
        .collect();
    median(&reps)
}

/// As [`per_call_ns`] for store writes: each repetition starts from a fresh
/// store so every put is a real insert.
fn per_put_ns(
    work: &WorkDir,
    tag: &str,
    records: &[PointRecord],
    put: impl Fn(&mut ShardedStore, &PointRecord),
) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|rep| {
            let dir = work.path().join(format!("{tag}-{rep}"));
            let mut store = ShardedStore::open(&dir, SHARDS).expect("scratch store opens");
            let started = Instant::now();
            for record in records {
                put(&mut store, record);
            }
            let ns = started.elapsed().as_nanos() as f64 / records.len() as f64;
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            ns
        })
        .collect();
    median(&reps)
}

fn all_registers(kernel: &CompiledKernel) -> StorageMap {
    let mut storage = StorageMap::all_ram();
    for summary in kernel.analysis().iter() {
        storage.set(summary.ref_id(), Storage::Register);
    }
    storage
}

pub fn measure(space: &DesignSpace, work_root: &std::path::Path, out: &mut Outcome) {
    let kernels = space.kernels();
    let points: Vec<DesignPoint> = space.points();
    let stride = (points.len() / SAMPLE).max(1);
    let sample: Vec<&DesignPoint> = points.iter().step_by(stride).collect();
    for kernel in kernels {
        black_box(kernel.analysis());
        black_box(kernel.dfg());
    }
    let kernel_of = |point: &DesignPoint| &kernels[point.kernel_index];

    out.metric(
        "reuse.analysis_ns",
        per_call_ns(kernels, 1, |k| {
            black_box(ReuseAnalysis::of(k.kernel()));
        }),
    );
    out.metric(
        "dfg.build_ns",
        per_call_ns(kernels, 1, |k| {
            black_box(DataFlowGraph::from_kernel(k.kernel()));
        }),
    );
    out.metric(
        "dfg.critical_path_ns",
        per_call_ns(kernels, 10, |k| {
            black_box(CriticalPathAnalysis::new(
                k.dfg(),
                &LatencyModel::default(),
                &StorageMap::all_ram(),
            ));
        }),
    );
    for allocator in crate::points::allocators() {
        let mine: Vec<&&DesignPoint> = sample.iter().filter(|p| p.allocator == allocator).collect();
        let name = match allocator.name() {
            "none" => "core.alloc_ns.none",
            "fr" => "core.alloc_ns.fr",
            "pr" => "core.alloc_ns.pr",
            "cpa" => "core.alloc_ns.cpa",
            "ks" => "core.alloc_ns.ks",
            "greedy" => "core.alloc_ns.greedy",
            other => panic!("allocator {other} has no per-layer metric"),
        };
        out.metric(
            name,
            per_call_ns(&mine, 1, |p| {
                black_box(p.allocator.allocate(kernel_of(p), p.budget).ok());
            }),
        );
    }

    let feasible: Vec<(&DesignPoint, RegisterAllocation)> = sample
        .iter()
        .filter_map(|&p| Some((p, p.allocator.allocate(kernel_of(p), p.budget).ok()?)))
        .collect();
    let options = |p: &DesignPoint| EvaluationOptions {
        memory: MemoryCostModel::default().with_ram_latency(p.ram_latency),
        ..EvaluationOptions::default()
    };
    out.metric(
        "core.replacement_plan_ns",
        per_call_ns(&feasible, 1, |(p, a)| {
            let k = kernel_of(p);
            black_box(ReplacementPlan::new(k.kernel(), k.analysis(), a));
        }),
    );
    out.metric(
        "core.memory_cost_ns",
        per_call_ns(&feasible, 1, |(p, a)| {
            let k = kernel_of(p);
            black_box(memory_cost(k.kernel(), k.analysis(), a, &options(p).memory));
        }),
    );
    out.metric(
        "fpga.evaluate_ns",
        per_call_ns(&feasible, 1, |(p, a)| {
            let k = kernel_of(p);
            black_box(HardwareDesign::evaluate(
                k.kernel(),
                k.analysis(),
                a,
                &p.device,
                &options(p),
            ));
        }),
    );
    let defaults = EvaluationOptions::default();
    let storages: Vec<StorageMap> = kernels.iter().map(all_registers).collect();
    out.metric(
        "fpga.schedule_ns",
        per_call_ns(&feasible, 1, |(p, _)| {
            let scheduler = ListScheduler::new(defaults.limits.clone());
            black_box(scheduler.schedule(
                kernel_of(p).dfg(),
                &defaults.latency,
                &storages[p.kernel_index],
            ));
        }),
    );
    let plans: Vec<(&DesignPoint, ReplacementPlan)> = feasible
        .iter()
        .map(|(p, a)| {
            (
                *p,
                ReplacementPlan::new(kernel_of(p).kernel(), kernel_of(p).analysis(), a),
            )
        })
        .collect();
    out.metric(
        "fpga.area_ns",
        per_call_ns(&plans, 1, |(p, plan)| {
            black_box(AreaModel::default().estimate(kernel_of(p).kernel(), plan, &p.device));
        }),
    );
    out.metric(
        "fpga.clock_ns",
        per_call_ns(&plans, 100, |(_, plan)| {
            black_box(ClockModel::default().period_ns(plan));
        }),
    );

    // Stores, on the workload's records.
    let records: Vec<PointRecord> = sample
        .iter()
        .map(|&p| srra_explore::evaluate_point(kernel_of(p), p))
        .collect();
    let work = WorkDir::new(work_root, "layers");
    out.metric(
        "explore.store_put_ns",
        per_put_ns(&work, "explore-put", &records, |store, record| {
            ResultStore::put(store, record).expect("scratch store accepts puts");
        }),
    );
    out.metric(
        "serve.shard_put_ns",
        per_put_ns(&work, "shard-put", &records, |store, record| {
            store
                .put_record(record)
                .expect("scratch store accepts puts");
        }),
    );
    let filled =
        ShardedStore::open(work.path().join("filled"), SHARDS).expect("scratch store opens");
    let empty = ShardedStore::open(work.path().join("empty"), SHARDS).expect("scratch store opens");
    for record in &records {
        filled
            .put_record(record)
            .expect("scratch store accepts puts");
    }
    // A cold explore probes the store and misses on every point.
    out.metric(
        "explore.store_get_ns",
        per_call_ns(&records, 20, |r| {
            black_box(ResultStore::get(&empty, r.key, &r.canonical).expect("store reads"));
        }),
    );
    out.metric(
        "serve.shard_get_ns",
        per_call_ns(&records, 20, |r| {
            black_box(filled.get_record(r.key, &r.canonical).expect("store reads"));
        }),
    );

    // Binary codec: the `get` request and its `found` reply.
    let get_requests: Vec<Request> = records
        .iter()
        .map(|r| Request::Get {
            canonical: r.canonical.clone(),
        })
        .collect();
    let found: Vec<Response> = records
        .iter()
        .map(|r| Response::Found { record: r.clone() })
        .collect();
    let mut frame = Vec::new();
    out.metric(
        "serve.bin_request_encode_ns",
        per_call_ns(&get_requests, 20, |r| {
            frame.clear();
            encode_request_frame(&mut frame, None, r).expect("encodes");
            black_box(&frame);
        }),
    );
    let request_frames: Vec<Vec<u8>> = get_requests
        .iter()
        .map(|r| frame_of(|f| encode_request_frame(f, None, r)))
        .collect();
    out.metric(
        "serve.bin_request_decode_ns",
        per_call_ns(&request_frames, 20, |f| {
            black_box(decode_payload::<Request>(&f[FRAME_HEADER..]).expect("decodes"));
        }),
    );
    out.metric(
        "serve.bin_response_encode_ns",
        per_call_ns(&found, 20, |r| {
            frame.clear();
            encode_response_frame(&mut frame, None, r).expect("encodes");
            black_box(&frame);
        }),
    );
    let response_frames: Vec<Vec<u8>> = found
        .iter()
        .map(|r| frame_of(|f| encode_response_frame(f, None, r)))
        .collect();
    out.metric(
        "serve.bin_response_decode_ns",
        per_call_ns(&response_frames, 20, |f| {
            black_box(decode_payload::<Response>(&f[FRAME_HEADER..]).expect("decodes"));
        }),
    );

    // JSON codec: the one-key `mget` a cluster `get` sends, and its reply.
    let mget_requests: Vec<Request> = records
        .iter()
        .map(|r| Request::MultiGet {
            canonicals: vec![r.canonical.clone()],
        })
        .collect();
    let mget_replies: Vec<Response> = records
        .iter()
        .map(|r| Response::MultiGot {
            records: vec![Some(r.clone())],
        })
        .collect();
    let mut line = String::new();
    out.metric(
        "serve.json_request_render_ns",
        per_call_ns(&mget_requests, 20, |r| {
            line.clear();
            r.render_into(&mut line);
            black_box(&line);
        }),
    );
    let request_lines: Vec<String> = mget_requests.iter().map(Request::render).collect();
    out.metric(
        "serve.json_request_parse_ns",
        per_call_ns(&request_lines, 20, |l| {
            black_box(Request::parse(l).expect("parses"));
        }),
    );
    out.metric(
        "serve.json_response_render_ns",
        per_call_ns(&mget_replies, 20, |r| {
            line.clear();
            r.render_into(&mut line);
            black_box(&line);
        }),
    );
    let reply_lines: Vec<String> = mget_replies.iter().map(Response::render).collect();
    out.metric(
        "serve.json_response_parse_ns",
        per_call_ns(&reply_lines, 20, |l| {
            black_box(Response::parse(l).expect("parses"));
        }),
    );

    // Telemetry instruments and ring routing.
    let nanos: Vec<Duration> = (0..1_000u64)
        .map(|i| Duration::from_nanos(i * 7_919 % 200_000))
        .collect();
    let histogram = Histogram::new();
    out.metric(
        "obs.histogram_record_ns",
        per_call_ns(&nanos, 100, |d| histogram.record(*d)),
    );
    let counter = Counter::new();
    out.metric(
        "obs.counter_inc_ns",
        per_call_ns(&nanos, 100, |_| counter.inc()),
    );
    black_box((histogram.count(), counter.get()));
    let ring =
        Ring::new(["127.0.0.1:1", "127.0.0.1:2"], Ring::DEFAULT_VNODES).expect("two-node ring");
    out.metric(
        "cluster.route_ns",
        per_call_ns(&records, 50, |r| {
            black_box(ring.owners(r.key, 2));
        }),
    );
}

fn frame_of(encode: impl FnOnce(&mut Vec<u8>) -> Result<(), srra_explore::WireError>) -> Vec<u8> {
    let mut frame = Vec::new();
    encode(&mut frame).expect("encodes");
    frame
}
