//! `explore_cold`: repeated cold `Explorer::explore` passes into a fresh
//! on-disk `ShardedStore`.  Every point misses the cache, so the paper core
//! (`reuse`, `dfg`, `core`, `fpga`) and the engine do nearly all the work and
//! no socket is touched.

use std::time::{Duration, Instant};

use srra_explore::{DesignSpace, Explorer, PointRecord};
use srra_serve::ShardedStore;

use crate::metrics::Outcome;
use crate::points::{self, Expected};
use crate::util::{self, WorkDir};
use crate::{alloc_count, Ctx};

/// 48 budgets × 4 latencies × 6 kernels × 6 allocators × 2 devices =
/// 13 824 points, about half a second per pass on two cores.
const PASS_BUDGETS: usize = 48;
const PASS_LATENCIES: usize = 4;
const SHARDS: usize = 4;
/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_us: u64,
    /// Heap allocations inside the explore call (traced passes only).
    allocs: u64,
    evaluated: u64,
    infeasible: u64,
}

struct Phase {
    passes: Vec<Pass>,
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn evaluated(&self) -> u64 {
        self.passes.iter().map(|pass| pass.evaluated).sum()
    }

    /// Consecutive passes grouped into windows of about [`util::WINDOW`] of
    /// timed pass time; a short tail joins the last window.
    fn windows(&self) -> Vec<&[Pass]> {
        let mut windows: Vec<&[Pass]> = Vec::new();
        let (mut begin, mut timed) = (0, 0.0);
        for (index, pass) in self.passes.iter().enumerate() {
            timed += pass.wall_s;
            if timed >= util::WINDOW.as_secs_f64() {
                windows.push(&self.passes[begin..=index]);
                (begin, timed) = (index + 1, 0.0);
            }
        }
        if begin < self.passes.len() {
            match windows.pop() {
                Some(last) => windows.push(&self.passes[begin - last.len()..]),
                None => windows.push(&self.passes[begin..]),
            }
        }
        windows
    }

    /// Median over windows of `stat(window)`.
    fn per_window(&self, stat: impl Fn(&[Pass]) -> f64) -> f64 {
        let values: Vec<f64> = self.windows().into_iter().map(stat).collect();
        util::median(&values)
    }

    fn rate(&self) -> f64 {
        self.per_window(|w| {
            w.iter().map(|p| p.evaluated).sum::<u64>() as f64
                / w.iter().map(|p| p.wall_s).sum::<f64>()
        })
    }

    fn latency_us(&self, q: f64) -> f64 {
        self.per_window(|w| {
            util::quantile(&w.iter().map(|p| p.wall_s * 1e6).collect::<Vec<_>>(), q)
        })
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.per_window(|w| {
            w.iter().map(|p| p.cpu_us).sum::<u64>() as f64
                / w.iter().map(|p| p.evaluated).sum::<u64>() as f64
        })
    }
}

/// One pass: set-up (kernel contexts, space, fresh store) then the timed
/// explore, with allocations counted around the explore call when `traced`.
fn pass(
    work: &WorkDir,
    (budgets, latencies): &(Vec<u64>, Vec<u64>),
    traced: bool,
) -> Result<(Pass, Vec<PointRecord>), String> {
    let started = Instant::now();
    // Every pass removes its store before the next one opens it.
    let dir = work.path().join("pass");
    let space = points::space(budgets, latencies);
    let mut store = ShardedStore::open(&dir, SHARDS).map_err(|err| err.to_string())?;
    let setup_s = started.elapsed().as_secs_f64();

    if traced {
        alloc_count::start();
    }
    let cpu = util::process_cpu_us();
    let timed = Instant::now();
    let run = Explorer::new(util::nproc()).explore(&space, &mut store);
    let wall_s = timed.elapsed().as_secs_f64();
    let cpu_us = util::process_cpu_us() - cpu;
    let allocs = if traced { alloc_count::stop() } else { 0 };

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let run = run.map_err(|err| err.to_string())?;
    if run.cache_hits != 0 || run.evaluated != space.len() {
        return Err(format!(
            "cold pass answered {} hits and evaluated {} of {} points",
            run.cache_hits,
            run.evaluated,
            space.len()
        ));
    }
    let pass = Pass {
        setup_s,
        wall_s,
        cpu_us,
        allocs,
        evaluated: run.evaluated as u64,
        infeasible: run.records.iter().filter(|r| !r.feasible).count() as u64,
    };
    Ok((pass, run.records))
}

fn phase(
    work: &WorkDir,
    out: &mut Outcome,
    expected: &Expected,
    axes: &(Vec<u64>, Vec<u64>),
    duration: Duration,
    min_passes: usize,
    traced: bool,
) -> Phase {
    let points = (axes.0.len() * axes.1.len() * 72) as u64;
    let mut phase = Phase {
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut timed = 0.0;
    while timed < duration.as_secs_f64() || phase.passes.len() < min_passes {
        phase.attempted += points;
        match pass(work, axes, traced) {
            Ok((pass, records)) => {
                let wrong = records.iter().filter(|r| !expected.matches(r)).count();
                out.check(wrong == 0, || {
                    let first = records
                        .iter()
                        .find(|r| !expected.matches(r))
                        .expect("one is wrong");
                    format!(
                        "{wrong} explore_cold records differ from expected, e.g. {}",
                        first.canonical
                    )
                });
                timed += pass.wall_s;
                phase.passes.push(pass);
            }
            Err(err) => {
                phase.failed += points;
                out.check(false, || format!("explore pass failed: {err}"));
                break;
            }
        }
    }
    phase
}

pub fn layer_space(seed: u64) -> DesignSpace {
    let axes = points::seeded_axes(seed, 1, points::BUDGETS, PASS_BUDGETS, PASS_LATENCIES);
    points::space(&axes.0, &axes.1)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let axes = points::seeded_axes(ctx.seed, 1, points::BUDGETS, PASS_BUDGETS, PASS_LATENCIES);
    let expected = Expected::load();
    let work = WorkDir::new(&ctx.work, "explore_cold");

    // One unmeasured pass first, so page faults and lazy statics of the
    // first pass do not land in the tail.
    let warm = phase(&work, out, &expected, &axes, Duration::ZERO, 1, false);
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let main = phase(
        &work,
        out,
        &expected,
        &axes,
        Duration::from_secs_f64(seconds),
        MIN_PASSES,
        false,
    );
    out.attempted = main.attempted + warm.attempted;
    out.failed = main.failed + warm.failed;

    let setups: Vec<f64> = main.passes.iter().map(|p| p.setup_s).collect();
    out.metric("setup_s", util::median(&setups));
    out.metric("ops_per_s", main.rate());
    out.metric("latency_p50_us", main.latency_us(0.5));
    out.metric("latency_p99_us", main.latency_us(0.99));
    out.metric("cpu_us_per_op", main.cpu_us_per_op());
    out.samples.push(("passes", main.passes.len() as u64));
    out.samples
        .push(("time_windows", main.windows().len() as u64));
    out.samples.push((
        "points_per_pass",
        main.passes.first().map_or(0, |p| p.evaluated),
    ));

    if ctx.trace {
        let traced = phase(
            &work,
            out,
            &expected,
            &axes,
            Duration::from_secs_f64(seconds),
            MIN_PASSES,
            true,
        );
        let allocs: u64 = traced.passes.iter().map(|p| p.allocs).sum();
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.metric(
            "process.allocs_per_op",
            allocs as f64 / traced.evaluated() as f64,
        );
        out.metric(
            "bench.trace_overhead_pct",
            (1.0 - traced.rate() / main.rate()) * 100.0,
        );

        let infeasible: u64 = main.passes.iter().map(|p| p.infeasible).sum();
        out.metric(
            "explore.infeasible_share",
            infeasible as f64 / main.evaluated() as f64,
        );
        // Evaluation time summed point by point on one thread, against the
        // parallel pass's wall time × jobs.
        let space = points::space(&axes.0, &axes.1);
        let started = Instant::now();
        for point in space.points() {
            std::hint::black_box(srra_explore::evaluate_point(
                &space.kernels()[point.kernel_index],
                &point,
            ));
        }
        let serial = started.elapsed().as_secs_f64();
        out.metric(
            "explore.busy_share",
            serial / (main.latency_us(0.5) / 1e6 * util::nproc() as f64),
        );
    }
}
