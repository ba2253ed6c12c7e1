//! `srra explore` and `srra migrate`: the local design-space sweep and the
//! result-cache flags they share.

use srra_explore::{
    exploration_csv, import_jsonl, render_exploration, DesignSpace, Exploration, Explorer,
    MemoryStore, ResultStore, SegmentStore, StoreError,
};
use srra_serve::ShardedStore;

use crate::args::{Args, Axes};
use crate::local::{algorithm_by_name, kernel_by_name};
use crate::{failed, CliError};

/// The result-cache flags `explore` and `migrate` share.
#[derive(Default)]
struct CacheArgs {
    cache: Option<String>,
    cache_dir: Option<String>,
    shards: Option<usize>,
}

impl CacheArgs {
    /// Parses `flag` if it is a cache flag, taking its value from `args`;
    /// returns whether it was one.
    fn parse_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, CliError> {
        match flag {
            "--cache" => self.cache = Some(args.value("--cache")?.to_owned()),
            "--cache-dir" => self.cache_dir = Some(args.value("--cache-dir")?.to_owned()),
            "--shards" => self.shards = Some(args.positive("--shards")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn check(&self, command: &str) -> Result<(), CliError> {
        if self.cache.is_some() && self.cache_dir.is_some() {
            return Err(CliError(format!(
                "{command}: --cache and --cache-dir are mutually exclusive"
            )));
        }
        if self.shards.is_some() && self.cache_dir.is_none() {
            return Err(CliError(format!("{command}: --shards needs --cache-dir")));
        }
        Ok(())
    }

    /// Opens the `--cache` file, reporting a truncated corrupt tail on
    /// stderr the way `ShardedStore::open` does for each shard.
    fn open_segment(path: &str) -> Result<SegmentStore, CliError> {
        let store = SegmentStore::open(path)
            .map_err(|err| CliError(format!("cannot open cache `{path}`: {err}")))?;
        if let Some(torn) = store.torn_bytes() {
            eprintln!("srra: truncated corrupt cache tail `{path}`: bytes {torn:?} dropped");
        }
        Ok(store)
    }

    fn open_sharded(&self, dir: &str) -> Result<ShardedStore, CliError> {
        ShardedStore::open(dir, self.shards.unwrap_or(4))
            .map_err(|err| CliError(format!("cannot open cache dir `{dir}`: {err}")))
    }
}

/// The design space `axes` names, resolved.
fn design_space(axes: &Axes) -> Result<DesignSpace, CliError> {
    let kernels = axes.kernels.iter().map(|name| kernel_by_name(name));
    let allocators = axes.algos.iter().map(|name| algorithm_by_name(name));
    // The serve protocol's resolver, so `--devices` accepts the same
    // spellings everywhere.
    let devices = axes
        .devices
        .iter()
        .map(|name| srra_serve::device_by_name(name).map_err(CliError));
    Ok(DesignSpace::new()
        .with_kernels(kernels.collect::<Result<Vec<_>, _>>()?)
        .with_allocators(&allocators.collect::<Result<Vec<_>, _>>()?)
        .with_budgets(&axes.budgets)
        .with_ram_latencies(&axes.latencies)
        .with_devices(devices.collect::<Result<_, _>>()?))
}

/// Runs the exploration of `space` over `store` and reports its cache
/// statistics: one line on stderr, so stdout stays byte-identical between a
/// cold run and a fully cached re-run, and the `--stats-json` object, left
/// open so the sharded backend can add its per-shard record counts.
fn explore_with_store<S>(
    space: &DesignSpace,
    jobs: usize,
    store: &mut S,
    backend: &str,
) -> Result<(Exploration, String), CliError>
where
    S: ResultStore,
    S::Error: std::fmt::Display,
{
    let run = Explorer::new(jobs)
        .explore(space, store)
        .map_err(failed("exploration failed"))?;
    let stored = store.len().map_err(failed("exploration failed"))?;
    let (points, hits, evaluated) = (run.records.len(), run.cache_hits, run.evaluated);
    eprintln!(
        "explore: {points} points, {hits} cache hits, {evaluated} evaluated with {jobs} jobs (store holds {stored} records)"
    );
    let stats = format!(
        "{{\"points\":{points},\"cache_hits\":{hits},\"evaluated\":{evaluated},\"jobs\":{jobs},\"store_records\":{stored},\"backend\":\"{backend}\""
    );
    Ok((run, stats))
}

pub(crate) fn cmd_explore(args: &[String]) -> Result<String, CliError> {
    let mut axes = Axes::default();
    let mut jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut cache = CacheArgs::default();
    let mut csv = false;
    let mut stats_json = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        if cache.parse_flag(flag, &mut args)? {
            continue;
        }
        if axes.parse_flag(flag, &mut args)? {
            // Resolving after every axis flag reports the first bad name on
            // the line, before any later flag is read.
            design_space(&axes)?;
            continue;
        }
        match flag {
            "--jobs" => jobs = args.positive("--jobs")?,
            "--csv" => csv = true,
            "--stats-json" => stats_json = Some(args.value("--stats-json")?),
            other => {
                return Err(CliError::with_usage(format!(
                    "unknown explore flag `{other}`"
                )))
            }
        }
    }
    let axes = axes.finish("explore")?;
    cache.check("explore")?;
    let space = &design_space(&axes)?;
    let (run, stats) = match (&cache.cache, &cache.cache_dir) {
        (Some(path), None) => {
            let mut store = CacheArgs::open_segment(path)?;
            explore_with_store(space, jobs, &mut store, "segment")?
        }
        (None, Some(dir)) => {
            let mut store = cache.open_sharded(dir)?;
            let (run, mut stats) = explore_with_store(space, jobs, &mut store, "sharded")?;
            let shards = store
                .shard_sizes()
                .map_err(failed("cannot read shard sizes"))?;
            let shards: Vec<String> = shards.iter().map(usize::to_string).collect();
            stats.push_str(&format!(",\"shards\":[{}]", shards.join(",")));
            (run, stats)
        }
        _ => explore_with_store(space, jobs, &mut MemoryStore::new(), "memory")?,
    };
    if let Some(path) = stats_json {
        std::fs::write(path, stats + "}\n")
            .map_err(|err| CliError(format!("cannot write stats to `{path}`: {err}")))?;
    }
    Ok(if csv {
        exploration_csv(&run)
    } else {
        render_exploration(&run)
    })
}

/// `srra migrate`: copies JSON-lines caches of earlier versions into a
/// segment cache through [`import_jsonl`]; the sources are only read.
pub(crate) fn cmd_migrate(args: &[String]) -> Result<String, CliError> {
    let mut cache = CacheArgs::default();
    let mut sources = Vec::new();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        if !cache.parse_flag(arg, &mut args)? {
            sources.push(arg);
        }
    }
    cache.check("migrate")?;
    match (&cache.cache, &cache.cache_dir, sources.is_empty()) {
        (Some(path), None, false) => migrate_into(&sources, &mut CacheArgs::open_segment(path)?),
        (None, Some(dir), false) => migrate_into(&sources, &mut cache.open_sharded(dir)?),
        _ => Err(CliError::with_usage(
            "migrate needs JSON-lines files and --cache or --cache-dir",
        )),
    }
}

fn migrate_into<S>(sources: &[&str], store: &mut S) -> Result<String, CliError>
where
    S: ResultStore,
    S::Error: From<StoreError> + std::fmt::Display,
{
    sources
        .iter()
        .map(|source| {
            let done = import_jsonl(source, store)
                .map_err(|err| CliError(format!("cannot migrate `{source}`: {err}")))?;
            Ok(format!(
                "migrate: {source}: {} migrated, {} duplicates\n",
                done.migrated, done.duplicates
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use srra_core::MemoryCostModel;

    use crate::run;
    use crate::tests::args;

    #[test]
    fn registry_only_strategies_flow_through_explore_untouched() {
        // `greedy` has no AllocatorKind variant and is never named by the
        // explore/bench/cli layers; resolving it here proves a new allocator
        // needs only its impl + registry entry.
        let out = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--algos",
            "greedy,cpa",
            "--budgets",
            "8,32",
            "--jobs",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("GR-RA"));
        assert!(out.contains("CPA-RA"));
    }

    #[test]
    fn explore_stats_json_writes_machine_readable_stats() {
        // Per-process dir: concurrent test runs must not share cache files.
        let dir = std::env::temp_dir().join(format!("srra-cli-stats-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats_path = dir.join("stats.json");
        let cache_path = dir.join("cache.seg");
        let _ = std::fs::remove_file(&stats_path);
        let _ = std::fs::remove_file(&cache_path);
        let explore_args = |stats: &std::path::Path| {
            args(&[
                "explore",
                "--kernel",
                "fir",
                "--budgets",
                "8,16",
                "--jobs",
                "1",
                "--cache",
                cache_path.to_str().unwrap(),
                "--stats-json",
                stats.to_str().unwrap(),
            ])
        };
        let cold_out = run(&explore_args(&stats_path)).unwrap();
        let cold_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert_eq!(
            cold_stats.trim(),
            "{\"points\":6,\"cache_hits\":0,\"evaluated\":6,\"jobs\":1,\"store_records\":6,\"backend\":\"segment\"}"
        );
        // Warm re-run: stdout stays byte-identical, the stats file tells the
        // two runs apart.
        let warm_out = run(&explore_args(&stats_path)).unwrap();
        let warm_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert_eq!(warm_out, cold_out);
        assert_eq!(
            warm_stats.trim(),
            "{\"points\":6,\"cache_hits\":6,\"evaluated\":0,\"jobs\":1,\"store_records\":6,\"backend\":\"segment\"}"
        );
        let _ = std::fs::remove_file(&stats_path);
        let _ = std::fs::remove_file(&cache_path);
    }

    /// The two-record JSON-lines fixture of the wire golden tests.
    fn golden_jsonl() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../serve/tests/golden/record.jsonl")
    }

    #[test]
    fn explore_refuses_a_jsonl_cache_file_and_names_migrate() {
        let dir = std::env::temp_dir().join(format!("srra-cli-badmagic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("old.jsonl");
        let bytes = std::fs::read(golden_jsonl()).unwrap();
        std::fs::write(&cache, &bytes).unwrap();
        let err = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--cache",
            cache.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.0.contains("bad magic"), "{err}");
        assert!(err.0.contains("srra migrate"), "{err}");
        assert_eq!(std::fs::read(&cache).unwrap(), bytes, "source untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrate_copies_a_jsonl_cache_once_and_reports_duplicates_after() {
        let dir = std::env::temp_dir().join(format!("srra-cli-migrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let source = golden_jsonl();
        let before = std::fs::read(&source).unwrap();
        let target = dir.join("cache.seg");
        let migrate = || {
            run(&args(&[
                "migrate",
                source.to_str().unwrap(),
                "--cache",
                target.to_str().unwrap(),
            ]))
            .unwrap()
        };
        assert!(migrate().ends_with(": 2 migrated, 0 duplicates\n"));
        assert!(migrate().ends_with(": 0 migrated, 2 duplicates\n"));
        assert_eq!(std::fs::read(&source).unwrap(), before, "source untouched");
        // The sharded target goes through the same cache flags.
        let sharded = dir.join("shards");
        let out = run(&args(&[
            "migrate",
            source.to_str().unwrap(),
            "--cache-dir",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
        ]))
        .unwrap();
        assert!(out.ends_with(": 2 migrated, 0 duplicates\n"), "{out}");
        for bad in [
            &["migrate", "--cache", "/tmp/x.seg"][..],
            &["migrate", "a.jsonl"],
            &["migrate", "a.jsonl", "--cache", "x", "--shards", "2"],
        ] {
            assert!(run(&args(bad)).is_err(), "{bad:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explore_stats_json_requires_a_value() {
        assert!(run(&args(&["explore", "--stats-json"])).is_err());
    }

    #[test]
    fn explore_with_a_sharded_cache_reports_per_shard_statistics() {
        let dir = std::env::temp_dir().join(format!("srra-cli-shards-test-{}", std::process::id()));
        let cache_dir = dir.join("cache");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stats_path = dir.join("stats.json");
        let explore_args = || {
            args(&[
                "explore",
                "--kernel",
                "fir",
                "--budgets",
                "8,16",
                "--jobs",
                "1",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
                "--shards",
                "3",
                "--stats-json",
                stats_path.to_str().unwrap(),
            ])
        };
        let cold_out = run(&explore_args()).unwrap();
        let cold_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert!(
            cold_stats.contains("\"backend\":\"sharded\""),
            "{cold_stats}"
        );
        assert!(cold_stats.contains("\"evaluated\":6"), "{cold_stats}");
        assert!(cold_stats.contains(",\"shards\":["), "{cold_stats}");
        // The shard list has exactly three entries summing to the store size.
        let shards: Vec<usize> = cold_stats
            .split("\"shards\":[")
            .nth(1)
            .unwrap()
            .split(']')
            .next()
            .unwrap()
            .split(',')
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().sum::<usize>(), 6);
        // Warm re-run: stdout byte-identical, everything a cache hit.
        let warm_out = run(&explore_args()).unwrap();
        let warm_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert_eq!(warm_out, cold_out);
        assert!(warm_stats.contains("\"cache_hits\":6"), "{warm_stats}");
        assert!(
            warm_stats.contains("\"backend\":\"sharded\""),
            "{warm_stats}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explore_rejects_conflicting_cache_flags() {
        assert!(run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--cache",
            "/tmp/x.seg",
            "--cache-dir",
            "/tmp/xdir"
        ]))
        .is_err());
        assert!(run(&args(&["explore", "--kernel", "fir", "--shards", "4"])).is_err());
        assert!(run(&args(&[
            "explore",
            "--shards",
            "0",
            "--cache-dir",
            "/tmp/y"
        ]))
        .is_err());
    }

    #[test]
    fn explore_prints_pareto_tables_and_summary() {
        let out = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--budgets",
            "8,16,32",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("Pareto frontier for fir"));
        assert!(out.contains("best allocator per kernel:"));
        assert!(out.contains("CPA-RA"));
    }

    #[test]
    fn explore_csv_covers_every_design_point() {
        let out = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--budgets",
            "8,32",
            "--algos",
            "fr,cpa",
            "--latencies",
            "1,2",
            "--csv",
            "--jobs",
            "1",
        ]))
        .unwrap();
        // header + 1 kernel x 2 algorithms x 2 budgets x 2 latencies
        assert_eq!(out.lines().count(), 1 + 8);
        assert!(out.starts_with("kernel,algorithm,"));
    }

    #[test]
    fn latencies_past_the_cap_are_refused_before_any_work() {
        let over = (MemoryCostModel::MAX_RAM_LATENCY + 1).to_string();
        let cap = MemoryCostModel::MAX_RAM_LATENCY.to_string();
        for argv in [
            vec![
                "explore",
                "--kernel",
                "fir",
                "--latencies",
                &format!("2,{over}"),
            ],
            // The server address is never dialled: parsing fails first.
            vec![
                "query",
                "--addr",
                "127.0.0.1:1",
                "explore",
                "--latencies",
                &over,
            ],
            vec![
                "query",
                "--addr",
                "127.0.0.1:1",
                "get",
                "fir",
                "cpa",
                "32",
                "--latency",
                &over,
            ],
        ] {
            let err = run(&args(&argv)).expect_err("over-cap latency accepted");
            assert!(
                err.0.contains(&format!(
                    "RAM latency {over} exceeds the cap of {cap} cycles"
                )),
                "{argv:?}: {err}"
            );
        }
        let at_cap = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--algos",
            "cpa",
            "--latencies",
            &cap,
            "--csv",
        ]))
        .expect("the cap itself is accepted");
        assert_eq!(at_cap.lines().count(), 2);
    }

    #[test]
    fn explore_is_deterministic_across_job_counts() {
        let serial = run(&args(&[
            "explore",
            "--kernel",
            "mat",
            "--budgets",
            "16,32",
            "--jobs",
            "1",
        ]));
        let parallel = run(&args(&[
            "explore",
            "--kernel",
            "mat",
            "--budgets",
            "16,32",
            "--jobs",
            "8",
        ]));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn explore_rejects_bad_flags_and_values() {
        assert!(run(&args(&["explore", "--frobnicate"])).is_err());
        assert!(run(&args(&["explore", "--kernel", "nope"])).is_err());
        assert!(run(&args(&["explore", "--budgets", "abc"])).is_err());
        assert!(run(&args(&["explore", "--budgets"])).is_err());
        assert!(run(&args(&["explore", "--jobs", "0"])).is_err());
        assert!(run(&args(&["explore", "--devices", "xcv9000"])).is_err());
        assert!(run(&args(&["explore", "--algos", ","])).is_err());
    }
}
