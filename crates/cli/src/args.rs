//! The argument cursor every command reads its flags through, and the
//! parsers several commands share: the connection flags of `query` and
//! `cluster`, the design-space axes and the `get` point.

use std::str::FromStr;
use std::time::Duration;

use srra_core::MemoryCostModel;
use srra_kernels::paper_suite;
use srra_serve::QueryPoint;

use crate::CliError;

/// A cursor over one command's arguments.
pub(crate) struct Args<'a> {
    rest: &'a [String],
}

impl<'a> Args<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Self { rest: args }
    }

    /// The arguments not read yet.
    pub(crate) fn rest(&self) -> &'a [String] {
        self.rest
    }

    /// The next argument, if any.
    pub(crate) fn next(&mut self) -> Option<&'a str> {
        let (first, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(first)
    }

    /// The value of `flag`: the next argument, or ``{flag} needs a value``.
    pub(crate) fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| CliError(format!("{flag} needs a value")))
    }

    /// The value of `flag` parsed as a number.
    pub(crate) fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse().map_err(|_| invalid(flag, raw))
    }

    /// The value of `flag` parsed as a number of at least 1.
    pub(crate) fn positive<T: FromStr + Default + PartialOrd>(
        &mut self,
        flag: &str,
    ) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .ok()
            .filter(|n| *n > T::default())
            .ok_or_else(|| invalid(flag, raw))
    }

    /// The value of `flag` as a comma list of names.
    pub(crate) fn names(&mut self, flag: &str) -> Result<Vec<String>, CliError> {
        Ok(names(self.value(flag)?))
    }

    /// The value of `flag` as a comma list of numbers.
    pub(crate) fn numbers(&mut self, flag: &str) -> Result<Vec<u64>, CliError> {
        self.value(flag)?
            .split(',')
            .filter(|part| !part.is_empty())
            .map(|part| part.trim().parse().map_err(|_| invalid(flag, part)))
            .collect()
    }
}

/// The names of a comma list, trimmed, blanks dropped.
pub(crate) fn names(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(str::to_owned)
        .collect()
}

fn invalid(flag: &str, raw: &str) -> CliError {
    CliError(format!("invalid {flag} value `{raw}`"))
}

/// Refuses a RAM latency above [`MemoryCostModel::MAX_RAM_LATENCY`].
fn checked_latency(flag: &str, cycles: u64) -> Result<u64, CliError> {
    MemoryCostModel::check_ram_latency(cycles)
        .map_err(|err| CliError(format!("invalid {flag} value: {err}")))
}

/// The connection flags `query` and `cluster` share.  They may appear
/// anywhere on the command line; every other argument keeps its meaning.
#[derive(Default)]
pub(crate) struct ConnectionFlags {
    /// `--binary`: speak the binary wire codec instead of JSON lines.
    pub(crate) binary: bool,
    /// `--trace <id>`: stamp every request with this trace id.
    pub(crate) trace: Option<String>,
    /// `--timeout-ms <n>` if given; `0` means no deadline (`std` rejects
    /// zero-duration socket timeouts).
    pub(crate) timeout: Option<Option<Duration>>,
}

impl ConnectionFlags {
    /// Splits the connection flags out of `args`; the other arguments come
    /// back in order.
    pub(crate) fn split(args: &[String]) -> Result<(Self, Vec<String>), CliError> {
        let mut flags = Self::default();
        let mut rest = Vec::with_capacity(args.len());
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                "--binary" => flags.binary = true,
                "--trace" => flags.trace = Some(args.value("--trace")?.to_owned()),
                "--timeout-ms" => {
                    let ms: u64 = args.number("--timeout-ms")?;
                    flags.timeout = Some((ms > 0).then(|| Duration::from_millis(ms)));
                }
                other => rest.push(other.to_owned()),
            }
        }
        Ok((flags, rest))
    }
}

/// The five design-space axes of `explore`, as names.  Local `explore`
/// resolves them itself; `query explore` and `cluster mget|explore` send
/// them to the servers, which resolve them there.
pub(crate) struct Axes {
    pub(crate) kernels: Vec<String>,
    pub(crate) algos: Vec<String>,
    pub(crate) budgets: Vec<u64>,
    pub(crate) latencies: Vec<u64>,
    pub(crate) devices: Vec<String>,
}

impl Default for Axes {
    fn default() -> Self {
        Self {
            kernels: Vec::new(),
            algos: vec!["fr".into(), "pr".into(), "cpa".into()],
            budgets: vec![32],
            latencies: vec![2],
            devices: vec!["xcv1000".into()],
        }
    }
}

impl Axes {
    /// Parses `flag` if it is an axis flag, taking its value from `args`;
    /// returns whether it was one.
    pub(crate) fn parse_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, CliError> {
        match flag {
            "--kernel" | "--kernels" => {
                for name in args.names("--kernel")? {
                    if name == "all" {
                        self.kernels.extend(paper_kernel_names());
                    } else {
                        self.kernels.push(name);
                    }
                }
            }
            "--algos" | "--algo" => self.algos = args.names("--algos")?,
            "--budgets" => self.budgets = args.numbers("--budgets")?,
            "--latencies" => {
                self.latencies = args
                    .numbers("--latencies")?
                    .into_iter()
                    .map(|cycles| checked_latency("--latencies", cycles))
                    .collect::<Result<_, _>>()?;
            }
            "--devices" => self.devices = args.names("--devices")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Defaults the kernels to the six paper kernels and checks that every
    /// axis has a value.
    pub(crate) fn finish(mut self, command: &str) -> Result<Self, CliError> {
        if self.kernels.is_empty() {
            self.kernels = paper_kernel_names().collect();
        }
        if self.algos.is_empty()
            || self.budgets.is_empty()
            || self.latencies.is_empty()
            || self.devices.is_empty()
        {
            return Err(CliError(format!(
                "{command}: every axis needs at least one value"
            )));
        }
        Ok(self)
    }

    /// The request points of `query explore` and `cluster mget|explore`:
    /// the cross product of the axes `args` names.
    pub(crate) fn points(args: &[String]) -> Result<Vec<QueryPoint>, CliError> {
        let mut axes = Self::default();
        let mut args = Args::new(args);
        while let Some(flag) = args.next() {
            if !axes.parse_flag(flag, &mut args)? {
                return Err(CliError(format!("unknown query explore flag `{flag}`")));
            }
        }
        let axes = axes.finish("query explore")?;
        let mut points = Vec::new();
        for kernel in &axes.kernels {
            for algo in &axes.algos {
                for &budget in &axes.budgets {
                    for &ram_latency in &axes.latencies {
                        for device in &axes.devices {
                            points.push(QueryPoint {
                                kernel: kernel.clone(),
                                algorithm: algo.clone(),
                                budget,
                                ram_latency,
                                device: device.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(points)
    }
}

fn paper_kernel_names() -> impl Iterator<Item = String> {
    paper_suite()
        .into_iter()
        .map(|spec| spec.kernel.name().to_owned())
}

/// Parses a register budget argument.
pub(crate) fn budget(raw: &str) -> Result<u64, CliError> {
    raw.parse()
        .map_err(|_| CliError(format!("invalid register budget `{raw}`")))
}

/// The canonical key of `get <kernel> <algo> <budget> [--latency <n>]
/// [--device <d>]`, the point shape `query get` and `cluster get` share.
pub(crate) fn get_canonical(
    kernel: &str,
    algo: &str,
    budget_arg: &str,
    opts: &[String],
) -> Result<String, CliError> {
    let mut point = QueryPoint::new(kernel, algo, budget(budget_arg)?);
    let mut opts = Args::new(opts);
    while let Some(flag) = opts.next() {
        match flag {
            "--latency" => {
                point.ram_latency = checked_latency("--latency", opts.number("--latency")?)?;
            }
            "--device" => point.device = opts.value("--device")?.to_owned(),
            other => return Err(CliError(format!("unknown get flag `{other}`"))),
        }
    }
    srra_serve::canonical_for(&point).map_err(CliError)
}

/// Parses the flags of `top`: `(interval_ms, once)`, defaulting to a
/// 2-second refresh.
pub(crate) fn top_flags(flags: &[String]) -> Result<(u64, bool), CliError> {
    let mut interval_ms = 2_000;
    let mut once = false;
    let mut flags = Args::new(flags);
    while let Some(flag) = flags.next() {
        match flag {
            "--once" => once = true,
            "--interval-ms" => interval_ms = flags.positive("--interval-ms")?,
            other => return Err(CliError(format!("unknown top flag `{other}`"))),
        }
    }
    Ok((interval_ms, once))
}
