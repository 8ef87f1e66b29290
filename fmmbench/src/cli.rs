//! Command line, environment guard and the output directory.

use std::path::{Component, Path, PathBuf};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of `multiply_scheme` on one thread at the sizes where
    /// the recursion runs.
    SeqFast,
    /// Closed loop of `multiply_scheme_parallel` on every core.
    ParFast,
    /// Open loop of small batched requests against one serve shard.
    ServeSmall,
    /// Closed loop of `dist_caps` on the event runtime.
    DistCaps,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SeqFast,
        Workload::ParFast,
        Workload::ServeSmall,
        Workload::DistCaps,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqFast => "seq_fast",
            Workload::ParFast => "par_fast",
            Workload::ServeSmall => "serve_small",
            Workload::DistCaps => "dist_caps",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time (s).
    pub seconds: f64,
    /// Run the traced (per-layer) variant instead of the timed one.
    pub trace: bool,
    /// Directory every file the benchmark writes goes under.
    pub out: PathBuf,
    /// Reference-loop time (ms) normalised metrics are scaled to; fixed
    /// in `BENCHMARK.json`'s command line.
    pub ref_nominal_ms: f64,
}

/// Default output directory, relative to the working directory.
pub const DEFAULT_OUT: &str = ".fmmbench-out";

/// Engine environment overrides the benchmark refuses to run under: each
/// would silently change what a workload measures.
pub const REFUSED_ENV: [&str; 3] = ["FASTMM_CUTOFF", "FASTMM_THREADS", "FASTMM_MEMORY_BUDGET"];

/// Usage text.
pub const USAGE: &str = "usage: fmmbench --workload <seq_fast|par_fast|serve_small|dist_caps> \
--seed <n> --seconds <s> --trace <0|1> --ref-nominal-ms <ms> [--out <dir>]";

fn positive(flag: &str, v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("{flag}: expected a positive number, got {v:?}")),
    }
}

/// Parse the command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut get = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        if get.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| get.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = Workload::parse(take("--workload")?)?;
    let seed_s = take("--seed")?;
    let seed = seed_s
        .parse::<u64>()
        .map_err(|_| format!("--seed: expected an unsigned integer, got {seed_s:?}"))?;
    let seconds = positive("--seconds", take("--seconds")?)?;
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace: expected 0 or 1, got {t:?}")),
    };
    let ref_nominal_ms = positive("--ref-nominal-ms", take("--ref-nominal-ms")?)?;
    let out = PathBuf::from(get.remove("--out").unwrap_or(DEFAULT_OUT));
    if let Some(flag) = get.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
        ref_nominal_ms,
    })
}

/// Refuse to run when any engine override in [`REFUSED_ENV`] is set.
pub fn refuse_engine_env(get: impl Fn(&str) -> Option<String>) -> Result<(), String> {
    let set: Vec<&str> = REFUSED_ENV
        .into_iter()
        .filter(|k| get(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the workloads fix the engine settings",
            set.join(", ")
        ))
    }
}

/// The output directory, checked to stay under the working directory: it
/// must be relative, contain no `..`, and (once created) resolve inside
/// the working directory even through symbolic links.
#[derive(Debug)]
pub struct OutDir(PathBuf);

impl OutDir {
    /// Validate `raw` lexically, create it, and check where it resolves.
    pub fn create(raw: &Path) -> Result<Self, String> {
        Self::validate(raw)?;
        std::fs::create_dir_all(raw).map_err(|e| format!("{}: {e}", raw.display()))?;
        let cwd = std::env::current_dir()
            .and_then(|d| d.canonicalize())
            .map_err(|e| format!("working directory: {e}"))?;
        let dir = raw
            .canonicalize()
            .map_err(|e| format!("{}: {e}", raw.display()))?;
        if !dir.starts_with(&cwd) {
            return Err(format!(
                "output directory {} resolves outside the working directory",
                raw.display()
            ));
        }
        Ok(OutDir(dir))
    }

    /// The lexical rules alone: non-empty, relative, no `..` component.
    pub fn validate(raw: &Path) -> Result<(), String> {
        if raw.as_os_str().is_empty() {
            return Err("empty output directory".into());
        }
        for c in raw.components() {
            match c {
                Component::Normal(_) | Component::CurDir => {}
                Component::ParentDir => {
                    return Err(format!("output directory {} contains ..", raw.display()))
                }
                Component::RootDir | Component::Prefix(_) => {
                    return Err(format!("output directory {} is absolute", raw.display()))
                }
            }
        }
        Ok(())
    }

    /// Path of file `name` inside the directory. `name` must be a plain
    /// file name made of `[A-Za-z0-9_.-]` that does not start with a dot.
    pub fn file(&self, name: &str) -> Result<PathBuf, String> {
        let ok = !name.is_empty()
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        if ok {
            Ok(self.0.join(name))
        } else {
            Err(format!("refusing output file name {name:?}"))
        }
    }
}
