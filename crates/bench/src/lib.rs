//! # fastmm-bench — experiment harness regenerating every table and figure
//!
//! One module per experiment family (see DESIGN.md §4 for the experiment
//! index). Each produces plain-text tables comparing *paper formula* vs
//! *measured* quantities; the `repro_*` binaries print them, and
//! EXPERIMENTS.md records a snapshot. Shapes (who wins, scaling ratios,
//! crossovers) are the reproduction target — absolute constants depend on
//! the simulated machine.

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;

/// Path of a benchmark artifact (`BENCH_seq.json`, `BENCH_dist.json`, …)
/// at the root of the workspace the binary is run in: the nearest
/// directory at or above the current directory whose `Cargo.toml`
/// declares `[workspace]` (see [`workspace_root_from`]). Resolved at run
/// time, so a binary copied out of (or a `target/` copied into) another
/// checkout writes into the checkout it runs in, never the one it was
/// compiled in. The emitted files are committed, so the perf trajectory
/// diffs across PRs.
///
/// Exits the process with status 1, naming the directory, when no
/// workspace encloses the current directory — an artifact written
/// anywhere else would be silently lost.
pub fn bench_artifact_path(name: &str) -> String {
    let cwd = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("error: cannot read the current directory: {e}");
        std::process::exit(1)
    });
    match workspace_root_from(&cwd) {
        Ok(root) => root.join(name).display().to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1)
        }
    }
}

/// The nearest directory at or above `start` holding a `Cargo.toml` that
/// declares `[workspace]`, or an error naming `start`.
pub fn workspace_root_from(start: &std::path::Path) -> Result<std::path::PathBuf, String> {
    let declares_workspace = |dir: &std::path::Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
    };
    start
        .ancestors()
        .find(|dir| declares_workspace(dir))
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| {
            format!(
                "no Cargo.toml declaring [workspace] at or above {}; \
                 run from inside the repository to write benchmark artifacts",
                start.display()
            )
        })
}

/// Exit code the `repro_*` binaries use when a simulated rank fails.
pub const RANK_FAILURE_EXIT_CODE: i32 = 2;

/// Render a [`fastmm_parsim::RankFailed`] as the one-line structured
/// stderr report the `repro_*` binaries emit before exiting nonzero:
/// `FASTMM_RUN_FAILED {...}` with the failing rank, panic payload, and —
/// when the failure came from a scheduled
/// [`FaultPlan`](fastmm_parsim::FaultPlan) — its injected provenance.
/// CI and chaos harnesses grep for the `FASTMM_RUN_FAILED` prefix.
pub fn rank_failure_report(context: &str, err: &fastmm_parsim::RankFailed) -> String {
    let injected = match &err.injected {
        Some(inj) => format!(
            "{{\"kind\": \"{}\", \"rank\": {}, \"step\": {}}}",
            inj.kind, inj.rank, inj.step
        ),
        None => "null".to_string(),
    };
    format!(
        "FASTMM_RUN_FAILED {{\"context\": {context:?}, \"rank\": {}, \
         \"payload\": {:?}, \"injected\": {injected}}}",
        err.rank, err.payload
    )
}

/// Print the structured failure report to stderr and exit with
/// [`RANK_FAILURE_EXIT_CODE`] — the `repro_*` binaries' shared path for
/// a failed simulated run (a panicking rank must not look like success
/// to the harness driving the binary).
pub fn exit_on_rank_failure(context: &str, err: &fastmm_parsim::RankFailed) -> ! {
    eprintln!("{}", rank_failure_report(context, err));
    std::process::exit(RANK_FAILURE_EXIT_CODE);
}

#[cfg(test)]
mod tests {
    use super::workspace_root_from;

    #[test]
    fn workspace_root_is_found_at_run_time_from_any_subdirectory() {
        let tmp = std::env::temp_dir().join(format!("fastmm-ws-root-{}", std::process::id()));
        let ws = tmp.join("ws");
        let deep = ws.join("crates").join("member").join("src");
        std::fs::create_dir_all(&deep).unwrap();
        std::fs::write(
            ws.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/member\"]\n",
        )
        .unwrap();
        // A member manifest without [workspace] is walked past.
        std::fs::write(
            ws.join("crates").join("member").join("Cargo.toml"),
            "[package]\nname = \"member\"\n[workspace.dependencies]\n",
        )
        .unwrap();
        assert_eq!(workspace_root_from(&deep).unwrap(), ws);
        assert_eq!(workspace_root_from(&ws).unwrap(), ws);

        // Outside any workspace: the error names the starting directory.
        let lone = tmp.join("lone");
        std::fs::create_dir_all(&lone).unwrap();
        let err = workspace_root_from(&lone).unwrap_err();
        assert!(err.contains(&lone.display().to_string()), "{err}");
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
