//! Command-line entry point; see the crate docs and `README.md`.

use fmmbench::cli::{self, OutDir, Workload};
use fmmbench::host::{self, HostClock};
use fmmbench::report::{self, END_TO_END, PER_LAYER};
use fmmbench::trace::Tracer;
use fmmbench::{dist, par, seq, serve};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fmmbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv).map_err(|e| format!("{e}\n{}", cli::USAGE))?;
    cli::refuse_engine_env(|k| std::env::var_os(k).map(|v| v.to_string_lossy().into_owned()))?;
    let out = OutDir::create(&args.out)?;
    let cutoff = fastmm_matrix::tune::default_cutoff();
    let nproc = host::cpus();
    // Workloads whose threads take turns (one thread; the event runtime's
    // one rank at a time; serve's client and single shard) are pinned to
    // one CPU and probe on it; `par_fast` uses, and probes, every CPU.
    let (pinned, probe_threads) = match args.workload {
        Workload::SeqFast | Workload::DistCaps | Workload::ServeSmall => {
            (host::pin_to_one_cpu(), 1)
        }
        Workload::ParFast => (None, nproc),
    };
    let mut clock = HostClock::new(args.ref_nominal_ms, probe_threads);
    let mut tracer = args.trace.then(Tracer::new);
    let wall = Instant::now();
    let (seed, secs) = (args.seed, args.seconds);
    let run = match args.workload {
        Workload::SeqFast => seq::run(seed, secs, &mut clock, tracer.as_mut()),
        Workload::ParFast => par::run(seed, secs, &mut clock, tracer.as_mut()),
        Workload::ServeSmall => serve::run(seed, secs, &mut clock, tracer.as_mut()),
        Workload::DistCaps => dist::run(seed, secs, &mut clock, tracer.as_mut()),
    };
    let wall = wall.elapsed().as_secs_f64();
    let mut metrics = run.metrics;
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    metrics.set("ok_frac", run.outcome.ok_frac());
    metrics.set("host.probe_ms", clock.median_ms());
    metrics.set(
        "host.probe_spread",
        fmmbench::stats::rel_iqr(&clock.samples),
    );

    let meta = host::metadata_json(&clock, cutoff, nproc, pinned);
    println!("{{\"meta\": {meta}}}");
    let tag = format!("{}-seed{}", args.workload.name(), args.seed);
    let write = |name: String, body: &str| {
        std::fs::write(out.file(&name)?, body).map_err(|e| format!("{name}: {e}"))
    };
    write(format!("meta-{tag}.json"), &meta)?;
    let list = match tracer {
        Some(tr) => {
            metrics.set("trace.overhead_frac", tr.self_secs() / wall);
            let path = out.file(&format!("spans-{tag}.jsonl"))?;
            tr.write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            PER_LAYER
        }
        None => {
            // The raw (un-normalised) host view of the same run.
            println!(
                "{{\"raw\": {{\"gflops_eq\": {}, \"ref_measured_ms\": {}}}}}",
                metrics.get("host.gflops_eq_raw").unwrap_or(0.0),
                clock.median_ms()
            );
            END_TO_END
        }
    };
    let json = report::metrics_json(&metrics, list, args.trace)?;
    Ok(report::result_line(&run.outcome, &json))
}
