//! The benchmark's own tests: the traced re-walk matches the engine
//! bitwise, generators are seed-deterministic, metric names and units are
//! well-formed and match `BENCHMARK.json`, the FIFO wait/service
//! derivation is right, and the command-line guards hold.

use fastmm_matrix::arena::{multiply_into, ScratchArena};
use fastmm_matrix::scheme::all_schemes;
use fastmm_matrix::tune::DEFAULT_CUTOFF;
use fastmm_matrix::Matrix;
use fmmbench::cli::{self, OutDir};
use fmmbench::report::{self, Metrics, Outcome, END_TO_END, PER_LAYER};
use fmmbench::rewalk::{arena_words, rewalk, WalkCounts};
use fmmbench::stats::{fifo_wait_service, percentile, WaitService};
use fmmbench::trace::Tracer;
use fmmbench::{dist, seq, serve};
use std::path::Path;

#[test]
fn rewalk_is_bitwise_equal_to_multiply_into() {
    let inp = seq::inputs(7, 0, &[1024, 1100]);
    for scheme in seq::schemes() {
        for k in 0..2 {
            let (a, b) = (&inp.a[k], &inp.b[k]);
            let n = a.rows();
            let mut engine = Matrix::zeros(n, n);
            multiply_into(
                &scheme,
                a.view(),
                b.view(),
                &mut engine.view_mut(),
                DEFAULT_CUTOFF,
                &mut ScratchArena::new(),
            );
            let mut walked = Matrix::zeros(n, n);
            let mut tr = Tracer::new();
            let mut counts = WalkCounts::default();
            rewalk(
                &scheme,
                a.view(),
                b.view(),
                &mut walked.view_mut(),
                DEFAULT_CUTOFF,
                &mut ScratchArena::new(),
                &mut tr,
                &mut counts,
                0,
            );
            assert!(walked.bits_eq(&engine), "{} n={n}", scheme.name);
            // The counted words equal the shape-only computation, and
            // every level the recursion visits is spanned.
            assert_eq!(
                counts.words,
                arena_words(&scheme, (n, n, n), DEFAULT_CUTOFF),
                "{} n={n}",
                scheme.name
            );
            assert!(tr.count("arena.encode_a") > 0 && tr.count("pack.leaf") > 0);
            assert_eq!(tr.count("pack.leaf") as u64, counts.leaf_calls);
            // n=1100 pads at 275 (the third level); n=1024 never pads.
            assert_eq!(
                tr.count("arena.pad") > 0,
                n == 1100,
                "{} n={n}",
                scheme.name
            );
        }
    }
}

#[test]
fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
    let sizes = [33, 64];
    let (x, y, z) = (
        seq::inputs(1, 0, &sizes),
        seq::inputs(1, 0, &sizes),
        seq::inputs(2, 0, &sizes),
    );
    for k in 0..sizes.len() {
        assert!(x.a[k].bits_eq(&y.a[k]) && x.b[k].bits_eq(&y.b[k]));
        assert!(!x.a[k].bits_eq(&z.a[k]) && !x.b[k].bits_eq(&z.b[k]));
    }

    let schemes = all_schemes();
    let p1 = serve::pool(1, &schemes, DEFAULT_CUTOFF).expect("pool");
    let p1b = serve::pool(1, &schemes, DEFAULT_CUTOFF).expect("pool");
    let p2 = serve::pool(2, &schemes, DEFAULT_CUTOFF).expect("pool");
    assert_eq!(p1.requests, p1b.requests);
    assert_ne!(p1.requests, p2.requests);
    let same = |p: &serve::Pool, q: &serve::Pool| {
        p.templates.iter().zip(&q.templates).all(|(s, t)| {
            s.job.scheme == t.job.scheme && s.job.a.bits_eq(&t.job.a) && s.golden.bits_eq(&t.golden)
        })
    };
    assert!(same(&p1, &p1b));
    assert!(!same(&p1, &p2));
    assert!(p1
        .requests
        .iter()
        .all(|r| (1..=serve::MAX_BATCH).contains(&r.len())));

    let (d1, d1b, d2) = (dist::inputs(1), dist::inputs(1), dist::inputs(2));
    for k in 0..d1.len() {
        assert!(d1[k].0.bits_eq(&d1b[k].0) && d1[k].1.bits_eq(&d1b[k].1));
        assert!(!d1[k].0.bits_eq(&d2[k].0));
    }
}

#[test]
fn metric_names_are_well_formed_carry_units_and_match_benchmark_json() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(report::valid_name(name), "bad metric name {name}");
        assert!(report::valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "duplicate metric {name}");
    }
    // Every printed metric carries its unit.
    let mut m = Metrics::default();
    for (name, _) in END_TO_END {
        m.set(name, 1.5);
    }
    let json = report::metrics_json(&m, END_TO_END, false).expect("all set");
    for (name, unit) in END_TO_END {
        let entry = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
        assert!(json.contains(&entry), "{entry} missing from {json}");
    }
    assert!(report::metrics_json(&Metrics::default(), END_TO_END, false).is_err());
    let line = report::result_line(&Outcome::default(), &json);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {")
    );

    // BENCHMARK.json declares exactly these metrics, with these units.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let section = |key: &str| {
        let start = bench.find(&format!("\"{key}\"")).expect(key);
        let end = bench[start..].find(']').expect("section end") + start;
        bench[start..end].to_string()
    };
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let s = section(key);
        assert_eq!(s.matches("\"name\"").count(), list.len(), "{key} count");
        for (name, unit) in list {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(s.contains(&decl), "{key}: {decl} missing");
        }
    }
    for w in cli::Workload::ALL {
        assert!(bench.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn fifo_derivation_on_a_synthetic_timeline() {
    // Worker idle at t=0. Job A enqueued at 0 and done at 2 (no wait,
    // service 2); B enqueued at 1, starts when A completes (wait 1,
    // service 1, done at 3); C arrives at 5 to an idle worker (no wait,
    // done at 5.5); D and E arrive together at 6 and run back to back.
    let ws = fifo_wait_service(&[(0.0, 2.0), (1.0, 3.0), (5.0, 5.5), (6.0, 6.25), (6.0, 7.0)]);
    let want = [
        WaitService {
            wait: 0.0,
            service: 2.0,
        },
        WaitService {
            wait: 1.0,
            service: 1.0,
        },
        WaitService {
            wait: 0.0,
            service: 0.5,
        },
        WaitService {
            wait: 0.0,
            service: 0.25,
        },
        WaitService {
            wait: 0.25,
            service: 0.75,
        },
    ];
    assert_eq!(ws, want);
    // The serve timeline orders jobs by completion before deriving.
    let rec = |submit_at: f64, done: Vec<f64>| serve::Record {
        submit_at,
        done,
        ..serve::Record::default()
    };
    let t = serve::job_timeline(&[rec(1.0, vec![3.0]), rec(0.0, vec![2.0])]);
    assert_eq!(t, vec![(0.0, 2.0), (1.0, 3.0)]);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.5), 50.0);
    assert_eq!(percentile(&xs, 0.99), 99.0);
    assert_eq!(percentile(&xs[..10], 0.99), 10.0);
}

#[test]
fn output_directory_stays_under_the_working_directory() {
    for bad in ["", "/tmp/x", "../x", "a/../../x", "a/.."] {
        assert!(
            OutDir::validate(Path::new(bad)).is_err(),
            "{bad:?} accepted"
        );
    }
    for good in [".fmmbench-out", "a/b", "./a"] {
        assert!(
            OutDir::validate(Path::new(good)).is_ok(),
            "{good:?} rejected"
        );
    }
    let dir = OutDir::create(Path::new(".fmmbench-out/test")).expect("relative dir");
    assert!(dir.file("spans-x.jsonl").is_ok());
    for bad in ["../x", "a/b", ".hidden", "", "/abs"] {
        assert!(dir.file(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn engine_overrides_in_the_environment_are_refused() {
    assert!(cli::refuse_engine_env(|_| None).is_ok());
    for k in cli::REFUSED_ENV {
        let err = cli::refuse_engine_env(|v| (v == k).then(|| "64".to_string()))
            .expect_err("must refuse");
        assert!(err.contains(k));
    }
}

#[test]
fn command_line_requires_every_setting() {
    let base: Vec<String> = [
        "--workload",
        "seq_fast",
        "--seed",
        "3",
        "--seconds",
        "2",
        "--trace",
        "1",
        "--ref-nominal-ms",
        "3.7",
    ]
    .map(String::from)
    .to_vec();
    let args = cli::parse(&base).expect("valid");
    assert_eq!(args.workload, cli::Workload::SeqFast);
    assert!(args.trace && args.seed == 3 && args.ref_nominal_ms == 3.7);
    assert!(
        cli::parse(&base[..base.len() - 2]).is_err(),
        "nominal is required"
    );
    for (i, bad) in [(1, "nope"), (3, "-1"), (5, "0"), (7, "2"), (9, "inf")] {
        let mut v = base.clone();
        v[i] = bad.into();
        assert!(
            cli::parse(&v).is_err(),
            "{bad} accepted for {}",
            base[i - 1]
        );
    }
    let mut v = base.clone();
    v.extend(["--bogus".to_string(), "1".to_string()]);
    assert!(cli::parse(&v).is_err());
}
