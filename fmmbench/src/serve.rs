//! `serve_small`: a closed loop of small batched requests against one
//! serve shard, through the wire format both ways.
//!
//! One client thread keeps a fixed number of requests in flight: it
//! encodes, decodes and submits requests until that many are
//! outstanding, then waits for the oldest, checks it, and issues the
//! next. The engine runs one worker shard; client and shard share the one
//! CPU the workload is pinned to. Every job is below the cutoff, so the
//! arena's encode/decode never runs: this workload is where queueing,
//! dispatch and the wire format show.
//!
//! The loop is closed rather than open: on a shared 2-vCPU VM an open
//! loop's p99 and its highest sustainable rate are set by host stalls —
//! every request due during a stall waits it out — and read up to 1.9x
//! apart between runs of the same code (see `README.md`). A closed loop
//! lets a stall delay only the requests in flight.

use crate::check::digest;
use crate::closed;
use crate::host::HostClock;
use crate::report::{Metrics, Outcome};
use crate::rng::{random_matrix, SplitMix64};
use crate::stats::{fifo_wait_service, median, percentile};
use crate::trace::Tracer;
use crate::Run;
use fastmm_matrix::arena::ScratchArena;
use fastmm_matrix::pack::multiply_packed_into;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::BilinearScheme;
use fastmm_matrix::Matrix;
use fastmm_serve::{
    decode_request, decode_response, encode_request, encode_response, BatchTicket, EngineConfig,
    EngineHandle, Job, JobResult, Submit,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Operand sides: every `(m, k, n)` over these is one template shape.
pub const SIDES: [usize; 4] = [32, 64, 96, 128];
/// Schemes a template may use (picked per template by the seed).
pub const SCHEMES: [&str; 3] = ["strassen", "winograd", "classical2"];
/// Length of the seeded request list the client cycles through.
pub const REQUESTS: usize = 4096;
/// Largest batch (jobs per request).
pub const MAX_BATCH: usize = 4;
/// Requests in flight in the low-load phase: no queueing, so latency is
/// the wire, dispatch and service path alone.
pub const LO_INFLIGHT: usize = 1;
/// Requests in flight in the high-load phase: the worker always has
/// queued work, and the phase's completion rate is `max_rate_jobs_s`.
pub const HI_INFLIGHT: usize = 4;

/// One job template with its golden product.
pub struct Template {
    /// The job (engine scheme index and operands).
    pub job: Job,
    /// `multiply_scheme` at the engine cutoff, computed in set-up.
    pub golden: Matrix<f64>,
}

/// The seeded traffic: templates and the request list (template indices).
pub struct Pool {
    /// Job templates, one per shape.
    pub templates: Vec<Template>,
    /// Requests: 1 to [`MAX_BATCH`] template indices each.
    pub requests: Vec<Vec<usize>>,
}

/// Build the pool for `seed` over the engine's scheme table.
pub fn pool(seed: u64, schemes: &[BilinearScheme], cutoff: usize) -> Result<Pool, String> {
    let mut rng = SplitMix64::new(seed, 30);
    let mut templates = Vec::new();
    for &m in &SIDES {
        for &k in &SIDES {
            for &n in &SIDES {
                let name = SCHEMES[rng.range(0, SCHEMES.len() - 1)];
                let scheme = schemes
                    .iter()
                    .position(|s| s.name == name)
                    .ok_or_else(|| format!("scheme {name} missing from the engine table"))?;
                let a = random_matrix(m, k, &mut rng);
                let b = random_matrix(k, n, &mut rng);
                let golden = multiply_scheme(&schemes[scheme], &a, &b, cutoff);
                templates.push(Template {
                    job: Job::new(scheme, a, b),
                    golden,
                });
            }
        }
    }
    let mut rng = SplitMix64::new(seed, 31);
    let requests = (0..REQUESTS)
        .map(|_| {
            (0..rng.range(1, MAX_BATCH))
                .map(|_| rng.range(0, templates.len() - 1))
                .collect()
        })
        .collect();
    Ok(Pool {
        templates,
        requests,
    })
}

/// One request's timeline (seconds since the phase started) and checks.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// When the client started building the request.
    pub issued: f64,
    /// `submit` call start (the jobs' enqueue time).
    pub submit_at: f64,
    /// `submit` call duration.
    pub submit_secs: f64,
    /// `queue_depth()` just before submitting.
    pub depth: usize,
    /// Request frame size.
    pub bytes: usize,
    /// `encode_request`, `decode_request`, `encode_response`,
    /// `decode_response` durations.
    pub wire_secs: [f64; 4],
    /// Completion time of each job, in completion order.
    pub done: Vec<f64>,
    /// Jobs in the request.
    pub jobs: usize,
    /// Classical flops of the request's jobs.
    pub flops: f64,
    /// Backpressure refused the batch.
    pub rejected: bool,
    /// Issue to last job resolved; `None` if the request failed.
    pub latency: Option<f64>,
    /// Failed checks.
    pub fails: Vec<(&'static str, String)>,
}

fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// An issued request: its record so far, its ticket (none if it never
/// reached the engine) and its index in the request list.
type InFlight = (Record, Option<BatchTicket>, usize);

/// Keep `inflight` requests outstanding for `secs` seconds (then drain)
/// and return every request's record (times relative to `t0`). Requests
/// are taken from the list starting at `*next`, which is advanced.
pub fn phase(
    engine: &EngineHandle,
    pool: &Pool,
    inflight: usize,
    secs: f64,
    next: &mut usize,
    t0: Instant,
) -> Vec<Record> {
    let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(inflight);
    let mut out = Vec::new();
    loop {
        while pending.len() < inflight && since(t0) < secs {
            pending.push_back(issue(engine, pool, *next % pool.requests.len(), t0));
            *next += 1;
        }
        match pending.pop_front() {
            Some(p) => out.push(finish(p, pool, t0)),
            None => return out,
        }
    }
}

/// Build request `r`, send it through the request wire format, submit it.
fn issue(engine: &EngineHandle, pool: &Pool, r: usize, t0: Instant) -> InFlight {
    let req = &pool.requests[r];
    let mut rec = Record {
        issued: since(t0),
        jobs: req.len(),
        ..Record::default()
    };
    let jobs: Vec<Job> = req.iter().map(|&t| pool.templates[t].job.clone()).collect();
    rec.flops = jobs
        .iter()
        .map(|j| 2.0 * (j.a.rows() * j.a.cols() * j.b.cols()) as f64)
        .sum();
    let (bytes, enc) = closed::timed(|| encode_request(&jobs, engine.schemes()));
    let (decoded, dec) = closed::timed(|| decode_request(&bytes, engine.schemes()));
    rec.bytes = bytes.len();
    rec.wire_secs[0] = enc;
    rec.wire_secs[1] = dec;
    let decoded = match decoded {
        Ok(d) => d,
        Err(e) => {
            rec.fails.push(("serve_small.request_wire", e.to_string()));
            return (rec, None, r);
        }
    };
    let same = decoded.len() == jobs.len()
        && decoded
            .iter()
            .zip(&jobs)
            .all(|(d, j)| d.scheme == j.scheme && d.a.bits_eq(&j.a) && d.b.bits_eq(&j.b));
    if !same {
        rec.fails.push((
            "serve_small.request_wire",
            "decoded request differs from the one encoded".into(),
        ));
    }
    rec.depth = engine.queue_depth();
    rec.submit_at = since(t0);
    let (sub, ss) = closed::timed(|| engine.submit(decoded));
    rec.submit_secs = ss;
    match sub {
        Submit::Accepted(t) => (rec, Some(t), r),
        Submit::Rejected { .. } => {
            rec.rejected = true;
            rec.fails
                .push(("serve_small.rejected", format!("at depth {}", rec.depth)));
            (rec, None, r)
        }
    }
}

/// Wait for every job of an issued request, send the products through
/// the response wire format and check them bitwise against the goldens.
fn finish((mut rec, ticket, r): InFlight, pool: &Pool, t0: Instant) -> Record {
    let Some(mut ticket) = ticket else {
        return rec;
    };
    let req = &pool.requests[r];
    let mut results: Vec<Option<JobResult>> = (0..req.len()).map(|_| None).collect();
    while let Some((slot, res)) = ticket.recv_next() {
        rec.done.push(since(t0));
        results[slot] = Some(res);
    }
    let last = rec.done.last().copied().unwrap_or(rec.issued);
    let mut products = Vec::with_capacity(req.len());
    for (slot, res) in results.into_iter().enumerate() {
        match res {
            Some(Ok(p)) => products.push(p),
            Some(Err(e)) => rec.fails.push(("serve_small.job", e.to_string())),
            None => rec
                .fails
                .push(("serve_small.job", format!("slot {slot} never resolved"))),
        }
    }
    if products.len() == req.len() {
        let (bytes, enc) = closed::timed(|| encode_response(&products));
        let (decoded, dec) = closed::timed(|| decode_response(&bytes));
        rec.wire_secs[2] = enc;
        rec.wire_secs[3] = dec;
        match decoded {
            Ok(d) if d.len() == req.len() => {
                for (p, &t) in d.iter().zip(req) {
                    if !p.bits_eq(&pool.templates[t].golden) {
                        rec.fails.push((
                            "serve_small.result_bitwise",
                            format!(
                                "template {t}: {:016x} != golden {:016x}",
                                digest(p),
                                digest(&pool.templates[t].golden)
                            ),
                        ));
                    }
                }
            }
            Ok(d) => rec.fails.push((
                "serve_small.response_wire",
                format!("{} results for {} jobs", d.len(), req.len()),
            )),
            Err(e) => rec.fails.push(("serve_small.response_wire", e.to_string())),
        }
    }
    if rec.fails.is_empty() {
        rec.latency = Some(last - rec.issued);
    }
    rec
}

/// Request latencies (ms) of a phase; a failed or rejected request counts
/// as the whole phase length, i.e. over any limit.
pub fn latencies_ms(recs: &[Record], phase_secs: f64) -> Vec<f64> {
    recs.iter()
        .map(|r| r.latency.unwrap_or(phase_secs) * 1e3)
        .collect()
}

/// Per-job `(enqueued, completed)` pairs of a phase in completion order.
pub fn job_timeline(recs: &[Record]) -> Vec<(f64, f64)> {
    let mut jobs: Vec<(f64, f64)> = recs
        .iter()
        .flat_map(|r| r.done.iter().map(move |&d| (r.submit_at, d)))
        .collect();
    jobs.sort_by(|x, y| x.1.total_cmp(&y.1));
    jobs
}

/// Length of one measured segment of a phase (s).
pub const SEGMENT_SECS: f64 = 0.5;

/// A drained stretch of a phase with the reference probes around it.
pub struct Segment {
    /// When the segment started; record times are relative to it.
    pub t0: Instant,
    /// Its requests.
    pub recs: Vec<Record>,
    /// Its length (s), drain included.
    pub secs: f64,
    /// Time-scaling factor from the probes before and after it.
    pub factor: f64,
}

/// Run a phase of `secs` seconds as segments of [`SEGMENT_SECS`], each
/// drained and followed by a reference probe, so every segment is
/// normalised by the probes right around it (as closed loops normalise
/// each operation).
fn measured_phase(
    clock: &mut HostClock,
    engine: &EngineHandle,
    pool: &Pool,
    inflight: usize,
    secs: f64,
) -> Vec<Segment> {
    let start = Instant::now();
    let mut next = 0usize;
    let mut before = clock.probe();
    let mut segs = Vec::new();
    while start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        let recs = phase(engine, pool, inflight, SEGMENT_SECS, &mut next, t0);
        let len = t0.elapsed().as_secs_f64();
        let after = clock.probe();
        segs.push(Segment {
            t0,
            recs,
            secs: len,
            factor: clock.factor(before, after),
        });
        before = after;
    }
    segs
}

/// Run `serve_small` (timed, or traced when `trace` is given).
pub fn run(seed: u64, seconds: f64, clock: &mut HostClock, trace: Option<&mut Tracer>) -> Run {
    let mut outcome = Outcome::default();
    // Set-up: engine start, the seeded pool with its goldens, and one pass
    // of every template through the engine (checked bitwise).
    let ((engine, pool, warm_ok), setup_s) = closed::setup(clock, || {
        let engine = EngineHandle::start(EngineConfig::new(1));
        let pool = pool(seed, engine.schemes(), engine.cutoff());
        let warm_ok = pool.as_ref().is_ok_and(|p| {
            let warm = engine
                .submit(p.templates.iter().map(|t| t.job.clone()).collect())
                .unwrap_ticket()
                .wait();
            warm.iter()
                .zip(&p.templates)
                .all(|(r, t)| r.as_ref().is_ok_and(|m| m.bits_eq(&t.golden)))
        });
        (engine, pool, warm_ok)
    });
    let pool = match pool {
        Ok(p) => p,
        Err(e) => {
            outcome.setup_check("serve_small.pool", Err(e));
            return Run {
                metrics: Metrics::default(),
                outcome,
            };
        }
    };
    outcome.setup_check(
        "serve_small.warmup_bitwise",
        if warm_ok {
            Ok(())
        } else {
            Err("warm-up products differ from multiply_scheme".into())
        },
    );
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set(
        "words_per_rank_max",
        pool.templates
            .iter()
            .map(|t| {
                let (a, b, c) = (&t.job.a, &t.job.b, &t.golden);
                a.rows() * a.cols() + b.rows() * b.cols() + c.rows() * c.cols()
            })
            .max()
            .unwrap_or(0) as f64,
    );
    let lo = measured_phase(clock, &engine, &pool, LO_INFLIGHT, seconds / 2.0);
    let hi = measured_phase(clock, &engine, &pool, HI_INFLIGHT, seconds / 2.0);
    engine.shutdown();
    for r in lo.iter().chain(&hi).flat_map(|g| &g.recs) {
        outcome.op(&r.fails);
    }
    for (segs, p50, p99) in [
        (&lo, "lat_p50_ms_lo", "lat_p99_ms_lo"),
        (&hi, "lat_p50_ms_hi", "lat_p99_ms_hi"),
    ] {
        let ms: Vec<f64> = segs
            .iter()
            .flat_map(|g| {
                latencies_ms(&g.recs, g.secs)
                    .into_iter()
                    .map(|l| l * g.factor)
            })
            .collect();
        m.set(p50, percentile(&ms, 0.5));
        m.set(p99, percentile(&ms, 0.99));
    }
    // The closed loop's completion rate with the worker always busy.
    let hi_jobs: usize = hi
        .iter()
        .flat_map(|g| &g.recs)
        .filter(|r| r.latency.is_some())
        .map(|r| r.jobs)
        .sum();
    let hi_secs: f64 = hi.iter().map(|g| g.secs * g.factor).sum();
    m.set("max_rate_jobs_s", hi_jobs as f64 / hi_secs);
    // Work rate while the worker is busy: verified flops over the derived
    // service time.
    let mut flops = 0.0;
    let (mut busy_raw, mut busy_norm) = (0.0, 0.0);
    let mut all_ws = Vec::new();
    for g in lo.iter().chain(&hi) {
        flops += g
            .recs
            .iter()
            .filter(|r| r.latency.is_some())
            .map(|r| r.flops)
            .sum::<f64>();
        let ws = fifo_wait_service(&job_timeline(&g.recs));
        let busy: f64 = ws.iter().map(|w| w.service).sum();
        busy_raw += busy;
        busy_norm += busy * g.factor;
        all_ws.extend(ws);
    }
    m.set("gflops_eq_norm", flops / busy_norm * 1e-9);
    m.set("host.gflops_eq_raw", flops / busy_raw * 1e-9);
    let Some(tr) = trace else {
        return Run {
            metrics: m,
            outcome,
        };
    };

    let recs: Vec<&Record> = lo.iter().chain(&hi).flat_map(|g| &g.recs).collect();
    let n = recs.len() as f64;
    let col = |f: &dyn Fn(&Record) -> f64| recs.iter().map(|r| f(r)).collect::<Vec<f64>>();
    m.set(
        "serve.submit_us_p50",
        median(&col(&|r| r.submit_secs * 1e6)),
    );
    let wait: Vec<f64> = all_ws.iter().map(|w| w.wait * 1e3).collect();
    let service: Vec<f64> = all_ws.iter().map(|w| w.service * 1e3).collect();
    m.set("serve.wait_ms_p50", percentile(&wait, 0.5));
    m.set("serve.wait_ms_p99", percentile(&wait, 0.99));
    m.set("serve.service_ms_p50", percentile(&service, 0.5));
    m.set("serve.service_ms_p99", percentile(&service, 0.99));
    m.set(
        "serve.queue_depth_p99",
        percentile(&col(&|r| r.depth as f64), 0.99),
    );
    m.set(
        "serve.rejected_frac",
        col(&|r| f64::from(u8::from(r.rejected)))
            .iter()
            .sum::<f64>()
            / n,
    );
    for (i, name) in [
        "ser.encode_request_us",
        "ser.decode_request_us",
        "ser.encode_response_us",
        "ser.decode_response_us",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, col(&|r| r.wire_secs[i] * 1e6).iter().sum::<f64>() / n);
    }
    m.set(
        "ser.bytes_per_request",
        col(&|r| r.bytes as f64).iter().sum::<f64>() / n,
    );
    // Spans from the timestamps taken around each call.
    let mut i = 0u32;
    for g in lo.iter().chain(&hi) {
        let at = |s: f64| g.t0 + Duration::from_secs_f64(s);
        for r in &g.recs {
            tr.set_request(i);
            i += 1;
            tr.record(
                "serve.submit",
                at(r.submit_at),
                at(r.submit_at + r.submit_secs),
            );
            if let Some(&last) = r.done.last() {
                tr.record("serve.request", at(r.issued), at(last));
            }
        }
    }
    // The pack layer on the same shapes, outside the engine.
    let mut arena = ScratchArena::new();
    let (mut leaf_s, mut leaf_flops) = (0.0, 0.0);
    for t in &pool.templates {
        let (a, b) = (&t.job.a, &t.job.b);
        let mut c = Matrix::zeros(a.rows(), b.cols());
        let s = tr.begin("pack.leaf", crate::trace::NONE);
        let ((), secs) = closed::timed(|| {
            multiply_packed_into(a.view(), b.view(), &mut c.view_mut(), &mut arena)
        });
        tr.end(s);
        leaf_s += secs;
        leaf_flops += 2.0 * (a.rows() * a.cols() * b.cols()) as f64;
        if !c.bits_eq(&t.golden) {
            outcome.setup_check(
                "serve_small.leaf_bitwise",
                Err("packed leaf differs from the golden".into()),
            );
        }
    }
    let jobs = pool.templates.len() as f64;
    m.set("pack.leaf_ms", leaf_s / jobs * 1e3);
    m.set("pack.leaf_gflops", leaf_flops / leaf_s * 1e-9);
    m.set("pack.leaf_calls", 1.0);
    m.set("pack.gemm_gflops", leaf_flops / leaf_s * 1e-9);
    Run {
        metrics: m,
        outcome,
    }
}
