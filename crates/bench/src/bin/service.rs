//! The `service` throughput benchmark: N client threads hammering one
//! shared `tb_service::Runtime` with a mixed job stream (fib / uts /
//! nqueens under per-job scheduler kinds), measuring sustained jobs/sec
//! and closed-loop submit→complete latency (p50/p99), one bulk submission
//! phase exercising the DCAFE-style adaptive chunker, and an adversarial
//! multi-tenant phase: a batch tenant floods preemptible jobs while a
//! higher-priority interactive tenant measures closed-loop p50/p99 —
//! the per-tenant latency case for the admission scheduler.
//!
//! Output is a trajectory-schema document (see `trajectory.rs`): the same
//! pinned grid as the `trajectory` binary — so
//! `trajectory compare BENCH_PR2.json BENCH_PR3.json` works directly —
//! plus a `"service"` section:
//!
//! ```json
//! "service": {
//!   "pool_threads": 4, "clients": 4, "jobs_per_client": 30,
//!   "max_inflight": 32,
//!   "jobs_total": 120, "wall_s": 1.5, "jobs_per_sec": 80.0,
//!   "p50_ms": 30.1, "p99_ms": 95.0,
//!   "bulk_chunks": 8, "bulk_wall_s": 0.2,
//!   "backpressure_waits": 3,          // gate hits (expected under load)
//!   "adversarial": {                  // batch flood vs interactive tenant
//!     "wall_s": 0.9, "interactive_jobs": 200,
//!     "interactive_p50_ms": 1.2, "interactive_p99_ms": 4.0,
//!     "batch_jobs": 350, "batch_shed": 12,
//!     "preemptions": 9, "resumes": 9 },
//!   "tenants": [                      // per-tenant admission counters;
//!                                     //   since PR 8 each row also carries
//!                                     //   admit_p50_us / admit_p99_us /
//!                                     //   admit_samples — wall-clock
//!                                     //   submit→Start latency quantiles
//!                                     //   from the scheduler's per-tenant
//!                                     //   LogHistogram
//!     { "name": "default", "weight": 1, "priority": 0, ... },
//!     { "name": "batch", ... }, { "name": "interactive", ... } ],
//!   "injector": { "full_waits": 0,    // asserted == 0: submission never
//!                                     //   spin-blocks on capacity
//!     "install_waits": 1, "segments_allocated": 3, "segments_recycled": 7 },
//!   "dropped_events": 0,              // tb-obs ring-overflow losses
//!   "trace_bytes": 0                  // 0 unless run with TB_TRACE=1
//! }
//! ```
//!
//! The closed-loop p50/p99 numbers (mixed-stream and adversarial) are
//! computed with `tb_obs::LogHistogram` — the same log-bucketed estimator
//! the admission scheduler uses for its per-tenant stats — instead of the
//! old sort-based percentiles (~6% bucket error, irrelevant at the
//! millisecond magnitudes reported here).
//!
//! Since PR 10 the document also carries a `"shard_family"` section: the
//! same mixed-overhead question asked of `ShardedRuntime` — a fixed total
//! worker budget (4) split 1×4 / 2×2 / 4×1 shards, 8 closed-loop clients
//! hammering tiny `spec fib(10)` jobs through the shedding try-submit
//! path, reps interleaved across shard counts (the spec-family idiom —
//! host drift cancels), medians over `max(--reps, 5)`:
//!
//! ```json
//! "shard_family": [
//!   { "shards": 1, "workers_per_shard": 4, "clients": 8, "jobs": 1200,
//!     "wall_s": 0.8, "jobs_per_sec": 1500.0, "p50_us": 900, "p99_us": 4800,
//!     "shed": 0, "rejected": 0 },
//!   ...
//! ]
//! ```
//!
//! Flags: `--clients N` (default 4), `--jobs N` per client (default 25),
//! `--pool N` workers (default: available parallelism), `--inflight N`
//! (default 8 × pool), `--shards N` (cap the shard family, default 4),
//! `--scale`, `--tag` (default PR3), `--file PATH`,
//! `--smoke` (tiny scale, 2 jobs/client, skip the pinned grid, write under
//! `results/`). Every job's reduction is verified against the workload's
//! known answer, smoke or not, and the run aborts if the segmented
//! injector ever reported a capacity wait.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tb_bench::traj::{self, RunRow};
use tb_bench::HarnessArgs;
use tb_core::prelude::*;
use tb_obs::LogHistogram;
use tb_service::{
    JobRequest, PlacementPolicy, Runtime, RuntimeConfig, ShardConfig, ShardedRuntime, TenantSpec,
};
use tb_spec::SpecTier;
use tb_suite::jobs::{FibJob, NQueensJob, UtsJob};
use tb_suite::Scale;

struct ServiceArgs {
    common: HarnessArgs,
    clients: usize,
    jobs_per_client: usize,
    pool: usize,
    inflight: Option<usize>,
    /// Largest shard count in the `shard_family` sweep (1/2/4, capped here).
    shards: usize,
    reps: usize,
    tag: String,
    /// Was `--tag` given explicitly? Guards committed baselines against
    /// accidental default-tag overwrites (same rule as `trajectory`).
    tag_explicit: bool,
    file: Option<String>,
    smoke: bool,
}

impl ServiceArgs {
    fn parse() -> Self {
        let mut a = ServiceArgs {
            common: HarnessArgs::parse(),
            clients: 4,
            jobs_per_client: 25,
            pool: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            inflight: None,
            shards: 4,
            reps: 3,
            tag: "PR3".to_string(),
            tag_explicit: false,
            file: None,
            smoke: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--clients" => {
                    i += 1;
                    a.clients = argv[i].parse().expect("--clients N");
                }
                "--jobs" => {
                    i += 1;
                    a.jobs_per_client = argv[i].parse().expect("--jobs N");
                }
                "--pool" => {
                    i += 1;
                    a.pool = argv[i].parse().expect("--pool N");
                }
                "--inflight" => {
                    i += 1;
                    a.inflight = Some(argv[i].parse().expect("--inflight N"));
                }
                "--shards" => {
                    i += 1;
                    a.shards = argv[i].parse().expect("--shards N");
                }
                "--reps" => {
                    i += 1;
                    a.reps = argv[i].parse().expect("--reps N");
                }
                "--tag" => {
                    i += 1;
                    a.tag = argv[i].clone();
                    a.tag_explicit = true;
                }
                "--file" => {
                    i += 1;
                    a.file = Some(argv[i].clone());
                }
                "--smoke" => a.smoke = true,
                _ => {}
            }
            i += 1;
        }
        if a.smoke {
            a.common.scale = Scale::Tiny;
            a.jobs_per_client = 2;
            a.clients = a.clients.max(4); // the smoke asserts >= 4 concurrent clients
            a.reps = 1;
        }
        a
    }

    fn out_path(&self) -> String {
        if let Some(f) = &self.file {
            return f.clone();
        }
        if self.smoke {
            std::fs::create_dir_all(&self.common.out_dir).expect("create results dir");
            return self.common.out_dir.join("BENCH_service_smoke.json").to_string_lossy().into_owned();
        }
        let path = format!("BENCH_{}.json", self.tag);
        assert!(
            self.tag_explicit || !std::path::Path::new(&path).exists(),
            "refusing to overwrite existing {path} with the default tag; pass --tag NAME or --file PATH"
        );
        path
    }
}

/// The mixed stream: every client cycles through these, so one pool serves
/// basic, re-expansion, restart and sequential jobs simultaneously.
fn submit_one(rt: &Runtime, scale: Scale, slot: usize) -> (&'static str, tb_service::JobHandle<u64>, u64) {
    match slot % 4 {
        0 => {
            let job = FibJob::new(scale);
            let want = job.expected();
            (
                "fib/basic",
                rt.submit(JobRequest::new(job, SchedConfig::basic(16, 1 << 10), SchedulerKind::ReExpansion)),
                want,
            )
        }
        1 => {
            let job = UtsJob::new(scale);
            let want = job.expected();
            (
                "uts/restart",
                rt.submit(JobRequest::new(
                    job,
                    SchedConfig::restart(4, 1 << 10, 1 << 8),
                    SchedulerKind::RestartSimplified,
                )),
                want,
            )
        }
        2 => {
            let job = NQueensJob::new(scale);
            let want = job.expected();
            (
                "nqueens/reexp",
                rt.submit(JobRequest::new(
                    job,
                    SchedConfig::reexpansion(16, 1 << 10),
                    SchedulerKind::ReExpansion,
                )),
                want,
            )
        }
        _ => {
            let job = FibJob { n: FibJob::new(scale).n.saturating_sub(6) };
            let want = job.expected();
            (
                "fib/seq",
                rt.submit(JobRequest::new(job, SchedConfig::basic(16, 1 << 10), SchedulerKind::Seq)),
                want,
            )
        }
    }
}

/// One measured configuration of the shard family sweep.
struct ShardRow {
    shards: usize,
    workers_per_shard: usize,
    clients: usize,
    jobs: usize,
    wall_s: f64,
    jobs_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    shed: u64,
    rejected: u64,
}

/// The shard family's fixed worker budget: every configuration splits the
/// same 4 workers (1×4, 2×2, 4×1), so jobs/sec differences come from the
/// submission-path contention the split removes, not from extra CPU.
const FAMILY_WORKERS: usize = 4;
/// Fixed total admission window, split evenly across shards, so the family
/// compares contention — not capacity.
const FAMILY_INFLIGHT: usize = 32;
const FAMILY_FIB_SRC: &str =
    "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }";
const FAMILY_FIB_N: i64 = 10;
const FAMILY_FIB_WANT: i64 = 55;

/// One rep of one family configuration: closed-loop clients pushing tiny
/// spec jobs through the shedding try-submit path (the same path `tb-server`
/// uses), spin-retrying on rejection so every job eventually lands.
fn shard_family_rep(shards: usize, clients: usize, jobs_per_client: usize) -> ShardRow {
    let per = RuntimeConfig {
        threads: FAMILY_WORKERS / shards,
        max_inflight: FAMILY_INFLIGHT / shards,
        max_parked: 0,
        fifo: false,
    };
    let rt = ShardedRuntime::with_config(ShardConfig {
        shards: vec![per; shards],
        policy: PlacementPolicy::LeastLoaded,
    });
    // One bench tenant with a constant pending bound regardless of the
    // shard split (the default tenant's bound tracks per-shard capacity,
    // which would hand narrow-shard configs a smaller admission window).
    let tenant = rt.register_tenant(TenantSpec::new("bench", FAMILY_INFLIGHT));

    let t0 = Instant::now();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let rt = rt.clone();
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(jobs_per_client);
                    for _ in 0..jobs_per_client {
                        let j0 = Instant::now();
                        let mut call = vec![FAMILY_FIB_N];
                        let handle = loop {
                            match rt.try_submit_spec_tier_as(
                                tenant,
                                FAMILY_FIB_SRC,
                                call,
                                SchedConfig::restart(8, 1 << 10, 64),
                                SchedulerKind::RestartSimplified,
                                SpecTier::Auto,
                            ) {
                                Ok(h) => break h,
                                Err(back) => {
                                    call = back;
                                    std::thread::yield_now();
                                }
                            }
                        };
                        let got = handle.wait().expect("family spec job failed");
                        assert_eq!(got, FAMILY_FIB_WANT, "fib(10) under shard family load");
                        lats.push(j0.elapsed().as_secs_f64());
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("family client panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut hist = LogHistogram::new();
    for lat in latencies.into_iter().flatten() {
        hist.record((lat * 1e9) as u64);
    }
    let jobs = hist.count() as usize;
    assert_eq!(jobs, clients * jobs_per_client);

    // The family must leave clean books: every placed-or-shed job completed,
    // no booking abandoned, no gate slot leaked.
    let snap = rt.snapshot();
    let p = snap.placement;
    assert_eq!(p.placed + p.shed, p.completed, "family run leaves placement books balanced");
    assert_eq!(p.abandoned, 0);
    assert_eq!(snap.gate_slots_held(), 0, "family run leaks no gate slots");
    assert_eq!(snap.completed() as usize, jobs);

    ShardRow {
        shards,
        workers_per_shard: FAMILY_WORKERS / shards,
        clients,
        jobs,
        wall_s,
        jobs_per_sec: jobs as f64 / wall_s,
        p50_us: hist.quantile(0.50) / 1_000,
        p99_us: hist.quantile(0.99) / 1_000,
        shed: p.shed,
        rejected: p.rejected,
    }
}

/// Sweep shard counts 1/2/4 (capped at `max_shards`), `reps` reps each,
/// keeping the median row by jobs/sec.
fn run_shard_family(max_shards: usize, clients: usize, jobs_per_client: usize, reps: usize) -> Vec<ShardRow> {
    let family: Vec<usize> = [1usize, 2, 4].into_iter().filter(|&s| s <= max_shards).collect();
    // Reps are interleaved across shard counts (1,2,4,1,2,4,…) and the
    // rotation offset shifts each round, the spec-family idiom: host-speed
    // drift lands on every configuration equally instead of biasing
    // whichever one happened to run during the slow minutes.
    let mut samples: Vec<Vec<ShardRow>> = family.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps.max(1) {
        for slot in 0..family.len() {
            let idx = (slot + rep) % family.len();
            samples[idx].push(shard_family_rep(family[idx], clients, jobs_per_client));
        }
    }
    let mut rows = Vec::new();
    for mut reps_rows in samples {
        reps_rows.sort_by(|a, b| a.jobs_per_sec.total_cmp(&b.jobs_per_sec));
        let row = reps_rows.remove(reps_rows.len() / 2);
        println!(
            "shard family: {}x{} -> {:.1} jobs/s (p50 {}us, p99 {}us, shed {}, rejected {})",
            row.shards,
            row.workers_per_shard,
            row.jobs_per_sec,
            row.p50_us,
            row.p99_us,
            row.shed,
            row.rejected,
        );
        rows.push(row);
    }
    rows
}

fn main() {
    let args = ServiceArgs::parse();
    println!(
        "service | tag={} scale={} pool={} clients={} jobs/client={} smoke={}\n",
        args.tag,
        args.common.scale_name(),
        args.pool,
        args.clients,
        args.jobs_per_client,
        args.smoke,
    );

    let rt = Runtime::with_config(RuntimeConfig {
        threads: args.pool,
        max_inflight: args.inflight.unwrap_or(args.pool * 8),
        max_parked: args.pool * 2,
        fifo: false,
    });

    // ---- closed-loop mixed-stream phase ---------------------------------
    let scale = args.common.scale;
    let start = Instant::now();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client| {
                let rt = rt.clone();
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(args.jobs_per_client);
                    for i in 0..args.jobs_per_client {
                        let t0 = Instant::now();
                        let (mix, handle, want) = submit_one(&rt, scale, client + i);
                        let got = handle.wait().expect("service job failed");
                        lats.push(t0.elapsed().as_secs_f64());
                        assert_eq!(got, want, "{mix}: wrong reduction under concurrent service load");
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    // The log-bucketed histogram (~6% quantile error) replaces the old
    // sort-based percentiles — the same type the admission scheduler uses
    // for its per-tenant latency stats, so every latency number in this
    // document is computed the same way.
    let mut hist = LogHistogram::new();
    for lat in latencies.into_iter().flatten() {
        hist.record((lat * 1e9) as u64);
    }
    let jobs_total = hist.count() as usize;
    let jobs_per_sec = jobs_total as f64 / wall_s;
    let p50_ms = hist.quantile(0.50) as f64 * 1e-6;
    let p99_ms = hist.quantile(0.99) as f64 * 1e-6;
    println!(
        "mixed stream: {jobs_total} jobs in {wall_s:.3}s = {jobs_per_sec:.1} jobs/s \
         (p50 {p50_ms:.1}ms, p99 {p99_ms:.1}ms)"
    );

    // ---- bulk phase: adaptive chunking under the same gate --------------
    let bulk_items: Vec<u32> = (0..args.pool as u32 * 64).collect();
    let fib_n = FibJob::new(scale).n.saturating_sub(8);
    let bulk_t0 = Instant::now();
    let bulk = rt.submit_bulk(
        bulk_items,
        SchedConfig::basic(16, 1 << 10),
        SchedulerKind::ReExpansion,
        move |chunk: Vec<u32>| FibJob { n: fib_n.max(1) + (chunk.len() % 3) as u8 },
    );
    let bulk_chunks = bulk.chunks();
    let per_chunk = bulk.wait();
    let bulk_wall_s = bulk_t0.elapsed().as_secs_f64();
    assert!(per_chunk.iter().all(Result::is_ok), "bulk chunks must all complete");
    println!("bulk: {bulk_chunks} chunks in {bulk_wall_s:.3}s");

    // ---- the submission-path invariant ----------------------------------
    let stats = rt.stats();
    assert_eq!(
        stats.injector.full_waits, 0,
        "segmented injector must never spin-block a submission on capacity"
    );
    assert_eq!(stats.completed as usize, jobs_total + bulk_chunks);
    println!(
        "injector: full_waits=0 install_waits={} segments_allocated={} segments_recycled={} \
         backpressure_waits={}",
        stats.injector.install_waits,
        stats.injector.segments_allocated,
        stats.injector.segments_recycled,
        stats.backpressure_waits,
    );

    // ---- adversarial multi-tenant phase ---------------------------------
    // A batch tenant (weight 1, priority 0) floods preemptible fib jobs as
    // fast as the runtime will take them, while an interactive tenant
    // (weight 4, priority 1) runs closed-loop short jobs. Interactive p99
    // is the headline number: priority-1 arrivals preempt running batch
    // work at superstep boundaries instead of queueing behind it, and the
    // parked batch frontiers must still resume to the right answers.
    //
    // This phase gets its own runtime with `max_inflight == threads`: one
    // admission slot per worker is the configuration where admitting a job
    // means handing it a worker, so preempting a slot actually transfers
    // the CPU (with slots >> workers the pool queue, not admission, is the
    // bottleneck and preemption has nothing to reclaim).
    let adv_rt = Runtime::with_config(RuntimeConfig {
        threads: args.pool,
        max_inflight: args.pool,
        max_parked: args.pool * 2,
        fifo: false,
    });
    let batch_t = adv_rt.register_tenant(TenantSpec::new("batch", args.pool * 4));
    let interactive_t = adv_rt.register_tenant(TenantSpec::new("interactive", 64).weight(4).priority(1));
    let stop = Arc::new(AtomicBool::new(false));
    let batch_n = FibJob::new(scale).n;
    let inter_n = FibJob::new(scale).n.saturating_sub(6).max(1);
    let adv_t0 = Instant::now();
    let (inter_lats, batch_done, batch_shed) = std::thread::scope(|s| {
        let flooder = {
            let rt = adv_rt.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut handles = Vec::new();
                let mut shed = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let req = JobRequest::new(
                        FibJob { n: batch_n },
                        SchedConfig::basic(16, 1 << 10),
                        SchedulerKind::Seq,
                    );
                    match rt.try_submit(req.tenant(batch_t).preemptible()) {
                        Ok(h) => handles.push(h),
                        Err(_) => {
                            // At the tenant's pending bound: shed and retry
                            // shortly, like a loaded batch feeder would.
                            shed += 1;
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                    }
                }
                let want = FibJob { n: batch_n }.expected();
                let done = handles.len() as u64;
                for h in handles {
                    let got = h.wait().expect("batch job failed");
                    assert_eq!(got, want, "a preempted batch job must still compute fib correctly");
                }
                (done, shed)
            })
        };
        let clients: Vec<_> = (0..args.clients)
            .map(|_| {
                let rt = adv_rt.clone();
                s.spawn(move || {
                    let want = FibJob { n: inter_n }.expected();
                    let mut lats = Vec::with_capacity(args.jobs_per_client * 2);
                    for _ in 0..args.jobs_per_client * 2 {
                        let t0 = Instant::now();
                        let req = JobRequest::new(
                            FibJob { n: inter_n },
                            SchedConfig::basic(16, 1 << 10),
                            SchedulerKind::Seq,
                        );
                        let h = rt.submit(req.tenant(interactive_t));
                        assert_eq!(h.wait().expect("interactive job failed"), want);
                        lats.push(t0.elapsed().as_secs_f64());
                    }
                    lats
                })
            })
            .collect();
        let lats: Vec<f64> =
            clients.into_iter().flat_map(|h| h.join().expect("interactive client panicked")).collect();
        stop.store(true, Ordering::Release);
        let (done, shed) = flooder.join().expect("batch flooder panicked");
        (lats, done, shed)
    });
    let adv_wall_s = adv_t0.elapsed().as_secs_f64();
    let inter_jobs = inter_lats.len();
    let mut adv_hist = LogHistogram::new();
    for lat in inter_lats {
        adv_hist.record((lat * 1e9) as u64);
    }
    let adv_p50_ms = adv_hist.quantile(0.50) as f64 * 1e-6;
    let adv_p99_ms = adv_hist.quantile(0.99) as f64 * 1e-6;

    let adv_stats = adv_rt.stats();
    assert_eq!(adv_stats.injector.full_waits, 0, "adversarial phase must not spin-block submissions");
    assert_eq!(
        adv_stats.completed as usize,
        inter_jobs + batch_done as usize,
        "every admitted adversarial job completed exactly once"
    );
    assert_eq!((adv_stats.parked, adv_stats.parked_tasks), (0, 0), "park pool drains at quiescence");
    println!(
        "adversarial: {inter_jobs} interactive jobs (p50 {adv_p50_ms:.1}ms, p99 {adv_p99_ms:.1}ms) \
         against {batch_done} batch jobs ({batch_shed} shed) in {adv_wall_s:.3}s; \
         preemptions={} resumes={}",
        adv_stats.preemptions, adv_stats.resumes,
    );

    // ---- shard family: fixed worker budget, split 1/2/4 ways ------------
    println!();
    let family_jobs = if args.smoke { 8 } else { 400 };
    // The family phase is cheap (~50ms per sample), so it can afford more
    // reps than the pinned grid; 5 medians flatten this host's drift.
    let family_reps = if args.smoke { 1 } else { args.reps.max(5) };
    let family_rows = run_shard_family(args.shards, 8, family_jobs, family_reps);

    // ---- pinned grid (skipped in smoke: `trajectory --smoke` covers it) --
    let runs: Vec<RunRow> = if args.smoke {
        Vec::new()
    } else {
        println!("\npinned grid (for `trajectory compare`):");
        traj::run_pinned_grid(scale, args.reps)
    };

    // ---- emit ------------------------------------------------------------
    let mut json = traj::render_header(&args.tag, args.common.scale_name(), args.reps, &runs);
    use std::fmt::Write as _;
    let _ = writeln!(json, "  \"service\": {{");
    let _ = writeln!(json, "    \"pool_threads\": {},", args.pool);
    let _ = writeln!(json, "    \"clients\": {},", args.clients);
    let _ = writeln!(json, "    \"jobs_per_client\": {},", args.jobs_per_client);
    let _ = writeln!(json, "    \"max_inflight\": {},", stats.max_inflight);
    let _ = writeln!(json, "    \"jobs_total\": {jobs_total},");
    let _ = writeln!(json, "    \"wall_s\": {wall_s:.6},");
    let _ = writeln!(json, "    \"jobs_per_sec\": {jobs_per_sec:.3},");
    let _ = writeln!(json, "    \"p50_ms\": {p50_ms:.3},");
    let _ = writeln!(json, "    \"p99_ms\": {p99_ms:.3},");
    let _ = writeln!(json, "    \"bulk_chunks\": {bulk_chunks},");
    let _ = writeln!(json, "    \"bulk_wall_s\": {bulk_wall_s:.6},");
    let _ = writeln!(json, "    \"backpressure_waits\": {},", stats.backpressure_waits);
    let _ = writeln!(json, "    \"adversarial\": {{");
    let _ = writeln!(json, "      \"slots\": {},", adv_stats.max_inflight);
    let _ = writeln!(json, "      \"max_parked\": {},", adv_stats.max_parked);
    let _ = writeln!(json, "      \"wall_s\": {adv_wall_s:.6},");
    let _ = writeln!(json, "      \"interactive_jobs\": {inter_jobs},");
    let _ = writeln!(json, "      \"interactive_p50_ms\": {adv_p50_ms:.3},");
    let _ = writeln!(json, "      \"interactive_p99_ms\": {adv_p99_ms:.3},");
    let _ = writeln!(json, "      \"batch_jobs\": {batch_done},");
    let _ = writeln!(json, "      \"batch_shed\": {batch_shed},");
    let _ = writeln!(json, "      \"preemptions\": {},", adv_stats.preemptions);
    let _ = writeln!(json, "      \"resumes\": {}", adv_stats.resumes);
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"tenants\": [");
    for (i, t) in adv_stats.tenants.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{ \"name\": \"{}\", \"weight\": {}, \"priority\": {}, \"submitted\": {}, \
             \"completed\": {}, \"admissions\": {}, \"preemptions\": {}, \"resumes\": {}, \
             \"wait_ticks\": {}, \"backpressure_waits\": {}, \"admit_p50_us\": {}, \
             \"admit_p99_us\": {}, \"admit_samples\": {} }}{}",
            t.name,
            t.weight,
            t.priority,
            t.counters.submitted,
            t.counters.completed,
            t.counters.admissions,
            t.counters.preemptions,
            t.counters.resumes,
            t.counters.wait_ticks,
            t.backpressure_waits,
            t.admit_p50_us,
            t.admit_p99_us,
            t.admit_samples,
            if i + 1 == adv_stats.tenants.len() { "" } else { "," },
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(
        json,
        "    \"injector\": {{ \"full_waits\": {}, \"install_waits\": {}, \
         \"segments_allocated\": {}, \"segments_recycled\": {} }},",
        stats.injector.full_waits,
        stats.injector.install_waits,
        stats.injector.segments_allocated,
        stats.injector.segments_recycled,
    );
    let _ = writeln!(
        json,
        "    \"dropped_events\": {}, \"trace_bytes\": {}",
        adv_stats.dropped_events, adv_stats.trace_bytes
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"shard_family\": [");
    for (i, r) in family_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"shards\": {}, \"workers_per_shard\": {}, \"clients\": {}, \"jobs\": {}, \
             \"wall_s\": {:.6}, \"jobs_per_sec\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, \
             \"shed\": {}, \"rejected\": {} }}{}",
            r.shards,
            r.workers_per_shard,
            r.clients,
            r.jobs,
            r.wall_s,
            r.jobs_per_sec,
            r.p50_us,
            r.p99_us,
            r.shed,
            r.rejected,
            if i + 1 == family_rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = args.out_path();
    std::fs::write(&path, json).expect("write service json");
    println!("\n[service trajectory written to {path}]");
}
