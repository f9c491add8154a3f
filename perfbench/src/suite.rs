//! `lib-suite`: native `tb-suite` programs through `run_scheduler` on one
//! pool of `nproc` workers, under the sequential, re-expansion, simplified
//! restart and adaptive schedulers. No service layer.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tb_core::{run_scheduler, ExecStats, SchedConfig, SchedulerKind};
use tb_runtime::ThreadPool;
use tb_suite::jobs::{FibJob, NQueensJob, UtsJob};
use tb_suite::knn::Knn;
use tb_suite::{Benchmark, Outcome, Scale, Tier};

use crate::report::{Metrics, Tally};
use crate::trace::{self, Recorder, Span};
use crate::util::{median, nproc, p50_p99, peak_rss_mib, phase_figures, stretches, us, Rng, Stretch};

/// Program scale: `fib(FIB_N)`, UTS with `UTS_B0` root children (the
/// tiny preset's branching otherwise), `NQUEENS_N` queens, and the tiny
/// k-nearest-neighbour preset.
pub const FIB_N: u8 = 21;
pub const UTS_B0: usize = 256;
pub const NQUEENS_N: u8 = 9;

pub const PROGRAMS: [&str; 4] = ["fib", "uts", "nqueens", "knn"];
pub const KINDS: [(SchedulerKind, &str); 4] = [
    (SchedulerKind::Seq, "seq"),
    (SchedulerKind::ReExpansion, "reexp"),
    (SchedulerKind::RestartSimplified, "restart"),
    (SchedulerKind::Adaptive, "adaptive"),
];

/// Each kind's configuration: `Q = 8` lanes; the sequential engine runs
/// the restart policy (its leveled deque).
fn cfg(kind: SchedulerKind) -> SchedConfig {
    match kind {
        SchedulerKind::ReExpansion => SchedConfig::reexpansion(8, 512),
        SchedulerKind::Adaptive => SchedConfig::adaptive(8),
        _ => SchedConfig::restart(8, 512, 64),
    }
}

struct Programs {
    fib: FibJob,
    uts: UtsJob,
    nqueens: NQueensJob,
    knn: Knn,
    /// Oracle answers, computed before any timed window.
    want: [u64; 3],
    knn_want: Outcome,
}

impl Programs {
    fn new() -> Self {
        let fib = FibJob { n: FIB_N };
        let uts = UtsJob { b0: UTS_B0, ..UtsJob::new(Scale::Tiny) };
        let nqueens = NQueensJob { n: NQUEENS_N };
        let knn = Knn::new(Scale::Tiny);
        let want = [fib.expected(), uts.expected(), nqueens.expected()];
        let knn_want = knn.serial().outcome;
        Programs { fib, uts, nqueens, knn, want, knn_want }
    }

    /// Run one cell; `true` if the reduction matches the oracle.
    fn run(&self, program: usize, kind: SchedulerKind, pool: &ThreadPool) -> (bool, ExecStats) {
        let c = cfg(kind);
        match program {
            0 => {
                let o = run_scheduler(kind, &self.fib, c, Some(pool));
                (o.reducer == self.want[0], o.stats)
            }
            1 => {
                let o = run_scheduler(kind, &self.uts, c, Some(pool));
                (o.reducer == self.want[1], o.stats)
            }
            2 => {
                let o = run_scheduler(kind, &self.nqueens, c, Some(pool));
                (o.reducer == self.want[2], o.stats)
            }
            _ => {
                let s = if kind == SchedulerKind::Seq {
                    self.knn.blocked_seq(c, Tier::Simd)
                } else {
                    self.knn.blocked_par(pool, c, kind, Tier::Simd)
                };
                (s.outcome.matches(&self.knn_want, self.knn.tolerance()), s.stats)
            }
        }
    }
}

/// One measured run of a cell.
struct Run {
    cell: usize,
    start: Duration,
    end: Duration,
    ok: bool,
    stats: ExecStats,
}

/// `(program, kind)` cells in seeded order: one shuffled round of all
/// sixteen after another.
fn schedule(rng: &mut Rng, rounds: usize) -> Vec<usize> {
    let n = PROGRAMS.len() * KINDS.len();
    let mut order = Vec::with_capacity(rounds * n);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order.extend(round);
    }
    order
}

/// Closed loop for `dur` with `clients` threads sharing `pool`: client
/// `c` runs `order[c]`, `order[c + clients]`, … one after another.
fn closed(
    p: &Programs,
    pool: &ThreadPool,
    order: &[usize],
    clients: usize,
    dur: Duration,
    rec: Option<&mut Vec<Span>>,
) -> (Vec<Run>, f64) {
    // Run buffers come from this thread, sized for more cells than a block
    // runs at this commit's speed, so the client threads allocate nothing
    // large: where a short-lived thread's allocations land would otherwise
    // move the peak resident set.
    let cap = (dur.as_secs_f64() * 20_000.0) as usize + 64;
    let bufs: Vec<Vec<Run>> = (0..clients).map(|_| Vec::with_capacity(cap)).collect();
    let t0 = Instant::now();
    let traced = rec.is_some();
    let per_client: Vec<(Vec<Run>, Vec<Span>)> = std::thread::scope(|s| {
        let workers: Vec<_> = bufs
            .into_iter()
            .enumerate()
            .map(|(c, mut runs)| {
                s.spawn(move || {
                    let mut r = Recorder::new(t0, c + 1);
                    let mut i = c;
                    while t0.elapsed() < dur {
                        let cell = order[i % order.len()];
                        let (program, kind) = (cell / KINDS.len(), KINDS[cell % KINDS.len()].0);
                        let start = t0.elapsed();
                        let (ok, stats) = if traced {
                            let root = r.reserve();
                            let (ok, stats) =
                                r.time("core.run_scheduler", root, i as u64, || p.run(program, kind, pool));
                            r.push_as(root, "suite.run", i as u64, start, t0.elapsed());
                            (ok, stats)
                        } else {
                            p.run(program, kind, pool)
                        };
                        runs.push(Run { cell, start, end: t0.elapsed(), ok, stats });
                        i += clients;
                    }
                    (runs, r.spans)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("suite client panicked")).collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    for (r, s) in per_client {
        runs.extend(r);
        spans.extend(s);
    }
    if let Some(rec) = rec {
        rec.extend(spans);
    }
    (runs, secs)
}

fn tally_runs(tally: &mut Tally, runs: &[Run]) -> u64 {
    for r in runs {
        tally.add_one(r.ok);
        if !r.ok {
            let cell = r.cell;
            eprintln!(
                "perfbench: WRONG reduction from {} under {}",
                PROGRAMS[cell / KINDS.len()],
                KINDS[cell % KINDS.len()].1
            );
        }
    }
    runs.iter().filter(|r| r.ok).count() as u64
}

fn latencies(runs: &[Run]) -> Vec<f64> {
    runs.iter().map(|r| us(r.end - r.start)).collect()
}

/// Construct a pool and run the first cell (`fib` under simplified
/// restart) to a correct answer; returns the pool and that set-up time.
fn setup(p: &Programs) -> Result<(ThreadPool, f64), String> {
    let t = Instant::now();
    let pool = ThreadPool::new(nproc());
    let (ok, _) = p.run(0, SchedulerKind::RestartSimplified, &pool);
    let secs = t.elapsed().as_secs_f64();
    if !ok {
        return Err("set-up run returned a wrong reduction".into());
    }
    Ok((pool, secs))
}

/// Pools per run; each runs one concurrency-1 and one
/// concurrency-`nproc` block.
const POOLS: usize = 12;

/// Set-ups timed before each pool's blocks.
const SETUPS_PER_POOL: usize = 8;

/// Cell runs per [`Stretch`]: one shuffled round of all sixteen cells.
const STRETCH: usize = 16;

/// An untraced run: the end-to-end metrics. As for the wire workloads, a
/// long-lived pool's thread placement would set the whole run's speed, so
/// each run builds [`POOLS`] fresh pools, all on the same cell orders, and
/// each phase's stretches from every pool are pooled and read by
/// [`phase_figures`]. `setup_s` is the median of further set-ups timed before
/// each pool, so they sample the host over the whole run.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    let mut rng = Rng::new(seed);
    let p = Programs::new();
    let secs = |share: f64| Duration::from_secs_f64((seconds * share).max(0.05));
    let clients = nproc();
    let warm = schedule(&mut rng, 4);
    let phases = [(1, schedule(&mut rng, 64)), (clients, schedule(&mut rng, 64))];
    let mut setups = Vec::new();
    let mut pooled: [Vec<Stretch>; 2] = Default::default();
    for _ in 0..POOLS {
        for _ in 0..SETUPS_PER_POOL {
            setups.push(setup(&p)?.1);
        }
        let (pool, _) = setup(&p)?;
        let (runs, _) = closed(&p, &pool, &warm, 1, secs(0.1 / POOLS as f64), None);
        tally_runs(tally, &runs);
        for ((c, order), out) in phases.iter().zip(&mut pooled) {
            let (runs, _) = closed(&p, &pool, order, *c, secs(0.8 / (2 * POOLS) as f64), None);
            tally_runs(tally, &runs);
            let done = runs.iter().filter(|r| r.ok).map(|r| (r.end.as_secs_f64(), us(r.end - r.start)));
            out.extend(stretches(done.collect(), STRETCH));
        }
    }
    eprint!("perfbench: concurrency 1: ");
    let (good_lo, p50_lo) = phase_figures(&pooled[0])?;
    eprint!("perfbench: concurrency {clients}: ");
    let (good_hi, p50_hi) = phase_figures(&pooled[1])?;
    let mut m = Metrics::default();
    crate::util::report_setups(&setups);
    m.put("setup_s", median(setups), "s");
    m.put("goodput_rps", good_lo, "1/s");
    m.put("p50_us", p50_lo, "us");
    m.put("p50_us_hi", p50_hi, "us");
    m.put("knee_rps", good_lo.max(good_hi), "1/s");
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    Ok(m)
}

/// A traced run: the per-layer metrics this workload reaches.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    layers: &mut HashMap<String, f64>,
) -> Result<Vec<Span>, String> {
    let mut rng = Rng::new(seed);
    let p = Programs::new();
    let (pool, _) = setup(&p)?;
    let order = schedule(&mut rng, 64);
    let secs = |share: f64| Duration::from_secs_f64((seconds * share).max(0.2));
    closed(&p, &pool, &order, 1, secs(0.04), None);
    let before = pool.metrics();
    let (plain, _) = closed(&p, &pool, &order, 1, secs(0.35), None);
    let mut spans = Vec::new();
    let (traced, _) = closed(&p, &pool, &order, 1, secs(0.35), Some(&mut spans));
    let (high, _) = closed(&p, &pool, &order, nproc(), secs(0.1), None);
    let pm = pool.metrics().since(&before);
    tally_runs(tally, &plain);
    tally_runs(tally, &traced);
    tally_runs(tally, &high);
    let mut put = |k: String, v: f64| {
        layers.insert(k, v);
    };
    let mut all = ExecStats::default();
    let mut by_cell: HashMap<usize, Vec<f64>> = HashMap::new();
    for r in plain.iter().chain(&traced) {
        all.absorb(&r.stats);
        by_cell.entry(r.cell).or_default().push((r.end - r.start).as_secs_f64() * 1e3);
    }
    for (cell, mut ms) in by_cell {
        let name = format!("core.run_ms.{}.{}", PROGRAMS[cell / KINDS.len()], KINDS[cell % KINDS.len()].1);
        put(name, p50_p99(&mut ms).0);
    }
    let runs = (plain.len() + traced.len()).max(1) as f64;
    put("core.tasks".into(), all.tasks_executed as f64 / runs);
    put("core.supersteps".into(), all.supersteps as f64 / runs);
    put("core.merges".into(), all.merges as f64 / runs);
    put("core.steals".into(), all.steals as f64 / runs);
    put("core.block_fill".into(), all.step_utilization());
    put("simd.lane_occupancy".into(), all.lane_occupancy());
    put("simd.utilization".into(), all.simd_utilization());
    put("pool.steal_ratio".into(), pm.steals as f64 / pm.steal_attempts.max(1) as f64);
    put("pool.steals".into(), pm.steals as f64);
    put("injector.pushes".into(), pm.injector_pushes as f64);
    put("injector.pops".into(), pm.injector_pops as f64);
    put("injector.full_waits".into(), pool.injector_metrics().full_waits as f64);
    let mut plain_lat = latencies(&plain);
    let (plain_p50, plain_p99) = p50_p99(&mut plain_lat);
    let traced_p50 = p50_p99(&mut latencies(&traced)).0;
    put("obs.trace_overhead".into(), traced_p50 / plain_p50.max(1e-9));
    put("p99_us".into(), plain_p99);
    put("samples.p99".into(), plain_lat.len() as f64);
    put("p99_us_hi".into(), p50_p99(&mut latencies(&high)).1);
    let worst = trace::conservation(&spans)?;
    put("trace.conservation_gap_ns".into(), worst as f64);
    Ok(spans)
}
