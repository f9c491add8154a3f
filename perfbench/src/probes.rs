//! Standalone layer probes for the traced run: each times one layer's
//! public entry point on the workload's own inputs, outside the server.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tb_core::{run_scheduler, ExecStats, SchedConfig, SchedulerKind};
use tb_runtime::{PoolMetrics, ThreadPool};
use tb_service::wire::{parse_request, Request};
use tb_service::{
    AdmissionPolicy, PlacementCore, PlacementPolicy, Runtime, RuntimeConfig, SchedCore, TenantSpec,
};
use tb_spec::{compile, parse_spec, CompiledSpec, SpecCode, SpecTier, VectorSpec};

use crate::gen::{Expect, Req};
use crate::util::{median, p50_p99};

/// The scheduler configuration the wire front-end submits every job with.
/// This and the two constants below copy private literals of
/// `crates/service/src/wire.rs`; a self-test fails if that file changes
/// them.
pub fn wire_cfg() -> SchedConfig {
    SchedConfig::restart(8, 1 << 10, 64)
}

/// The scheduler kind the wire front-end submits every job with.
pub const WIRE_KIND: SchedulerKind = SchedulerKind::RestartSimplified;

/// Gate capacity the wire layer gives auto-registered tenants (per shard).
pub const WIRE_TENANT_PENDING: usize = 64;

/// The fields of a `SUBMIT` line.
pub struct Submit {
    pub tenant: String,
    pub tier: SpecTier,
    pub args: Vec<i64>,
    pub source: String,
}

pub fn submit_of(req: &Req) -> Submit {
    match parse_request(req.text()) {
        Ok(Request::Submit { tenant, tier, args, source }) => Submit { tenant, tier, args, source },
        other => panic!("generated line is not a SUBMIT: {other:?}"),
    }
}

/// Tenant names in order of first appearance; index + 1 is the id the
/// wire layer assigns (0 is the built-in default tenant).
pub fn tenant_ids(reqs: &[Req]) -> (Vec<u32>, Vec<String>) {
    let mut names: Vec<String> = Vec::new();
    let mut ids = HashMap::new();
    let seq = reqs
        .iter()
        .map(|r| {
            let t = submit_of(r).tenant;
            *ids.entry(t.clone()).or_insert_with(|| {
                names.push(t);
                names.len() as u32
            })
        })
        .collect();
    (seq, names)
}

/// p50 ns of `parse_request` over the workload's lines (each timed alone).
pub fn parse_ns(reqs: &[Req]) -> f64 {
    let n = reqs.len().max(1);
    let mut t: Vec<f64> = (0..20_000.max(n).min(50_000))
        .map(|i| {
            let line = reqs[i % n].text();
            let s = Instant::now();
            let r = parse_request(line);
            let d = s.elapsed();
            assert!(r.is_ok());
            d.as_nanos() as f64
        })
        .collect();
    p50_p99(&mut t).0
}

/// p50/p99 ns of `parse_spec` + `compile` per distinct valid source.
pub fn compile_ns(reqs: &[Req]) -> (f64, f64) {
    let mut sources: Vec<String> = reqs.iter().map(|r| submit_of(r).source).collect();
    sources.sort();
    sources.dedup();
    sources.retain(|s| parse_spec(s).is_ok());
    if sources.is_empty() {
        return (0.0, 0.0);
    }
    let reps = (2000 / sources.len()).max(1);
    let mut t = Vec::new();
    for src in &sources {
        for _ in 0..reps {
            let s = Instant::now();
            let code = parse_spec(src).map(|spec| compile(&spec));
            t.push(s.elapsed().as_nanos() as f64);
            assert!(matches!(code, Ok(Ok(_))));
        }
    }
    p50_p99(&mut t)
}

/// ns per submit+complete pair of a standalone `PlacementCore` replaying
/// the stream's tenants with `window` jobs in flight (one per connection).
pub fn placement_decide_ns(tenants: &[u32], names: usize, shards: usize, window: usize) -> f64 {
    let run = || {
        let mut core = PlacementCore::new(PlacementPolicy::Affinity);
        for _ in 0..shards {
            core.add_shard(RuntimeConfig::default().max_inflight);
        }
        core.add_tenant(RuntimeConfig::default().max_inflight);
        for _ in 0..names {
            core.add_tenant(WIRE_TENANT_PENDING);
        }
        let mut inflight = std::collections::VecDeque::new();
        let start = Instant::now();
        for &t in tenants {
            if inflight.len() >= window {
                let (s, t) = inflight.pop_front().expect("window is non-empty");
                core.complete(s, t);
            }
            if let Some(s) = core.submit(t).shard() {
                inflight.push_back((s, t));
            }
        }
        for (s, t) in inflight {
            core.complete(s, t);
        }
        start.elapsed().as_nanos() as f64 / tenants.len().max(1) as f64
    };
    median((0..9).map(|_| run()).collect())
}

/// ns per submit/schedule/complete/schedule cycle of a standalone
/// `SchedCore` replaying the stream's tenants.
pub fn admit_core_ns(tenants: &[u32], names: &[String], window: usize) -> f64 {
    let run = || {
        let max_running = RuntimeConfig::default().max_inflight;
        let mut core = SchedCore::new(AdmissionPolicy { max_running, max_parked: 0, fifo: false });
        core.add_tenant(TenantSpec::new("default", max_running));
        for n in names {
            core.add_tenant(TenantSpec::new(n.clone(), WIRE_TENANT_PENDING));
        }
        let mut inflight = std::collections::VecDeque::new();
        let start = Instant::now();
        for &t in tenants {
            if inflight.len() >= window {
                core.complete(inflight.pop_front().expect("window is non-empty"));
                core.schedule();
            }
            inflight.push_back(core.submit(t, false));
            core.schedule();
        }
        start.elapsed().as_nanos() as f64 / tenants.len().max(1) as f64
    };
    median((0..9).map(|_| run()).collect())
}

/// p50 ns of a trivial `submit_fn` → `wait` round trip on a runtime of
/// `threads` workers.
pub fn handle_wake_ns(threads: usize) -> f64 {
    let rt = Runtime::with_config(RuntimeConfig { threads, ..RuntimeConfig::default() });
    let mut t: Vec<f64> = (0..3000)
        .map(|_| {
            let s = Instant::now();
            rt.submit_fn(|| ()).wait().expect("trivial job completes");
            s.elapsed().as_nanos() as f64
        })
        .collect();
    p50_p99(&mut t[500..]).0
}

/// What re-running the workload's jobs through `run_scheduler` at the
/// wire's configuration shows about the scheduler, pool and tier layers.
#[derive(Default)]
pub struct JobReplay {
    /// Run time in ms per `(program, tier)`.
    pub run_ms: HashMap<(&'static str, &'static str), Vec<f64>>,
    /// Counters summed over every run.
    pub all: ExecStats,
    /// Counters summed over the vector-tier runs.
    pub simd: ExecStats,
    pub runs: u64,
    pub pool: PoolMetrics,
}

/// Re-run up to `max_jobs` of the workload's valid jobs on a pool of
/// `workers`, cycling until `budget` is spent; every reduction is checked
/// against the request's oracle answer.
pub fn job_replay(
    reqs: &[Req],
    workers: usize,
    max_jobs: usize,
    budget: Duration,
) -> Result<JobReplay, String> {
    let jobs: Vec<(&Req, Submit)> = reqs
        .iter()
        .filter(|r| matches!(r.expect, Expect::Value(_)))
        .take(max_jobs)
        .map(|r| (r, submit_of(r)))
        .collect();
    let mut codes: HashMap<&str, Arc<SpecCode>> = HashMap::new();
    for (_, s) in &jobs {
        if !codes.contains_key(s.source.as_str()) {
            let spec = parse_spec(&s.source).map_err(|e| e.to_string())?;
            codes.insert(&s.source, Arc::new(compile(&spec).map_err(|e| e.to_string())?));
        }
    }
    let pool = ThreadPool::new(workers);
    let before = pool.metrics();
    let mut out = JobReplay::default();
    let start = Instant::now();
    'outer: loop {
        for (req, s) in &jobs {
            let Expect::Value(want) = req.expect else { unreachable!() };
            let code = Arc::clone(&codes[s.source.as_str()]);
            let calls = [s.args.clone()];
            let t = Instant::now();
            let (got, stats, tier) = match s.tier.lane_width() {
                0 | 1 => {
                    let p = CompiledSpec::from_code(code, &calls);
                    let o = run_scheduler(WIRE_KIND, &p, wire_cfg(), Some(&pool));
                    (o.reducer, o.stats, "scalar")
                }
                q => {
                    let p = VectorSpec::from_code_with_width(code, &calls, q);
                    let o = run_scheduler(WIRE_KIND, &p, wire_cfg(), Some(&pool));
                    (o.reducer, o.stats, "simd")
                }
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if got != want {
                return Err(format!("replayed {} returned {got}, oracle says {want}", req.text()));
            }
            out.run_ms.entry((req.program, tier)).or_default().push(ms);
            out.all.absorb(&stats);
            if tier == "simd" {
                out.simd.absorb(&stats);
            }
            out.runs += 1;
            if start.elapsed() >= budget {
                break 'outer;
            }
        }
        if jobs.is_empty() {
            break;
        }
    }
    out.pool = pool.metrics().since(&before);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire front-end's source, as the server is built from it.
    const WIRE_SRC: &str = include_str!("../../crates/service/src/wire.rs");

    #[test]
    fn copied_wire_request_path_matches_the_server() {
        for (copy, literal) in [
            (wire_cfg() == SchedConfig::restart(8, 1 << 10, 64), "SchedConfig::restart(8, 1 << 10, 64)"),
            (WIRE_KIND == SchedulerKind::RestartSimplified, "SchedulerKind::RestartSimplified"),
            (WIRE_TENANT_PENDING == 64, "const WIRE_TENANT_PENDING: usize = 64;"),
            (true, "TenantSpec::new(name, WIRE_TENANT_PENDING)"),
            (true, ".try_submit_spec_tier_as("),
        ] {
            assert!(copy, "the benchmark's copy no longer reads `{literal}`");
            assert!(
                WIRE_SRC.contains(literal),
                "the wire front-end no longer contains `{literal}`: update wire_cfg, WIRE_KIND, \
                 WIRE_TENANT_PENDING and inproc.rs to match it"
            );
        }
    }
}
