//! Threaded integration tests for the admission scheduler: the
//! starvation regression pair (weighted-fair vs the legacy tenant-blind
//! FIFO gate, same arrival script), end-to-end preemption through a real
//! pool (park at a superstep boundary, run the interactive job, resume),
//! per-tenant shedding, and stats plumbing.
//!
//! Determinism here comes from *structure*, not sleeps: a `SpinUntil` plug
//! occupies the single pool slot while the test scripts arrivals, so
//! admission order is decided entirely by the scheduler — and the
//! interactive job in the preemption test can only complete at all if the
//! batch job actually swapped out.

mod support;

use std::sync::{Arc, Mutex};

use support::{cfg, Mark, Plug, Rt, FIB_SRC};
use tb_core::prelude::*;
use tb_service::{JobRequest, Runtime, RuntimeConfig, SpecJob, TenantSpec};

/// The shared arrival script for the starvation pair: plug the single pool
/// slot, queue 40 heavy-tenant jobs, then ONE light-tenant job, release
/// the plug and let everything drain. Returns the light job's position in
/// the execution order (0 = ran first after the plug) on each runtime type.
fn light_positions(fifo: bool) -> Vec<usize> {
    let rts = Rt::both(RuntimeConfig { threads: 1, max_inflight: 1, max_parked: 0, fifo });
    rts.iter()
        .map(|rt| {
            let heavy = rt.register(TenantSpec::new("heavy", 64));
            let light = rt.register(TenantSpec::new("light", 8));
            let log = Arc::new(Mutex::new(Vec::new()));
            let mark = |tenant, tag| {
                let job = Mark { tag, log: Arc::clone(&log) };
                rt.submit(JobRequest::new(job, cfg(), SchedulerKind::Seq).tenant(tenant))
            };

            let plug = Plug::default();
            let plug_h = rt.submit(JobRequest::new(plug.program(), cfg(), SchedulerKind::Seq).tenant(heavy));
            plug.await_started(); // the slot is occupied: arrivals below only queue
            let heavies: Vec<_> = (0..40).map(|_| mark(heavy, 0)).collect();
            let light_h = mark(light, 1);
            plug.release();

            assert_eq!(plug_h.wait(), Ok(1));
            for h in heavies {
                assert_eq!(h.wait(), Ok(1));
            }
            assert_eq!(light_h.wait(), Ok(1));
            let log = log.lock().unwrap();
            assert_eq!(log.len(), 41);
            log.iter().position(|&t| t == 1).expect("light job ran")
        })
        .collect()
}

/// The starvation regression: under weighted-fair admission a light tenant
/// behind a 40-job flood is admitted within a couple of service times.
#[test]
fn fair_admission_bounds_a_light_tenants_wait() {
    for pos in light_positions(false) {
        assert!(pos <= 3, "light tenant ran at position {pos}; fair admission should bound this to ~0");
    }
}

/// The same script on the legacy FIFO gate semantics starves the light
/// tenant to the back of the flood — the failure mode the admission
/// scheduler exists to fix, preserved as the A/B baseline. (If this test
/// ever fails, `fifo: true` no longer reproduces the old global gate.)
#[test]
fn fifo_gate_semantics_starve_the_light_tenant() {
    for pos in light_positions(true) {
        assert!(pos >= 40, "FIFO should run the light tenant dead last, not at position {pos}");
    }
}

/// End-to-end preemption through a real pool: one worker, one slot. The
/// interactive job can ONLY complete if the running batch job parks at a
/// superstep boundary and hands over its slot; the batch job must then
/// resume and finish with the right answer. Table: both runtime types ×
/// (blocking | shedding) × an interactive program or spec job.
#[test]
fn interactive_tenant_preempts_batch_work_and_batch_resumes() {
    for bits in 0..8u8 {
        let (sharded, shed, spec) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        let case = format!("sharded={sharded} shed={shed} spec={spec}");
        let rt = Rt::new(sharded, RuntimeConfig { threads: 1, max_inflight: 1, max_parked: 4, fifo: false });
        let batch = rt.register(TenantSpec::new("batch", 8));
        let interactive = rt.register(TenantSpec::new("interactive", 8).priority(1));
        let plug = Plug::default();
        let req = JobRequest::new(plug.program(), cfg(), SchedulerKind::Seq).tenant(batch).preemptible();
        let b = rt.serve(shed, req).unwrap_or_else(|_| panic!("{case}: batch shed with room"));
        plug.await_started(); // batch job is mid-run on the only worker

        // Completing at all proves the swap-out happened: there is no
        // second slot or worker the interactive job could have used. A
        // sharded try-submission is refused by placement at shard capacity
        // before the shard could preempt, so there it takes the blocking
        // path.
        let shed = shed && !sharded;
        if spec {
            let req = JobRequest::new(SpecJob::call(FIB_SRC, vec![10]), cfg(), SchedulerKind::Seq);
            let h = rt.serve(shed, req.tenant(interactive)).expect("interactive has room");
            assert_eq!(h.wait(), Ok(55), "{case}");
        } else {
            let req = JobRequest::new(Mark { tag: 7, log: Arc::default() }, cfg(), SchedulerKind::Seq);
            let h = rt.serve(shed, req.tenant(interactive)).unwrap_or_else(|_| panic!("{case}: shed"));
            assert_eq!(h.wait(), Ok(1), "{case}");
        }

        let stats = rt.stats();
        assert!(stats.preemptions >= 1, "{case}: the batch job must have parked: {stats:?}");
        assert!(stats.tenants[batch as usize].counters.preemptions >= 1);

        plug.release();
        assert_eq!(b.wait(), Ok(1), "{case}: the parked frontier resumed and finished correctly");
        let stats = rt.stats();
        assert!(stats.resumes >= 1, "{case}: the parked job must have been resumed: {stats:?}");
        assert_eq!(stats.parked_tasks, 0);
        rt.audit_quiescent();
    }
}

/// Per-tenant bounds are isolated: a tenant at its pending cap sheds its
/// own submissions, while a neighbour tenant's submissions still pass.
/// The standalone runtime has a single slot, held by tenant a's plug, so
/// tenant b passes its own gate while the pool is saturated. The sharded
/// runtime gets four slots, because its placement core refuses any
/// try-submission once the shard's booked count reaches `max_inflight`.
#[test]
fn tenant_bound_sheds_without_touching_neighbours() {
    let config = |max_inflight| RuntimeConfig { threads: 1, max_inflight, max_parked: 0, fifo: false };
    for rt in [Rt::new(false, config(1)), Rt::new(true, config(4))] {
        let a = rt.register(TenantSpec::new("a", 2));
        let b = rt.register(TenantSpec::new("b", 2));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mark = |tenant, tag| {
            JobRequest::new(Mark { tag, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq).tenant(tenant)
        };

        let plug = Plug::default();
        let plug_h = rt.submit(JobRequest::new(plug.program(), cfg(), SchedulerKind::Seq).tenant(a));
        plug.await_started();
        let second = rt.submit(mark(a, 1));
        // Tenant a holds 2 of its 2 gate slots (one running, one waiting).
        match rt.try_submit(mark(a, 2)) {
            Err(prog) => assert_eq!(prog.tag, 2, "{rt:?}: the program comes back unchanged"),
            Ok(_) => panic!("{rt:?}: tenant a is at its bound; submission should shed"),
        }
        // Tenant b has its own gate and is unaffected by a's saturation.
        let bh = rt
            .try_submit(mark(b, 3))
            .unwrap_or_else(|_| panic!("{rt:?}: tenant b must not be blocked by tenant a's flood"));

        plug.release();
        assert_eq!(plug_h.wait(), Ok(1));
        assert_eq!(second.wait(), Ok(1));
        assert_eq!(bh.wait(), Ok(1));

        let stats = rt.stats();
        assert_eq!(stats.tenants[a as usize].counters.submitted, 2, "{rt:?}: the shed job never entered");
        assert_eq!(stats.tenants[b as usize].counters.submitted, 1);
        rt.audit_quiescent();
    }
}

/// Stats plumbing: per-tenant snapshots carry names, weights, priorities
/// and consistent counters; global aggregates match.
#[test]
fn stats_expose_tenant_queues_and_counters() {
    for rt in Rt::both(RuntimeConfig { threads: 2, max_inflight: 4, max_parked: 2, fifo: false }) {
        let client = rt.register(TenantSpec::new("client", 4).weight(3).priority(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mark = |tag| JobRequest::new(Mark { tag, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);

        let h1 = rt.submit(mark(0));
        let h2 = rt.submit(mark(1).tenant(client));
        let h3 = rt.submit(mark(1).tenant(client));
        assert_eq!(h1.wait(), Ok(1));
        assert_eq!(h2.wait(), Ok(1));
        assert_eq!(h3.wait(), Ok(1));

        let stats = rt.stats();
        assert_eq!(stats.tenants.len(), 2, "{rt:?}: default tenant + one registered");
        let default = &stats.tenants[tb_service::DEFAULT_TENANT as usize];
        assert_eq!(default.name, "default");
        let snap = &stats.tenants[client as usize];
        assert_eq!((snap.name.as_str(), snap.weight, snap.priority), ("client", 3, 1));
        assert_eq!(snap.counters.submitted, 2);
        assert_eq!(snap.counters.completed, 2);
        assert_eq!(snap.counters.admissions, 2);
        assert_eq!(default.counters.submitted, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.max_inflight, 4);
        assert_eq!(stats.max_parked, 2);
        rt.audit_quiescent();
    }
}

/// Sums the items of its chunk — the payload for the bulk-merge tests.
struct SumChunk(Vec<u64>);

impl BlockProgram for SumChunk {
    type Store = Vec<u64>;
    type Reducer = u64;
    fn arity(&self) -> usize {
        1
    }
    fn make_root(&self) -> Vec<u64> {
        self.0.clone()
    }
    fn make_reducer(&self) -> u64 {
        0
    }
    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }
    fn expand(&self, block: &mut Vec<u64>, _out: &mut BucketSet<Vec<u64>>, red: &mut u64) {
        *red += block.drain(..).sum::<u64>();
    }
}

/// `BulkHandle::wait_merged` through a real threaded pool: the adaptive
/// chunk cut is invisible to the caller — the fold over chunk results in
/// chunk order lands on the same total no matter how the items were cut or
/// which worker ran which chunk.
#[test]
fn bulk_wait_merged_folds_chunk_results_across_threads() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, max_parked: 0, fifo: false });
    let n = 10_000u64;
    let items: Vec<u64> = (0..n).collect();
    let bulk = rt.submit_bulk(items, cfg(), SchedulerKind::ReExpansion, SumChunk);
    assert!(bulk.chunks() >= 1);
    let total = bulk.wait_merged(0u64, |acc, chunk_sum| acc + chunk_sum).expect("no chunk fails");
    assert_eq!(total, n * (n - 1) / 2);

    // The bulk's chunks flow through the same per-tenant accounting as
    // ordinary jobs: every chunk counted submitted and completed, and all
    // gate slots returned.
    let stats = rt.stats();
    let default = &stats.tenants[tb_service::DEFAULT_TENANT as usize];
    assert_eq!(default.counters.submitted, default.counters.completed);
    assert!(default.counters.completed >= bulk_chunks_lower_bound(), "chunks went through the gate");
    assert_eq!(default.pending, 0);
}

/// At least one chunk for any non-empty bulk — kept as a named constant so
/// the assertion above reads as intent, not magic.
fn bulk_chunks_lower_bound() -> u64 {
    1
}

/// `wait_merged` error short-circuiting: cancel a bulk whose chunks are
/// stuck behind a plug; the merged wait must surface `Cancelled` instead
/// of a partial fold, and the merge closure must stop being called.
#[test]
fn bulk_wait_merged_short_circuits_on_a_cancelled_chunk() {
    // A wide gate (submission never blocks) over a single worker: the plug
    // pins the pool, so every bulk chunk is still queued when we cancel.
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 64, max_parked: 0, fifo: false });
    let plug = Plug::default();
    let plug_h = rt.submit(JobRequest::new(plug.program(), cfg(), SchedulerKind::Seq));
    plug.await_started(); // the only worker is occupied: bulk chunks can only queue
    let bulk = rt.submit_bulk((0..64u64).collect(), cfg(), SchedulerKind::ReExpansion, SumChunk);
    bulk.cancel();
    plug.release();
    assert_eq!(plug_h.wait(), Ok(1));

    let mut merges = 0u32;
    let merged = bulk.wait_merged(0u64, |acc, s| {
        merges += 1;
        acc + s
    });
    assert_eq!(merged, Err(tb_service::JobError::Cancelled), "cancellation surfaces, not a partial sum");
    assert_eq!(merges, 0, "every chunk was cancelled before running; nothing merged");

    let stats = rt.stats();
    let default = &stats.tenants[tb_service::DEFAULT_TENANT as usize];
    assert_eq!(default.pending, 0, "cancelled chunks still return their gate slots");
}

/// Per-tenant counters roll up identically through a `ShardSnapshot`: the
/// same `TenantSnapshot` structures a standalone runtime exposes arrive
/// per shard, and summing a tenant across shards accounts for every job it
/// submitted anywhere — the placement layer adds routing, not a second
/// bookkeeping scheme.
#[test]
fn shard_snapshot_rolls_up_the_same_tenant_counters() {
    use tb_service::{PlacementPolicy, ShardConfig, ShardedRuntime};

    let rt = ShardedRuntime::with_config(ShardConfig::uniform(2, 1).policy(PlacementPolicy::LeastLoaded));
    let log = Arc::new(Mutex::new(Vec::new()));
    let client = rt.register_tenant(TenantSpec::new("client", 4).weight(3).priority(1));

    let handles: Vec<_> = (0..6)
        .map(|i| {
            rt.submit(
                JobRequest::new(Mark { tag: i, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq)
                    .tenant(client),
            )
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), Ok(1));
    }

    let snap = rt.snapshot();
    assert_eq!(snap.shards.len(), 2);
    // Identity and spec fields survive per shard...
    for stats in &snap.shards {
        let t = &stats.tenants[client as usize];
        assert_eq!((t.name.as_str(), t.weight, t.priority), ("client", 3, 1));
        assert_eq!(t.counters.submitted, t.counters.completed, "per-shard books balance");
        assert_eq!(t.pending, 0);
    }
    // ...and the cross-shard sum accounts for every job exactly once.
    let submitted: u64 = snap.shards.iter().map(|s| s.tenants[client as usize].counters.submitted).sum();
    let completed: u64 = snap.shards.iter().map(|s| s.tenants[client as usize].counters.completed).sum();
    assert_eq!(submitted, 6);
    assert_eq!(completed, 6);
    // LeastLoaded over an idle pair spreads the load: both shards did work.
    assert!(
        snap.shards.iter().all(|s| s.tenants[client as usize].counters.submitted >= 1),
        "least-loaded placement left a shard idle: {snap:?}"
    );
    // The placement core agrees with the rolled-up tenant counters.
    assert_eq!(snap.placement.completed, submitted);
    assert_eq!(snap.gate_slots_held(), 0);
    assert_eq!(log.lock().unwrap().len(), 6);
}
