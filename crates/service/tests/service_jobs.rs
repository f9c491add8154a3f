//! Integration tests for the service layer's one submission path: every
//! request shape on both runtime types (table-driven), cooperative
//! cancellation, handle drop (detach), bulk chunking, closure jobs and
//! spec-source jobs — the behaviours a long-lived shared runtime must not
//! get wrong under concurrent clients.

mod support;

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use support::{await_until, cfg, CountingTree, Plug, Rt, Tree, FIB_SRC};
use tb_core::prelude::*;
use tb_service::{
    JobError, JobRequest, Payload, Runtime, RuntimeConfig, SpecJob, TenantId, TenantSpec, DEFAULT_TENANT,
};

/// One submission shape: which runtime type serves it, whether it blocks
/// or sheds at capacity, what it runs, who submits it, and whether it is
/// preemptible.
#[derive(Debug, Clone, Copy)]
struct Shape {
    sharded: bool,
    shed: bool,
    spec: bool,
    registered: bool,
    preemptible: bool,
}

/// (blocking | shedding) × (program | spec) × (default | registered
/// tenant) × (preemptible or not), on both runtime types: every shape runs
/// on an idle runtime, rejects bad specs without taking a gate slot, and at
/// capacity either blocks until a slot frees (counted as a backpressure
/// wait) or hands its payload back unchanged — `Err` only on capacity.
#[test]
fn every_submission_shape_runs_blocks_or_sheds_and_rejects_without_a_slot() {
    for bits in 0..32u8 {
        let shape = Shape {
            sharded: bits & 1 != 0,
            shed: bits & 2 != 0,
            spec: bits & 4 != 0,
            registered: bits & 8 != 0,
            preemptible: bits & 16 != 0,
        };
        if shape.spec {
            check_shape(shape, || SpecJob::call(FIB_SRC, vec![10]), 55);
        } else {
            check_shape(shape, || Tree(10), 1 << 10);
        }
    }
}

fn check_shape<J>(shape: Shape, job: impl Fn() -> J + Sync, want: J::Output)
where
    J: Payload + PartialEq + Debug,
    J::Output: PartialEq + Debug + Copy,
{
    // One worker, one slot, one-slot tenants: a single plug saturates.
    let rt =
        Rt::new(shape.sharded, RuntimeConfig { threads: 1, max_inflight: 1, max_parked: 2, fifo: false });
    let tenant = if shape.registered { rt.register(TenantSpec::new("client", 1)) } else { DEFAULT_TENANT };
    let req = |job| request(shape, tenant, job);
    let admitted = |h: Result<_, J>| h.unwrap_or_else(|back| panic!("{shape:?}: shed {back:?} with room"));

    // An idle runtime runs the job.
    assert_eq!(admitted(rt.serve(shape.shed, req(job()))).wait(), Ok(want), "{shape:?}");

    // A malformed or mis-called spec completes at once as Rejected — an
    // `Ok` handle even when shedding — and never occupies a gate slot.
    if shape.spec {
        let before = rt.stats();
        for (source, args, says) in [
            (
                "spec f(n) { base (n < 2) { reduce n; } else { spawn g(n - 1); } }",
                vec![5],
                ["self-recursive", "^"],
            ),
            (FIB_SRC, vec![10, 3], ["2 args", "1 params"]),
        ] {
            let h = rt.serve(shape.shed, request(shape, tenant, SpecJob::call(source, args)));
            let h = h.unwrap_or_else(|_| panic!("{shape:?}: a rejection is not a capacity Err"));
            assert!(h.is_finished(), "{shape:?}: rejection completes the handle immediately");
            match h.wait() {
                Err(JobError::Rejected(msg)) => {
                    assert!(says.iter().all(|s| msg.contains(s)), "{shape:?}: {msg}")
                }
                other => panic!("{shape:?}: expected a rejection, got {other:?}"),
            }
        }
        let after = rt.stats();
        assert_eq!(after.rejected, before.rejected + 2, "{shape:?}");
        assert_eq!(after.submitted, before.submitted, "{shape:?}: rejected specs never occupy a gate slot");
    }

    // Plug the tenant's only slot, then meet the full gate.
    let plug = Plug::default();
    let plug_h = rt.submit(JobRequest::new(plug.program(), cfg(), SchedulerKind::Seq).tenant(tenant));
    plug.await_started();
    if shape.shed {
        match rt.try_submit(req(job())) {
            Err(back) => assert_eq!(back, job(), "{shape:?}: the payload comes back unchanged"),
            Ok(_) => panic!("{shape:?}: admitted past a full gate"),
        }
        plug.release();
        assert_eq!(plug_h.wait(), Ok(1));
        assert_eq!(admitted(rt.try_submit(req(job()))).wait(), Ok(want), "{shape:?}: the freed slot admits");
    } else {
        let waits = rt.stats().backpressure_waits;
        std::thread::scope(|s| {
            let blocked = s.spawn(|| rt.submit(req(job())).wait());
            await_until("the submitter to block on the gate", || rt.stats().backpressure_waits > waits);
            plug.release();
            assert_eq!(blocked.join().unwrap(), Ok(want), "{shape:?}");
        });
        assert_eq!(plug_h.wait(), Ok(1));
    }
    rt.audit_quiescent();
}

/// `job` as `tenant`'s request under `shape`.
fn request<K: Payload>(shape: Shape, tenant: TenantId, job: K) -> JobRequest<K> {
    let req = JobRequest::new(job, cfg(), SchedulerKind::Seq).tenant(tenant);
    if shape.preemptible {
        req.preemptible()
    } else {
        req
    }
}

/// Every scheduler kind serves both payloads on both runtime types; the
/// spec source compiles once per runtime and every resubmission hits the
/// cache.
#[test]
fn every_kind_serves_programs_and_specs() {
    for rt in Rt::both(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() }) {
        for kind in SchedulerKind::ALL {
            let tree = rt.submit(JobRequest::new(Tree(12), SchedConfig::restart(4, 64, 16), kind));
            let fib = rt.submit(JobRequest::new(
                SpecJob::call(FIB_SRC, vec![18]),
                SchedConfig::restart(4, 64, 16),
                kind,
            ));
            assert_eq!(tree.wait(), Ok(1 << 12), "{rt:?} {kind:?}");
            assert_eq!(fib.wait(), Ok(2584), "{rt:?} {kind:?}");
        }
        let stats = rt.stats();
        assert_eq!(stats.spec_compiles, 1, "{rt:?}: compiled once");
        assert_eq!(stats.spec_cache_hits, 4, "{rt:?}: four resubmissions hit the cache");
        assert_eq!(stats.rejected, 0);
        rt.audit_quiescent();
    }
}

#[test]
fn mixed_schedulers_coexist_on_one_pool() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 3, max_inflight: 32, ..RuntimeConfig::default() });
    let mut handles = Vec::new();
    for round in 0..4u32 {
        let depth = 8 + round;
        for (cfg, kind) in [
            (SchedConfig::basic(4, 64), SchedulerKind::ReExpansion),
            (SchedConfig::restart(4, 64, 16), SchedulerKind::RestartSimplified),
            (SchedConfig::reexpansion(4, 64), SchedulerKind::Seq),
        ] {
            handles.push((depth, rt.submit(JobRequest::new(Tree(depth), cfg, kind))));
        }
    }
    for (depth, h) in handles {
        assert_eq!(h.wait(), Ok(1u64 << depth), "depth {depth}");
    }
    let stats = rt.stats();
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.injector.full_waits, 0, "submission must never block on capacity");
}

#[test]
fn concurrent_clients_hammer_one_runtime() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    std::thread::scope(|s| {
        for client in 0..4 {
            let rt = rt.clone();
            s.spawn(move || {
                for i in 0..10u32 {
                    let depth = 6 + (client + i) % 5;
                    let kind = if i % 2 == 0 {
                        SchedulerKind::ReExpansion
                    } else {
                        SchedulerKind::RestartSimplified
                    };
                    let h = rt.submit(JobRequest::new(Tree(depth), SchedConfig::restart(4, 32, 8), kind));
                    assert_eq!(h.wait(), Ok(1u64 << depth));
                }
            });
        }
    });
    let stats = rt.stats();
    assert_eq!(stats.completed, 40);
    assert_eq!(stats.injector.full_waits, 0);
}

#[test]
fn cancellation_stops_expansion_promptly() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let ticks = Arc::new(AtomicU64::new(0));
    // Depth 40: ~2^40 leaves, would run for hours — cancellation is the
    // only way this test can finish.
    let h = rt.submit(JobRequest::new(
        CountingTree { depth: 40, ticks: Arc::clone(&ticks) },
        SchedConfig::basic(4, 256),
        SchedulerKind::ReExpansion,
    ));
    // Let it get going, then cancel.
    while ticks.load(Ordering::Relaxed) < 1000 {
        std::hint::spin_loop();
    }
    h.cancel();
    let res = h.wait(); // must return quickly, not after 2^40 tasks
    assert_eq!(res, Err(JobError::Cancelled));
    let after_cancel = ticks.load(Ordering::Relaxed);
    // The drain may consume already-materialised blocks but must not keep
    // expanding: give it a beat and check the counter stopped moving.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(ticks.load(Ordering::Relaxed), after_cancel, "expansion continued after cancel+wait");
    assert_eq!(rt.stats().cancelled, 1);
}

#[test]
fn dropping_a_handle_mid_run_detaches_without_wedging() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 2, ..RuntimeConfig::default() });
    let ticks = Arc::new(AtomicU64::new(0));
    let h = rt.submit(JobRequest::new(
        CountingTree { depth: 18, ticks: Arc::clone(&ticks) },
        SchedConfig::basic(4, 64),
        SchedulerKind::ReExpansion,
    ));
    drop(h); // detach: the run continues and must release its gate slot
    let deadline = Instant::now() + Duration::from_secs(60);
    while rt.stats().completed < 1 {
        assert!(Instant::now() < deadline, "detached job never completed");
        std::thread::yield_now();
    }
    assert_eq!(ticks.load(Ordering::Relaxed), (1u64 << 19) - 1, "detached job ran to completion");
    assert_eq!(rt.stats().inflight, 0, "gate slot leaked by dropped handle");
    // The runtime is still fully usable afterwards.
    let h = rt.submit(JobRequest::new(Tree(10), SchedConfig::basic(4, 64), SchedulerKind::ReExpansion));
    assert_eq!(h.wait(), Ok(1 << 10));
}

#[test]
fn dropping_a_cancelled_handle_is_also_clean() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 2, ..RuntimeConfig::default() });
    let ticks = Arc::new(AtomicU64::new(0));
    let h = rt.submit(JobRequest::new(
        CountingTree { depth: 40, ticks: Arc::clone(&ticks) },
        SchedConfig::basic(4, 256),
        SchedulerKind::ReExpansion,
    ));
    while ticks.load(Ordering::Relaxed) < 100 {
        std::hint::spin_loop();
    }
    h.cancel();
    drop(h);
    let deadline = Instant::now() + Duration::from_secs(60);
    while rt.stats().cancelled < 1 {
        assert!(Instant::now() < deadline, "cancelled+dropped job never wound down");
        std::thread::yield_now();
    }
    assert_eq!(rt.stats().inflight, 0);
}

#[test]
fn bulk_results_arrive_in_input_order() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    // 100 items, each chunk's program counts leaves of depth = chunk len.
    let items: Vec<u32> = (0..100).collect();
    let bulk =
        rt.submit_bulk(items, SchedConfig::basic(4, 64), SchedulerKind::ReExpansion, |chunk: Vec<u32>| {
            Tree(chunk.len() as u32)
        });
    let chunks = bulk.chunks();
    assert!(chunks >= 2, "100 items on 2 workers must split");
    let results = bulk.wait();
    assert_eq!(results.len(), chunks);
    let total: u64 = results.into_iter().map(|r| r.expect("no chunk failed")).sum();
    // Each chunk of length L contributes 2^L leaves; chunk lengths sum to
    // 100, and every chunk is non-empty.
    assert!(total >= 100);
    assert_eq!(rt.stats().completed as usize, chunks);
}

#[test]
fn bulk_cancel_reaches_queued_chunks() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 16, ..RuntimeConfig::default() });
    // Many deep chunks on one worker: cancel after the first ticks arrive;
    // later chunks must come back Cancelled without doing their full work.
    let ticks = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&ticks);
    let bulk = rt.submit_bulk(
        (0..64u32).collect::<Vec<_>>(),
        SchedConfig::basic(4, 64),
        SchedulerKind::ReExpansion,
        move |chunk: Vec<u32>| CountingTree { depth: 24 + chunk.len() as u32, ticks: Arc::clone(&t2) },
    );
    while ticks.load(Ordering::Relaxed) < 100 {
        std::hint::spin_loop();
    }
    bulk.cancel();
    let results = bulk.wait(); // must terminate long before 64 × 2^24 tasks
    assert!(results.contains(&Err(JobError::Cancelled)), "at least the queued chunks observe the cancel");
}

#[test]
fn panicking_program_is_contained() {
    struct Bomb;
    impl BlockProgram for Bomb {
        type Store = Vec<u32>;
        type Reducer = u64;
        fn arity(&self) -> usize {
            1
        }
        fn make_root(&self) -> Vec<u32> {
            vec![1]
        }
        fn make_reducer(&self) -> u64 {
            0
        }
        fn merge_reducers(&self, _: &mut u64, _: u64) {}
        fn expand(&self, _: &mut Vec<u32>, _: &mut BucketSet<Vec<u32>>, _: &mut u64) {
            panic!("bomb");
        }
    }
    // Both runtime types, and the preemptible stepping engine as well as
    // the scheduler run: each contains the panic the same way.
    for rt in Rt::both(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() }) {
        for preemptible in [false, true] {
            let req = JobRequest::new(Bomb, SchedConfig::basic(4, 64), SchedulerKind::Seq);
            let h = rt.submit(if preemptible { req.preemptible() } else { req });
            assert_eq!(h.wait(), Err(JobError::Panicked), "{rt:?} preemptible={preemptible}");
            assert_eq!(rt.stats().inflight, 0, "panicked job released its slot");
            // Pool workers survived; the runtime still serves.
            let h =
                rt.submit(JobRequest::new(Tree(8), SchedConfig::basic(4, 64), SchedulerKind::ReExpansion));
            assert_eq!(h.wait(), Ok(256));
        }
        assert_eq!(rt.stats().panicked, 2);
        rt.audit_quiescent();
    }
}

#[test]
fn closure_jobs_ride_the_same_gate() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let mut handles: Vec<_> = (0..8u64).map(|i| rt.submit_fn(move || i * i)).collect();
    let sum: u64 = handles.drain(..).map(|h| h.wait().expect("closure job")).sum();
    assert_eq!(sum, (0..8u64).map(|i| i * i).sum());
    let stats = rt.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.inflight, 0);
}

#[test]
fn panicking_bulk_chunk_builder_is_contained() {
    // Regression: a panic inside the user-supplied chunk-builder must be
    // routed to JobError::Panicked like any program panic — not escape the
    // catch, leak gate slots, and wedge BulkHandle::wait() forever.
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    let bulk = rt.submit_bulk(
        (0..32u32).collect::<Vec<_>>(),
        SchedConfig::basic(4, 64),
        SchedulerKind::ReExpansion,
        |_chunk: Vec<u32>| -> Tree { panic!("builder bomb") },
    );
    let results = bulk.wait(); // must complete, not hang
    assert!(!results.is_empty());
    assert!(results.iter().all(|r| *r == Err(JobError::Panicked)));
    let stats = rt.stats();
    assert_eq!(stats.inflight, 0, "panicked chunks must release their gate slots");
    assert_eq!(stats.panicked as usize, results.len());
    // Runtime still serves.
    let h = rt.submit(JobRequest::new(Tree(8), SchedConfig::basic(4, 64), SchedulerKind::ReExpansion));
    assert_eq!(h.wait(), Ok(256));
}

#[test]
fn spec_cache_is_shared_across_concurrent_clients() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 16, ..RuntimeConfig::default() });
    std::thread::scope(|s| {
        for _ in 0..4 {
            let rt = rt.clone();
            s.spawn(move || {
                for n in [8i64, 10, 12] {
                    let fib = SpecJob::call(FIB_SRC, vec![n]);
                    let h = rt.submit(JobRequest::new(fib, SchedConfig::basic(4, 32), SchedulerKind::Seq));
                    let want = [21, 55, 144][[8, 10, 12].iter().position(|&x| x == n).unwrap()];
                    assert_eq!(h.wait(), Ok(want));
                }
            });
        }
    });
    let stats = rt.stats();
    assert_eq!(stats.completed, 12);
    // The source may compile more than once under a racing first miss
    // (compilation happens outside the lock), but the cache must converge:
    // compiles + hits account for every submission.
    assert!(stats.spec_compiles >= 1);
    assert_eq!(stats.spec_compiles + stats.spec_cache_hits, 12);
}

#[test]
fn hostile_spec_source_cannot_kill_the_runtime() {
    // A pathological source (50k nested parens) must come back as a
    // Rejected handle — before the parser's nesting limits this aborted
    // the whole process with a stack overflow.
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let hostile = format!(
        "spec f(n) {{ base (n < 2) {{ reduce {}n{}; }} else {{ spawn f(n - 1); }} }}",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    let h = rt.submit(JobRequest::new(
        SpecJob::call(&hostile, vec![5]),
        SchedConfig::basic(4, 64),
        SchedulerKind::Seq,
    ));
    assert!(matches!(h.wait(), Err(JobError::Rejected(_))));
    // The runtime survives and still serves.
    let h = rt.submit(JobRequest::new(
        SpecJob::call(FIB_SRC, vec![10]),
        SchedConfig::basic(4, 64),
        SchedulerKind::Seq,
    ));
    assert_eq!(h.wait(), Ok(55));
}
