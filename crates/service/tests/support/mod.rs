//! Programs and a runtime wrapper shared by the service integration tests.
//!
//! [`Rt`] puts both runtime types behind one submission surface, so a
//! table-driven test runs every case on a standalone `Runtime` and on a
//! one-shard `ShardedRuntime` built from the same `RuntimeConfig`.

#![allow(dead_code)] // each test crate uses its own subset

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tb_core::prelude::*;
use tb_service::{
    JobHandle, JobRequest, Payload, PlacementPolicy, Runtime, RuntimeConfig, ServiceStats, ShardConfig,
    ShardedRuntime, TenantId, TenantSpec,
};

/// `fib(n)` in the spec language.
pub const FIB_SRC: &str = "spec fib(n) {
  base (n < 2) { reduce n; }
  else { spawn fib(n - 1); spawn fib(n - 2); }
}";

/// Count the leaves of a depth-n binary tree: 2^n leaves, known answer,
/// exponential work — ideal for "did it actually run / stop" checks.
#[derive(Debug, PartialEq)]
pub struct Tree(pub u32);

impl BlockProgram for Tree {
    type Store = Vec<u32>;
    type Reducer = u64;
    fn arity(&self) -> usize {
        2
    }
    fn make_root(&self) -> Vec<u32> {
        vec![self.0]
    }
    fn make_reducer(&self) -> u64 {
        0
    }
    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }
    fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        for n in block.drain(..) {
            if n == 0 {
                *red += 1;
            } else {
                out.bucket(0).push(n - 1);
                out.bucket(1).push(n - 1);
            }
        }
    }
}

/// Reduces to 1 and records its tag in the shared log when executed.
pub struct Mark {
    pub tag: u32,
    pub log: Arc<Mutex<Vec<u32>>>,
}

impl BlockProgram for Mark {
    type Store = Vec<u32>;
    type Reducer = u64;
    fn arity(&self) -> usize {
        1
    }
    fn make_root(&self) -> Vec<u32> {
        vec![0]
    }
    fn make_reducer(&self) -> u64 {
        0
    }
    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }
    fn expand(&self, block: &mut Vec<u32>, _out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        for _ in block.drain(..) {
            self.log.lock().unwrap().push(self.tag);
            *red += 1;
        }
    }
}

/// Respawns its single task every superstep until `release` fires, then
/// reduces to 1 — an unbounded supply of superstep boundaries, which makes
/// it both a pool *plug* (occupies its slot for as long as the test needs)
/// and the ideal preemption target.
pub struct SpinUntil {
    pub release: Arc<AtomicBool>,
    pub started: Arc<AtomicBool>,
}

impl BlockProgram for SpinUntil {
    type Store = Vec<u32>;
    type Reducer = u64;
    fn arity(&self) -> usize {
        1
    }
    fn make_root(&self) -> Vec<u32> {
        vec![0]
    }
    fn make_reducer(&self) -> u64 {
        0
    }
    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }
    fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        self.started.store(true, Ordering::Release);
        for t in block.drain(..) {
            if self.release.load(Ordering::Acquire) {
                *red += 1;
            } else {
                out.bucket(0).push(t);
            }
        }
    }
}

/// The release/started flag pair of one [`SpinUntil`].
#[derive(Default)]
pub struct Plug {
    pub release: Arc<AtomicBool>,
    pub started: Arc<AtomicBool>,
}

impl Plug {
    pub fn program(&self) -> SpinUntil {
        SpinUntil { release: Arc::clone(&self.release), started: Arc::clone(&self.started) }
    }

    /// Block until the plug's program is running on a worker.
    pub fn await_started(&self) {
        while !self.started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    pub fn release(&self) {
        self.release.store(true, Ordering::Release);
    }
}

/// A failing test must not leave its plug spinning: the runtime's drop
/// would wait on it forever.
impl Drop for Plug {
    fn drop(&mut self) {
        self.release();
    }
}

pub fn cfg() -> SchedConfig {
    SchedConfig::basic(4, 64)
}

/// Spin until `f` holds; `what` names the awaited condition on timeout.
pub fn await_until(what: &str, f: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !f() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// A standalone runtime or a one-shard sharded runtime over the same
/// config: the two serve the same requests with the same results.
#[derive(Clone)]
pub enum Rt {
    Single(Runtime),
    Sharded(ShardedRuntime),
}

impl std::fmt::Debug for Rt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rt::Single(_) => "Runtime",
            Rt::Sharded(_) => "ShardedRuntime",
        })
    }
}

impl Rt {
    /// Both runtime types over `cfg`.
    pub fn both(cfg: RuntimeConfig) -> [Rt; 2] {
        [Rt::new(false, cfg), Rt::new(true, cfg)]
    }

    pub fn new(sharded: bool, cfg: RuntimeConfig) -> Rt {
        if sharded {
            let shards = ShardConfig { shards: vec![cfg], policy: PlacementPolicy::Affinity };
            Rt::Sharded(ShardedRuntime::with_config(shards))
        } else {
            Rt::Single(Runtime::with_config(cfg))
        }
    }

    pub fn register(&self, spec: TenantSpec) -> TenantId {
        match self {
            Rt::Single(rt) => rt.register_tenant(spec),
            Rt::Sharded(rt) => rt.register_tenant(spec),
        }
    }

    pub fn submit<J: Payload>(&self, req: JobRequest<J>) -> JobHandle<J::Output> {
        match self {
            Rt::Single(rt) => rt.submit(req),
            Rt::Sharded(rt) => rt.submit(req),
        }
    }

    pub fn try_submit<J: Payload>(&self, req: JobRequest<J>) -> Result<JobHandle<J::Output>, J> {
        match self {
            Rt::Single(rt) => rt.try_submit(req),
            Rt::Sharded(rt) => rt.try_submit(req),
        }
    }

    /// `try_submit` when `shed`, else `submit`.
    pub fn serve<J: Payload>(&self, shed: bool, req: JobRequest<J>) -> Result<JobHandle<J::Output>, J> {
        if shed {
            self.try_submit(req)
        } else {
            Ok(self.submit(req))
        }
    }

    /// The (only) shard's service stats.
    pub fn stats(&self) -> ServiceStats {
        match self {
            Rt::Single(rt) => rt.stats(),
            Rt::Sharded(rt) => rt.snapshot().shards.swap_remove(0),
        }
    }

    /// At quiescence: no job in flight, no gate slot held, and on the
    /// sharded runtime every placement booking retired — rejected specs
    /// included, which proves the finish observer fired for them.
    pub fn audit_quiescent(&self) {
        let stats = self.stats();
        assert_eq!((stats.inflight, stats.waiting, stats.parked), (0, 0, 0), "{self:?} not quiescent");
        assert!(stats.tenants.iter().all(|t| t.pending == 0), "{self:?} holds a gate slot: {stats:?}");
        if let Rt::Sharded(rt) = self {
            let p = rt.snapshot().placement;
            assert_eq!(p.submitted, p.placed + p.shed + p.rejected, "conservation broke: {p:?}");
            assert_eq!(p.placed + p.shed, p.completed, "a placement booking leaked: {p:?}");
        }
    }
}

/// A tree whose expansion also ticks a shared counter, so tests can observe
/// whether work kept happening after a cancel/drop.
pub struct CountingTree {
    pub depth: u32,
    pub ticks: Arc<AtomicU64>,
}

impl BlockProgram for CountingTree {
    type Store = Vec<u32>;
    type Reducer = u64;
    fn arity(&self) -> usize {
        2
    }
    fn make_root(&self) -> Vec<u32> {
        vec![self.depth]
    }
    fn make_reducer(&self) -> u64 {
        0
    }
    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }
    fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        self.ticks.fetch_add(block.len() as u64, Ordering::Relaxed);
        for n in block.drain(..) {
            if n == 0 {
                *red += 1;
            } else {
                out.bucket(0).push(n - 1);
                out.bucket(1).push(n - 1);
            }
        }
    }
}
