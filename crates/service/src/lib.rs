//! # tb-service — a persistent multi-tenant runtime front-end
//!
//! The paper's schedulers assume one program, one `install`, one pool
//! lifetime. This crate is the production-facing layer on top: a
//! long-lived [`Runtime`] that owns one work-stealing pool and multiplexes
//! many concurrent clients over it.
//!
//! **One submission path.** Every job is a [`JobRequest`]: a payload (any
//! [`BlockProgram`](tb_core::BlockProgram), or a [`SpecJob`] carrying
//! spec-language source), its [`SchedConfig`](tb_core::SchedConfig) and
//! [`SchedulerKind`](tb_core::SchedulerKind), the submitting tenant
//! (default [`DEFAULT_TENANT`]) and whether it is preemptible.
//! [`Runtime::submit`] serves it, blocking while the tenant is at its
//! pending bound; [`Runtime::try_submit`] sheds instead, handing the
//! payload back. [`ShardedRuntime`] serves the same pair across N runtimes.
//!
//! * **job handles** — every submission returns a [`JobHandle`]: poll it,
//!   block on it, or cancel it cooperatively (see `tb_core::cancel`);
//! * **per-job scheduling** — basic, re-expansion and restart jobs coexist
//!   on one pool, each under its own config and kind;
//! * **multi-tenant admission** — every job belongs to a tenant
//!   ([`TenantSpec`]: weight, strict priority, pending bound). The
//!   admission scheduler ([`sched`]) splits pool slots by weight within a
//!   priority class (stride-style deficit accounting, so a flooding heavy
//!   tenant cannot starve a light one) and strictly by priority across
//!   classes, while per-tenant gates block or shed each tenant's *own*
//!   oversubscribing clients; the pool's *segmented unbounded* injector
//!   (`tb_runtime::injector`) guarantees admitted submissions never
//!   spin-block;
//! * **preemptible jobs** — a preemptible request parks at a superstep
//!   boundary when a higher-priority tenant needs its slot: the job's
//!   frontier swaps out into a bounded park pool and resumes later with
//!   bit-identical results (the paper's superstep structure is the
//!   preemption seam — between supersteps the engine's entire state is its
//!   frontier);
//! * **spec-source jobs** — a [`SpecJob`] is a program the service has
//!   never seen before, as *source text*: the runtime parses, validates
//!   and lowers it once (`tb_spec::compile`, cached by source), schedules
//!   it at the requested execution tier, and surfaces parse/validate
//!   failures through the handle as [`JobError::Rejected`] caret
//!   diagnostics instead of panicking a worker;
//! * **closures and bulk** — [`Runtime::submit_fn`] runs a plain closure
//!   as a job, and [`Runtime::submit_bulk`] cuts an input slice into
//!   adaptively sized chunks (per DCAFE: chunk size grows with queue
//!   depth, never one-task-per-item flooding).
//!
//! ```
//! use tb_core::prelude::*;
//! use tb_service::{JobRequest, Runtime, SpecJob};
//!
//! let rt = Runtime::new(2);
//! let fib = SpecJob::call(
//!     "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }",
//!     vec![20],
//! );
//! let h = rt.submit(JobRequest::new(fib, SchedConfig::restart(8, 1 << 10, 64), SchedulerKind::RestartSimplified));
//! assert_eq!(h.wait(), Ok(6765));
//! ```
//!
//! The segment lifecycle, the backpressure rule and the worker parking
//! protocol are documented in DESIGN.md §7; the submission path in §9.
//!
//! # Quick start
//!
//! ```
//! use tb_core::prelude::*;
//! use tb_service::{JobRequest, Runtime, RuntimeConfig, TenantSpec};
//!
//! /// Count the leaves of a depth-n binary tree (any BlockProgram works).
//! struct Tree(u32);
//! impl BlockProgram for Tree {
//!     type Store = Vec<u32>;
//!     type Reducer = u64;
//!     fn arity(&self) -> usize { 2 }
//!     fn make_root(&self) -> Vec<u32> { vec![self.0] }
//!     fn make_reducer(&self) -> u64 { 0 }
//!     fn merge_reducers(&self, a: &mut u64, b: u64) { *a += b; }
//!     fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
//!         for n in block.drain(..) {
//!             if n == 0 { *red += 1 } else {
//!                 out.bucket(0).push(n - 1);
//!                 out.bucket(1).push(n - 1);
//!             }
//!         }
//!     }
//! }
//!
//! // One shared runtime; clients clone it freely.
//! let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 16, ..RuntimeConfig::default() });
//!
//! // Mixed jobs in flight concurrently, each with its own scheduler.
//! let a = rt.submit(JobRequest::new(Tree(10), SchedConfig::basic(4, 64), SchedulerKind::ReExpansion));
//! let b = rt.submit(JobRequest::new(Tree(12), SchedConfig::restart(4, 64, 16), SchedulerKind::RestartSimplified));
//! assert_eq!(a.wait(), Ok(1 << 10));
//! assert_eq!(b.wait(), Ok(1 << 12));
//!
//! // A registered tenant's preemptible batch job; shedding hands the
//! // program back if the tenant is at its pending bound.
//! let batch = rt.register_tenant(TenantSpec::new("batch", 4));
//! let req = JobRequest::new(Tree(8), SchedConfig::basic(4, 64), SchedulerKind::Seq).tenant(batch).preemptible();
//! match rt.try_submit(req) {
//!     Ok(h) => assert_eq!(h.wait(), Ok(1 << 8)),
//!     Err(prog) => assert_eq!(prog.0, 8), // at capacity: nothing was queued
//! }
//!
//! // Bulk data-parallel submission: items chunked adaptively, results in
//! // input order.
//! let bulk = rt.submit_bulk(
//!     (0..64u32).map(|_| 4u32).collect::<Vec<_>>(),
//!     SchedConfig::basic(4, 64),
//!     SchedulerKind::ReExpansion,
//!     |chunk: Vec<u32>| Tree(chunk.len() as u32 + 3), // one program per chunk
//! );
//! let total: u64 = bulk.wait().into_iter().map(|r| r.unwrap()).sum();
//! assert!(total > 0);
//!
//! // Cancellation is cooperative and drop is detach, not cancel.
//! let big = rt.submit(JobRequest::new(Tree(28), SchedConfig::basic(4, 1024), SchedulerKind::ReExpansion));
//! big.cancel();
//! let _ = big.wait(); // Err(Cancelled), or Ok(_) if it finished first — never a hang
//!
//! // The submission path never spin-blocked on capacity:
//! assert_eq!(rt.stats().injector.full_waits, 0);
//! ```

mod bulk;
mod gate;
mod handle;
mod request;
mod runtime;
pub mod sched;
pub mod shard;
pub mod wire;

pub use bulk::BulkHandle;
pub use handle::{JobError, JobHandle};
pub use request::{JobRequest, Payload, SpecJob};
pub use runtime::{Runtime, RuntimeConfig, RuntimeLoad, ServiceStats, DEFAULT_TENANT};
pub use sched::{
    Action, AdmissionPolicy, JobId, JobPhase, SchedCore, TenantCounters, TenantId, TenantSnapshot, TenantSpec,
};
pub use shard::{
    affinity_shard, Placement, PlacementCore, PlacementCounters, PlacementPolicy, ShardConfig, ShardId,
    ShardSnapshot, ShardedRuntime,
};
