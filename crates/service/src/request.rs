//! One submission as a value: [`JobRequest`] and the two payloads it can
//! carry — any [`BlockProgram`], or a [`SpecJob`] the runtime compiles.

use tb_core::{BlockProgram, SchedConfig, SchedulerKind};
use tb_obs::EventKind;
use tb_spec::{CompiledSpec, SpecTier, VectorSpec};

use crate::handle::JobHandle;
use crate::runtime::{Gating, Runtime, DEFAULT_TENANT};
use crate::sched::TenantId;

/// Everything one job submission says: who submits it, how it is
/// scheduled, and what runs. [`Runtime::submit`] / [`Runtime::try_submit`]
/// (and the [`crate::ShardedRuntime`] pair) serve every request.
///
/// ```
/// use tb_core::prelude::*;
/// use tb_service::{JobRequest, Runtime, SpecJob, TenantSpec};
///
/// let rt = Runtime::new(2);
/// let batch = rt.register_tenant(TenantSpec::new("batch", 8));
/// let fib = SpecJob::call(
///     "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }",
///     vec![20],
/// );
/// let req = JobRequest::new(fib, SchedConfig::basic(4, 64), SchedulerKind::Seq).tenant(batch).preemptible();
/// assert_eq!(rt.submit(req).wait(), Ok(6765));
/// ```
#[derive(Debug)]
pub struct JobRequest<J> {
    /// The submitting tenant; [`DEFAULT_TENANT`] unless set.
    pub(crate) tenant: TenantId,
    pub(crate) cfg: SchedConfig,
    /// Always [`SchedulerKind::Seq`] when `preemptible`.
    pub(crate) kind: SchedulerKind,
    pub(crate) preemptible: bool,
    pub(crate) job: J,
}

impl<J: Payload> JobRequest<J> {
    /// A non-preemptible request from the default tenant, run under
    /// `kind` with parameters `cfg`. [`SchedulerKind::RestartIdeal`]
    /// spawns its own threads per job and is meant for measurement, not
    /// service traffic.
    pub fn new(job: J, cfg: SchedConfig, kind: SchedulerKind) -> Self {
        JobRequest { tenant: DEFAULT_TENANT, cfg, kind, preemptible: false, job }
    }

    /// Submit on behalf of a registered tenant: admission follows its
    /// weight within its priority class, strict priority across classes,
    /// and saturation blocks or sheds only its own submitters. Serving the
    /// request panics if `tenant` was never registered.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Make the job preemptible: it runs under the sequential stepping
    /// engine, so this replaces the request's kind with
    /// [`SchedulerKind::Seq`], and parks at a superstep boundary whenever
    /// a higher-priority tenant needs the slot, resuming later with
    /// bit-identical results. Parallel (non-preemptible) jobs hold their
    /// slot until they finish.
    #[must_use]
    pub fn preemptible(mut self) -> Self {
        self.kind = SchedulerKind::Seq;
        self.preemptible = true;
        self
    }
}

/// A spec-language job shipped as *source text*: the runtime parses,
/// validates and lowers it once (cached by source) and schedules the
/// compiled program. A source that fails to parse or validate, or a root
/// call whose length does not match the method's parameter count,
/// completes the handle at once with [`crate::JobError::Rejected`] (a
/// caret diagnostic for parse errors) without taking a gate slot.
#[derive(Debug, PartialEq, Eq)]
pub struct SpecJob<'a> {
    /// Spec-language source; borrowed, never copied on a cache hit.
    pub source: &'a str,
    /// The root calls: one level-0 task per argument tuple (§5.2
    /// `foreach` when there are several).
    pub calls: Vec<Vec<i64>>,
    /// Execution tier. [`SpecTier::Auto`] vectorizes at the host's
    /// detected lane width and falls back to scalar on SIMD-less hosts,
    /// which is safe because the tiers are bit-identical.
    pub tier: SpecTier,
}

impl<'a> SpecJob<'a> {
    /// One root call at [`SpecTier::Auto`].
    pub fn call(source: &'a str, args: Vec<i64>) -> Self {
        Self::foreach(source, vec![args])
    }

    /// A data-parallel `foreach` over `calls` at [`SpecTier::Auto`],
    /// strip-mined by the scheduler.
    pub fn foreach(source: &'a str, calls: Vec<Vec<i64>>) -> Self {
        SpecJob { source, calls, tier: SpecTier::Auto }
    }

    /// Pin the execution tier.
    #[must_use]
    pub fn tier(mut self, tier: SpecTier) -> Self {
        self.tier = tier;
        self
    }
}

/// What a [`JobRequest`] can run: any [`BlockProgram`] (its handle yields
/// the reducer) or a [`SpecJob`] (its handle yields `i64`). Sealed: the
/// admission hook takes a crate-private gating mode.
pub trait Payload: Sized {
    /// The value the job's handle yields.
    type Output: Send + 'static;

    /// Pass `req.tenant`'s gate under `gating` and enqueue; at capacity
    /// hand the payload back unchanged.
    #[doc(hidden)]
    fn admit(req: JobRequest<Self>, rt: &Runtime, gating: Gating) -> Result<JobHandle<Self::Output>, Self>;
}

impl<P> Payload for P
where
    P: BlockProgram + Send + 'static,
    P::Store: Send + 'static,
    P::Reducer: Send + 'static,
{
    type Output = P::Reducer;

    fn admit(req: JobRequest<P>, rt: &Runtime, gating: Gating) -> Result<JobHandle<P::Reducer>, P> {
        if !rt.gate(req.tenant, gating) {
            return Err(req.job);
        }
        Ok(rt.enqueue_program(req))
    }
}

impl Payload for SpecJob<'_> {
    type Output = i64;

    /// Compile and check arity *before* the gate, so a rejection never
    /// holds a slot and `Err` keeps meaning capacity, nothing else.
    fn admit(req: JobRequest<Self>, rt: &Runtime, gating: Gating) -> Result<JobHandle<i64>, Self> {
        let JobRequest { tenant, cfg, kind, preemptible, job } = req;
        let code = match rt.validate_spec(job.source, &job.calls) {
            Ok(code) => code,
            Err(diag) => return Ok(rt.reject(tenant, diag)),
        };
        if !rt.gate(tenant, gating) {
            return Err(job);
        }
        // arg0 = effective lane width (1 = scalar tier), arg = root calls.
        tb_obs::record(EventKind::SpecDispatch, job.tier.lane_width().max(1) as u32, job.calls.len() as u64);
        Ok(match job.tier.lane_width() {
            0 | 1 => {
                let prog = CompiledSpec::from_code(code, &job.calls);
                rt.enqueue_program(JobRequest { tenant, cfg, kind, preemptible, job: prog })
            }
            q => {
                let prog = VectorSpec::from_code_with_width(code, &job.calls, q);
                rt.enqueue_program(JobRequest { tenant, cfg, kind, preemptible, job: prog })
            }
        })
    }
}
