//! The long-lived, shared [`Runtime`]: one worker pool, many clients.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tb_core::{
    run_scheduler_on_ctx, BlockProgram, CancelToken, Cancellable, RunOutput, SchedConfig, SchedulerKind,
    SeqFrontier, SeqScheduler,
};
use tb_obs::EventKind;
use tb_runtime::{InjectorMetrics, ThreadPool, WorkerCtx};
use tb_spec::{compile, parse_spec, SpecCode};

use crate::bulk::{adaptive_chunk_len, BulkCore, BulkHandle};
use crate::handle::{JobCore, JobError, JobHandle};
use crate::request::{JobRequest, Payload};
use crate::sched::{
    Admission, AdmissionPolicy, FinishObserver, JobId, PreemptFlag, ReadyJob, TenantId, TenantSnapshot,
    TenantSpec,
};

/// The tenant every runtime is born with (weight 1, priority 0): a
/// [`JobRequest`] runs as it unless told otherwise, and
/// [`Runtime::submit_fn`] and [`Runtime::submit_bulk`] always do.
pub const DEFAULT_TENANT: TenantId = 0;

/// Construction parameters for a [`Runtime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads in the shared pool. Defaults to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Pool-side admission bound: jobs *running* on the pool at once
    /// (scheduler jobs, closure jobs and bulk *chunks* all count as one
    /// each). Jobs admitted past a tenant's gate but beyond this bound
    /// wait in the scheduler's queues. Defaults to `8 × threads` — enough
    /// depth to keep every worker fed through job-boundary gaps, small
    /// enough that queueing delay stays bounded by a few job service
    /// times. It is also the default tenant's `max_pending`, so
    /// tenant-unaware workloads see exactly the old bounded-inflight
    /// behaviour: submissions beyond it block the submitting client.
    pub max_inflight: usize,
    /// Bounded park pool: preempted job frontiers held swapped-out at
    /// once. `0` disables preemption. Defaults to `2 × threads`.
    pub max_parked: usize,
    /// Legacy admission: tenant-blind global FIFO with no weights, no
    /// priorities and no preemption — the old global gate's discipline.
    /// Kept as the A/B arm for the starvation regression test; leave
    /// `false` in production.
    pub fifo: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        RuntimeConfig { threads, max_inflight: threads * 8, max_parked: threads * 2, fifo: false }
    }
}

/// Lifetime counters for a runtime (monotone, Relaxed; exact at quiescence).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs accepted for execution (including bulk chunks).
    pub submitted: u64,
    /// Jobs that completed with a value.
    pub completed: u64,
    /// Jobs that finished cancelled.
    pub cancelled: u64,
    /// Jobs whose program panicked (contained; see [`JobError::Panicked`]).
    pub panicked: u64,
    /// Spec submissions rejected before reaching a worker (parse/validate
    /// failures, root-arity mismatches; see [`JobError::Rejected`]).
    pub rejected: u64,
    /// Spec sources compiled ([`crate::SpecJob`] cache misses).
    pub spec_compiles: u64,
    /// Spec submissions served from the compile-once cache.
    pub spec_cache_hits: u64,
    /// Jobs occupying pool slots (running or parking) at snapshot time.
    pub inflight: usize,
    /// Jobs accepted but waiting for a pool slot, at snapshot time.
    pub waiting: usize,
    /// Preempted jobs currently swapped out, at snapshot time.
    pub parked: usize,
    /// Tasks held by swapped-out frontiers, at snapshot time.
    pub parked_tasks: usize,
    /// Times any job was swapped out at a superstep boundary.
    pub preemptions: u64,
    /// Times a swapped-out job was resumed.
    pub resumes: u64,
    /// The pool-side running bound ([`RuntimeConfig::max_inflight`]).
    pub max_inflight: usize,
    /// The park-pool bound ([`RuntimeConfig::max_parked`]).
    pub max_parked: usize,
    /// Times a submitter blocked on its tenant's gate (backpressure).
    pub backpressure_waits: u64,
    /// Per-tenant queue depths and counters, indexed by [`TenantId`].
    pub tenants: Vec<TenantSnapshot>,
    /// Submission-path counters of the pool's segmented injector.
    /// `injector.full_waits == 0` is the "submission never spin-blocks"
    /// invariant.
    pub injector: InjectorMetrics,
    /// Trace events lost to ring overflow or torn drains, process-wide
    /// (`tb_obs`); 0 when tracing is disabled.
    pub dropped_events: u64,
    /// Bytes of trace events recorded process-wide (`tb_obs`); 0 when
    /// tracing is disabled.
    pub trace_bytes: u64,
}

/// What [`Runtime::load`] reports: the signals a placement layer ranks
/// sibling runtimes by. All readings are racy snapshots — preferences,
/// not bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeLoad {
    /// Jobs queued in the pool's injector, not yet claimed by a worker.
    pub injector_depth: usize,
    /// Pool workers currently awake.
    pub active_workers: usize,
    /// Total pool workers.
    pub threads: usize,
    /// Jobs occupying pool slots (running or preempting).
    pub running: usize,
    /// Jobs admitted past their gate but waiting for a pool slot.
    pub waiting: usize,
    /// Preempted jobs currently swapped out.
    pub parked: usize,
}

impl RuntimeLoad {
    /// The scalar a placement layer compares siblings by: queued work
    /// (injector + admission queue) plus work in flight.
    pub fn depth(&self) -> usize {
        self.injector_depth + self.waiting + self.running
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    rejected: AtomicU64,
    spec_compiles: AtomicU64,
    spec_cache_hits: AtomicU64,
}

impl Counters {
    fn finish<R>(&self, outcome: &Result<R, JobError>) {
        match outcome {
            Ok(_) => self.completed.fetch_add(1, Ordering::Relaxed),
            Err(JobError::Cancelled) => self.cancelled.fetch_add(1, Ordering::Relaxed),
            Err(JobError::Panicked) => self.panicked.fetch_add(1, Ordering::Relaxed),
            // Rejections never reach a worker (nothing was admitted), so
            // this arm is unreachable from `finish` callers; counted
            // defensively all the same.
            Err(JobError::Rejected(_)) => self.rejected.fetch_add(1, Ordering::Relaxed),
        };
    }
}

struct Inner {
    pool: ThreadPool,
    // The admission scheduler and counters are their own `Arc`s — job
    // closures capture *these*, never `Inner`, so a worker can never hold
    // the last reference to the pool it runs on (which would make
    // `ThreadPool::drop` join the worker's own thread). Follow-on jobs the
    // scheduler releases from a worker-side completion are spawned through
    // `WorkerCtx::spawn` for the same reason.
    admission: Arc<Admission>,
    counters: Arc<Counters>,
    // Compile-once cache for spec jobs: source text -> lowered code.
    // Keyed by the exact source string (no hashing shortcuts: a collision
    // would silently run the wrong program). Guarded by a plain mutex —
    // compilation is microseconds and submissions are already a
    // gate-crossing slow path.
    spec_cache: parking_lot::Mutex<SpecCache>,
}

/// Bound on distinct cached sources: a client stream of trivially-varying
/// programs must not balloon a long-lived runtime's memory. At the cap the
/// least-recently-*used* entry is evicted, so a hot program survives any
/// number of cold one-shot submissions around it (the ROADMAP "spec-cache
/// eviction" item; per-client quotas remain future work).
const SPEC_CACHE_CAP: usize = 1024;

/// A true-LRU compile cache: every hit restamps its entry with a monotone
/// tick, and insertion past [`SPEC_CACHE_CAP`] evicts the entry with the
/// oldest stamp. The O(cap) eviction scan only runs on a cold-source
/// insert *at* capacity — off the hit path, and microseconds against the
/// compile that preceded it.
#[derive(Default)]
struct SpecCache {
    map: std::collections::HashMap<Box<str>, (Arc<SpecCode>, u64)>,
    tick: u64,
}

impl SpecCache {
    fn get(&mut self, source: &str) -> Option<Arc<SpecCode>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(source).map(|(code, stamp)| {
            *stamp = tick;
            Arc::clone(code)
        })
    }

    /// Insert freshly compiled `code`, returning the `Arc` submissions
    /// should run: the incumbent if another submitter raced us compiling
    /// the same source (so every handle shares one `Arc`), else `code`.
    fn insert(&mut self, source: &str, code: Arc<SpecCode>) -> Arc<SpecCode> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((cached, stamp)) = self.map.get_mut(source) {
            *stamp = tick;
            return Arc::clone(cached);
        }
        if self.map.len() >= SPEC_CACHE_CAP {
            if let Some(oldest) = self.map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(source.into(), (Arc::clone(&code), tick));
        code
    }
}

/// A persistent, multi-tenant front-end over one work-stealing pool.
///
/// Where `ThreadPool::install` is one-program-one-caller-blocks, a
/// `Runtime` multiplexes many concurrent clients: any thread submits a
/// [`JobRequest`] — any [`BlockProgram`] or spec source, each with its own
/// [`SchedConfig`] and [`SchedulerKind`], so basic, re-expansion and
/// restart jobs coexist — gets back a [`JobHandle`] to poll, block on, or
/// cancel, and the
/// admission scheduler pushes overload back on the submitting *tenant*
/// instead of letting queues grow without bound or letting one tenant
/// starve the rest. Cloning is cheap and shares the pool.
///
/// Registered tenants ([`Runtime::register_tenant`]) get weighted fair
/// admission within their priority class and strict priority across
/// classes; preemptible requests additionally park at
/// superstep boundaries when a higher-priority tenant needs their slot,
/// and resume later with bit-identical results. See the crate docs and
/// DESIGN.md §9.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Runtime {
    /// A runtime with `threads` workers and the default backpressure bound.
    pub fn new(threads: usize) -> Self {
        Self::with_config(RuntimeConfig { threads, ..RuntimeConfig::default() })
    }

    /// A runtime from explicit parameters.
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        let admission = Arc::new(Admission::new(AdmissionPolicy {
            max_running: cfg.max_inflight.max(1),
            max_parked: cfg.max_parked,
            fifo: cfg.fifo,
        }));
        let default = admission.add_tenant(TenantSpec::new("default", cfg.max_inflight.max(1)));
        debug_assert_eq!(default, DEFAULT_TENANT);
        Runtime {
            inner: Arc::new(Inner {
                pool: ThreadPool::new(cfg.threads),
                admission,
                counters: Arc::new(Counters::default()),
                spec_cache: parking_lot::Mutex::new(SpecCache::default()),
            }),
        }
    }

    /// Register a tenant with its own weight, priority and submit-side
    /// bound. Returns the id to pass to [`JobRequest::tenant`]. Tenants cannot be unregistered (ids are dense and stats
    /// are indexed by them); a long-lived service registers its client
    /// classes once at startup.
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        self.inner.admission.add_tenant(spec)
    }

    /// Worker threads in the shared pool.
    pub fn threads(&self) -> usize {
        self.inner.pool.threads()
    }

    /// Jobs queued in the pool's injector, not yet claimed by a worker.
    pub fn pending_jobs(&self) -> usize {
        self.inner.pool.pending_jobs()
    }

    /// A cheap point-in-time load probe of this runtime, for placement
    /// across sibling runtimes ([`crate::shard::ShardedRuntime`]): the
    /// pool's injector depth and awake-worker count plus the admission
    /// scheduler's queue depths. Two mutex acquisitions, no allocation —
    /// orders of magnitude lighter than [`Runtime::stats`].
    pub fn load(&self) -> RuntimeLoad {
        let pool = self.inner.pool.load();
        let (running, waiting, parked, _) = self.inner.admission.queue_depths();
        RuntimeLoad {
            injector_depth: pool.injector_depth,
            active_workers: pool.active_workers,
            threads: pool.threads,
            running,
            waiting,
            parked,
        }
    }

    /// Install the per-completion observer (see
    /// [`crate::sched::FinishObserver`]); called once by the sharded
    /// front-end that owns this runtime.
    pub(crate) fn set_finish_observer(&self, f: FinishObserver) {
        self.inner.admission.set_finish_observer(f);
    }

    /// Lifetime counters snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        let adm = &self.inner.admission;
        let (inflight, waiting, parked, parked_tasks) = adm.queue_depths();
        let policy = adm.policy();
        let (preemptions, resumes) = adm.preemption_totals();
        let (dropped_events, trace_bytes) = tb_obs::trace_totals();
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            spec_compiles: c.spec_compiles.load(Ordering::Relaxed),
            spec_cache_hits: c.spec_cache_hits.load(Ordering::Relaxed),
            inflight,
            waiting,
            parked,
            parked_tasks,
            preemptions,
            resumes,
            max_inflight: policy.max_running,
            max_parked: policy.max_parked,
            backpressure_waits: adm.backpressure_waits(),
            tenants: adm.snapshot(),
            injector: self.inner.pool.injector_metrics(),
            dropped_events,
            trace_bytes,
        }
    }

    /// Serve `req`, blocking only while its tenant is at its pending bound
    /// (the backpressure gate). Returns at once with a handle; the job
    /// runs on the pool. A [`SpecJob`](crate::SpecJob) the runtime cannot
    /// compile comes back as a handle already completed with
    /// [`JobError::Rejected`].
    ///
    /// # Panics
    /// If `req.tenant` was never registered.
    pub fn submit<J: Payload>(&self, req: JobRequest<J>) -> JobHandle<J::Output> {
        J::admit(req, self, Gating::Block).unwrap_or_else(|_| unreachable!("a blocking gate never sheds"))
    }

    /// Like [`Runtime::submit`], but sheds load instead of blocking: when
    /// the tenant is at its pending bound the payload is handed back
    /// unchanged. `Err` means capacity and nothing else — a rejected spec
    /// is still `Ok` with a [`JobError::Rejected`] handle.
    ///
    /// # Panics
    /// If `req.tenant` was never registered.
    pub fn try_submit<J: Payload>(&self, req: JobRequest<J>) -> Result<JobHandle<J::Output>, J> {
        J::admit(req, self, Gating::Shed)
    }

    /// Submit a plain closure as a default-tenant job (no scheduler run):
    /// `f` executes on one worker; the handle behaves like any job handle.
    /// Cancelling before a worker picks the job up skips `f` entirely;
    /// once `f` is running it is not interrupted (closures have no block
    /// boundaries to cancel at).
    pub fn submit_fn<R, F>(&self, f: F) -> JobHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.gate(DEFAULT_TENANT, Gating::Block);
        let core = Arc::new(JobCore::new());
        let (token, done) = (core.cancel_token(), Arc::clone(&core));
        self.enqueue(DEFAULT_TENANT, None, move |retire| {
            Box::new(move |ctx: &WorkerCtx<'_>| {
                let body = || if token.is_cancelled() { Err(JobError::Cancelled) } else { Ok(f()) };
                retire.run(ctx, body, |result| done.complete(result));
            })
        });
        JobHandle::new(core)
    }

    /// Bulk data-parallel submission: cut `items` into chunks
    /// (DCAFE-style adaptive sizing — see [`BulkHandle`] — instead of one
    /// job per item), build a program for each chunk with `make`, and run
    /// every chunk as its own admitted job. The returned handle aggregates
    /// the per-chunk reductions in input order.
    ///
    /// Chunks pass the default tenant's backpressure gate like everything
    /// else, one slot per chunk, so a huge bulk submission blocks *its
    /// own* submitter once the tenant saturates rather than starving
    /// other tenants behind an unbounded queue.
    pub fn submit_bulk<I, P, F>(
        &self,
        items: Vec<I>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        make: F,
    ) -> BulkHandle<P::Reducer>
    where
        I: Send + 'static,
        P: BlockProgram + Send + 'static,
        P::Reducer: Send + 'static,
        F: Fn(Vec<I>) -> P + Send + Sync + 'static,
    {
        let total = items.len();
        let chunk_len = adaptive_chunk_len(total, self.threads(), self.pending_jobs());
        // arg0 = adaptive chunk length chosen, arg = items being cut.
        tb_obs::record(EventKind::ChunkSize, chunk_len as u32, total as u64);
        let chunks = total.div_ceil(chunk_len.max(1));
        let core = Arc::new(BulkCore::new(chunks));
        let token = core.cancel_token();
        let make = Arc::new(make);
        let mut items = items;
        for index in 0..chunks {
            let rest = items.split_off(chunk_len.min(items.len()));
            let chunk = std::mem::replace(&mut items, rest);
            self.gate(DEFAULT_TENANT, Gating::Block);
            let (core, token, make) = (Arc::clone(&core), token.clone(), Arc::clone(&make));
            self.enqueue(DEFAULT_TENANT, None, move |retire| {
                Box::new(move |ctx: &WorkerCtx<'_>| {
                    // `make` runs inside the catch too: a panicking chunk
                    // builder is JobError::Panicked and frees its slot.
                    let body = || run_program(make(chunk), &token, kind, cfg, ctx);
                    retire.run(ctx, body, |result| core.complete_chunk(index, result));
                })
            });
        }
        debug_assert!(items.is_empty(), "chunking consumed every item");
        BulkHandle::new(core, chunks)
    }

    /// Take one of `tenant`'s gate slots: wait for it, or report `false`
    /// instead of waiting when shedding.
    pub(crate) fn gate(&self, tenant: TenantId, gating: Gating) -> bool {
        let gate = self.inner.admission.gate(tenant);
        match gating {
            Gating::Block => {
                gate.acquire();
                true
            }
            Gating::Shed => gate.try_acquire(),
        }
    }

    /// Compile `source` (cached) and check every root call's arity.
    pub(crate) fn validate_spec(&self, source: &str, calls: &[Vec<i64>]) -> Result<Arc<SpecCode>, String> {
        let code = self.compile_cached(source)?;
        if let Some(bad) = calls.iter().find(|c| c.len() != code.params()) {
            return Err(format!(
                "root call supplies {} args, method {} has {} params",
                bad.len(),
                code.name(),
                code.params()
            ));
        }
        Ok(code)
    }

    /// Look up `source` in the compile-once LRU cache, lowering on a miss.
    /// The diagnostic string on failure is [`JobError::Rejected`] payload.
    fn compile_cached(&self, source: &str) -> Result<Arc<SpecCode>, String> {
        if let Some(code) = self.inner.spec_cache.lock().get(source) {
            self.inner.counters.spec_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(code);
        }
        // Parse/compile outside the lock: a client submitting a huge or
        // malformed source must not stall other submitters' cache hits.
        let spec = parse_spec(source).map_err(|e| e.to_string())?;
        let code = Arc::new(compile(&spec).map_err(|e| e.to_string())?);
        self.inner.counters.spec_compiles.fetch_add(1, Ordering::Relaxed);
        Ok(self.inner.spec_cache.lock().insert(source, code))
    }

    /// A handle pre-completed with [`JobError::Rejected`]; the job never
    /// existed as far as the scheduler and the pool are concerned. The
    /// finish observer still fires — a placement layer that booked this
    /// submission must see it retire.
    pub(crate) fn reject<R>(&self, tenant: TenantId, diagnostic: impl std::fmt::Display) -> JobHandle<R> {
        self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let core = Arc::new(JobCore::new());
        core.complete(Err(JobError::rejected(diagnostic)));
        self.inner.admission.notify_rejected(tenant);
        JobHandle::new(core)
    }

    /// Enqueue an already-gated program: a scheduler run, or a preemptible
    /// run of the stepping engine that parks at superstep boundaries.
    pub(crate) fn enqueue_program<P>(&self, req: JobRequest<P>) -> JobHandle<P::Reducer>
    where
        P: BlockProgram + Send + 'static,
        P::Store: Send + 'static,
        P::Reducer: Send + 'static,
    {
        let JobRequest { tenant, cfg, kind, preemptible, job: prog } = req;
        let core = Arc::new(JobCore::new());
        let (token, done) = (core.cancel_token(), Arc::clone(&core));
        let flag: Option<PreemptFlag> = preemptible.then(|| Arc::new(AtomicBool::new(false)));
        let run_flag = flag.clone();
        self.enqueue(tenant, flag, move |retire| match run_flag {
            Some(flag) => {
                let prog = Cancellable::new(prog, token.clone());
                let run = PreemptibleRun { prog, frontier: None, cfg, core: done, token, flag, retire };
                Box::new(move |ctx: &WorkerCtx<'_>| drive_preemptible(run, ctx))
            }
            None => Box::new(move |ctx: &WorkerCtx<'_>| {
                let body = || run_program(prog, &token, kind, cfg, ctx);
                retire.run(ctx, body, |result| done.complete(result));
            }),
        });
        JobHandle::new(core)
    }

    /// The one enqueue routine, behind every job shape: count an
    /// already-gated job, hand it to the admission scheduler as `tenant`'s
    /// (preemptible when it carries a preempt `flag`), and spawn whatever
    /// the scheduler releases. `job` builds the body from its [`Retire`].
    /// Worker-side completions spawn through `WorkerCtx::spawn` instead
    /// (see [`Retire::finish`]).
    fn enqueue(&self, tenant: TenantId, flag: Option<PreemptFlag>, job: impl FnOnce(Retire) -> ReadyJob) {
        self.inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let (adm, counters) = (Arc::clone(&self.inner.admission), Arc::clone(&self.inner.counters));
        let (_, ready) = self.inner.admission.enqueue(tenant, flag, |id| job(Retire { adm, counters, id }));
        for job in ready {
            self.inner.pool.spawn(job);
        }
    }
}

/// How a submission meets its tenant's full gate.
#[derive(Clone, Copy)]
pub enum Gating {
    /// Wait for a slot (backpressure).
    Block,
    /// Hand the payload back (load shedding).
    Shed,
}

/// Run `prog` under `kind` on the current worker.
fn run_program<P: BlockProgram>(
    prog: P,
    token: &CancelToken,
    kind: SchedulerKind,
    cfg: SchedConfig,
    ctx: &WorkerCtx<'_>,
) -> Result<P::Reducer, JobError> {
    reduction(run_scheduler_on_ctx(kind, &Cancellable::new(prog, token.clone()), cfg, ctx), token)
}

/// A finished run's result: a cancelled run reports
/// [`JobError::Cancelled`], not its partial reduction.
fn reduction<R>(out: RunOutput<R>, token: &CancelToken) -> Result<R, JobError> {
    if token.is_cancelled() {
        Err(JobError::Cancelled)
    } else {
        Ok(out.reducer)
    }
}

/// What a job reports its end through: the admission scheduler holding its
/// slot, the runtime's counters (their own `Arc`s — see `Inner`), and its
/// id.
struct Retire {
    adm: Arc<Admission>,
    counters: Arc<Counters>,
    id: JobId,
}

impl Retire {
    /// Run `body` on `ctx`'s worker with a panic contained as
    /// [`JobError::Panicked`], then [`Retire::finish`].
    fn run<R>(
        self,
        ctx: &WorkerCtx<'_>,
        body: impl FnOnce() -> Result<R, JobError>,
        complete: impl FnOnce(Result<R, JobError>),
    ) {
        let result = catch_unwind(AssertUnwindSafe(body)).unwrap_or(Err(JobError::Panicked));
        self.finish(ctx, result, complete);
    }

    /// The one completion routine: count the outcome, free the job's slot
    /// (spawning whatever the scheduler admits in its place), then hand
    /// `result` to the waiter through `complete`.
    fn finish<R>(
        &self,
        ctx: &WorkerCtx<'_>,
        result: Result<R, JobError>,
        complete: impl FnOnce(Result<R, JobError>),
    ) {
        self.counters.finish(&result);
        for job in self.adm.finished(self.id) {
            ctx.spawn(job);
        }
        complete(result);
    }
}

/// Everything a preemptible job carries between run segments: the program,
/// the parked frontier (None before the first segment), and the handles it
/// reports through. The whole struct moves into the continuation closure
/// at every park, so a job's state lives either on a worker's stack (while
/// running) or in the scheduler's park pool (while swapped out) — never
/// both.
struct PreemptibleRun<P: BlockProgram> {
    prog: Cancellable<P>,
    frontier: Option<SeqFrontier<P::Store, P::Reducer>>,
    cfg: SchedConfig,
    core: Arc<JobCore<P::Reducer>>,
    token: CancelToken,
    flag: PreemptFlag,
    retire: Retire,
}

/// How one run segment of a preemptible job ended.
enum Segment<S, R> {
    /// The program ran to completion (or drained after cancellation).
    Done(RunOutput<R>),
    /// The preempt flag fired: the engine parked at a superstep boundary.
    Parked(SeqFrontier<S, R>),
}

/// Run one segment of a preemptible job on the current worker: step the
/// sequential engine, checking the preempt flag **between supersteps** —
/// the paper's superstep structure is what makes this seam exact, because
/// between steps the engine's entire state is the frontier (deque + current
/// block + reducer), with no half-expanded block in flight.
fn drive_preemptible<P>(mut run: PreemptibleRun<P>, ctx: &WorkerCtx<'_>)
where
    P: BlockProgram + Send + 'static,
    P::Store: Send + 'static,
    P::Reducer: Send + 'static,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sched = match run.frontier.take() {
            Some(frontier) => SeqScheduler::resume(&run.prog, frontier),
            None => SeqScheduler::new(&run.prog, run.cfg),
        };
        while !sched.is_done() {
            // `swap` (not `load`) so a flag that fires while we are already
            // parking is consumed, not left to preempt the resumed segment
            // spuriously.
            if run.flag.swap(false, Ordering::AcqRel) {
                return Segment::Parked(sched.park());
            }
            sched.step();
        }
        Segment::Done(sched.into_output())
    }));
    let result = match outcome {
        Ok(Segment::Parked(frontier)) => {
            let tasks = frontier.tasks();
            let (adm, id) = (Arc::clone(&run.retire.adm), run.retire.id);
            // arg = job id so the exporter can pair this with the
            // scheduler's Resume event into one cross-worker async span.
            // Recorded *before* `adm.parked` — the matching Resume action
            // cannot fire until the core learns of the park.
            tb_obs::record(EventKind::Park, tasks as u32, id);
            run.frontier = Some(frontier);
            let cont: ReadyJob = Box::new(move |ctx: &WorkerCtx<'_>| drive_preemptible(run, ctx));
            for job in adm.parked(id, tasks, cont) {
                ctx.spawn(job);
            }
            return;
        }
        Ok(Segment::Done(out)) => {
            tb_obs::record(EventKind::JobDone, 0, run.retire.id);
            reduction(out, &run.token)
        }
        Err(_) => Err(JobError::Panicked),
    };
    run.retire.finish(ctx, result, |result| run.core.complete(result));
}
