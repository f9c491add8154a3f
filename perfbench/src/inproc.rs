//! The wire request path replayed in process: the same public calls the
//! TCP front-end makes per request (`parse_request`, tenant resolution,
//! `try_submit_spec_tier_as`, `JobHandle::wait`, response rendering),
//! with an optional span around each, and without the sockets. Comparing
//! its latency with the TCP run's gives the wire's own share.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tb_service::wire::{escape_line, parse_request, Request, MAX_TENANTS};
use tb_service::{JobError, ShardedRuntime, TenantId, TenantSpec, DEFAULT_TENANT};

use crate::gen::Req;
use crate::load::{precise_timers, sleep_until, Phase, Reply, Sample};
use crate::probes::{wire_cfg, WIRE_KIND, WIRE_TENANT_PENDING};
use crate::trace::{Recorder, Span};

pub struct InProc {
    pub rt: ShardedRuntime,
    tenants: Mutex<HashMap<String, TenantId>>,
    next: AtomicU64,
}

/// The span context of one request: recorder, parent span, request id.
type Ctx<'a> = Option<(&'a mut Recorder, u64, u64)>;

fn timed<R>(ctx: &mut Ctx<'_>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match ctx {
        Some((rec, parent, req)) => rec.time(name, *parent, *req, f),
        None => f(),
    }
}

impl InProc {
    pub fn new(shards: usize, workers: usize) -> Self {
        InProc {
            rt: ShardedRuntime::new(shards, workers),
            tenants: Mutex::new(HashMap::new()),
            next: AtomicU64::new(1),
        }
    }

    /// Resolve a tenant name exactly as the wire layer does.
    fn tenant(&self, name: &str) -> Result<TenantId, String> {
        if name == "default" {
            return Ok(DEFAULT_TENANT);
        }
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        if let Some(&id) = tenants.get(name) {
            return Ok(id);
        }
        if tenants.len() >= MAX_TENANTS {
            return Err(format!("tenant limit reached ({MAX_TENANTS} names)"));
        }
        let id = self.rt.register_tenant(TenantSpec::new(name, WIRE_TENANT_PENDING));
        tenants.insert(name.to_string(), id);
        Ok(id)
    }

    /// Serve one request line and return the response line.
    pub fn serve(&self, line: &str, mut ctx: Ctx<'_>) -> String {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (tenant, tier, args, source) = match timed(&mut ctx, "wire.parse", || parse_request(line)) {
            Ok(Request::Submit { tenant, tier, args, source }) => (tenant, tier, args, source),
            Ok(_) => return "ERR not a SUBMIT".into(),
            Err(e) => return format!("ERR {}", escape_line(&e)),
        };
        let tenant = match timed(&mut ctx, "wire.tenant", || self.tenant(&tenant)) {
            Ok(t) => t,
            Err(e) => return format!("ERR {}", escape_line(&e)),
        };
        let submitted = timed(&mut ctx, "shard.submit", || {
            self.rt.try_submit_spec_tier_as(tenant, &source, args, wire_cfg(), WIRE_KIND, tier)
        });
        let Ok(handle) = submitted else {
            return "ERR overloaded: every shard at capacity, resubmit later".into();
        };
        let result = timed(&mut ctx, "handle.wait", || handle.wait());
        timed(&mut ctx, "wire.render", || match result {
            Ok(value) => format!("OK {id} {value}"),
            Err(JobError::Rejected(diag)) => format!("ERR {}", escape_line(&diag)),
            Err(e) => format!("ERR {e}"),
        })
    }

    /// Serve `line` as request `req` due at `at`, recording a root span
    /// from `at` with the queueing delay as its first child.
    fn serve_traced(
        &self,
        rec: &mut Recorder,
        line: &str,
        req: u64,
        at: Duration,
    ) -> (Duration, Duration, String) {
        let root = rec.reserve();
        let start = rec.t0.elapsed();
        rec.push("conn.queue", Some(root), req, at, start);
        let resp = self.serve(line, Some((&mut *rec, root, req)));
        let end = rec.t0.elapsed();
        rec.push_as(root, "request", req, at, end);
        (start, end, resp)
    }

    /// Replay an open-loop phase: one thread per connection serves its
    /// shots serially at their scheduled times.
    pub fn open(&self, phase: &Phase, traced: bool) -> (Vec<Sample>, Vec<Span>) {
        let t0 = Instant::now() + Duration::from_millis(2);
        let per_conn: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|s| {
            let workers: Vec<_> = phase
                .plan
                .iter()
                .enumerate()
                .map(|(conn, shots)| {
                    s.spawn(move || {
                        precise_timers();
                        let mut rec = Recorder::new(t0, conn + 1);
                        let mut samples = Vec::with_capacity(shots.len());
                        for shot in shots {
                            sleep_until(t0, shot.at);
                            let line = phase.reqs[shot.req].text();
                            let (start, end, resp) = if traced {
                                self.serve_traced(&mut rec, line, shot.req as u64, shot.at)
                            } else {
                                let start = t0.elapsed();
                                let resp = self.serve(line, None);
                                (start, t0.elapsed(), resp)
                            };
                            samples.push(Sample {
                                req: shot.req,
                                conn,
                                at: shot.at,
                                sent: start,
                                recv: Some(end),
                                reply: Some(Reply::new(&phase.reqs[shot.req], &resp)),
                            });
                        }
                        (samples, rec.spans)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("replay thread panicked")).collect()
        });
        let mut samples = Vec::new();
        let mut spans = Vec::new();
        for (s, sp) in per_conn {
            samples.extend(s);
            spans.extend(sp);
        }
        (samples, spans)
    }

    /// Replay a closed loop on one thread for `dur`: request `i` is
    /// `reqs[i % len]`.
    pub fn closed(&self, reqs: &[Req], dur: Duration, traced: bool) -> (Vec<Sample>, Vec<Span>) {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0, 1);
        let mut samples = Vec::new();
        let mut i = 0;
        while t0.elapsed() < dur {
            let req = i % reqs.len();
            let at = t0.elapsed();
            let (start, end, resp) = if traced {
                self.serve_traced(&mut rec, reqs[req].text(), i as u64, at)
            } else {
                let resp = self.serve(reqs[req].text(), None);
                (at, t0.elapsed(), resp)
            };
            let reply = Some(Reply::new(&reqs[req], &resp));
            samples.push(Sample { req, conn: 0, at, sent: start, recv: Some(end), reply });
            i += 1;
        }
        (samples, rec.spans)
    }
}
