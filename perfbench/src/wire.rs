//! The three wire workloads: `tb_service::wire::WireServer` over a
//! `ShardedRuntime` on loopback TCP, driven from this process.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tb_service::wire::{ServerHandle, WireServer};
use tb_service::{ShardSnapshot, ShardedRuntime};

use crate::gen::{setup_req, ChurnGen, Expect, Gen, HeavyGen, Req, TinyGen, Verdict};
use crate::inproc::InProc;
use crate::load::{backlog_at_end, closed_loop, knee, open_loop, Phase, Sample, Step};
use crate::probes;
use crate::report::{Metrics, Tally};
use crate::trace::{self, Span};
use crate::util::{
    loadavg1, median, nproc, p50_p99, peak_rss_mib, phase_figures, stretches, us, Rng, Stretch,
};

/// Open-loop rates, fixed once from the knee measured when this benchmark
/// was written (base ≈ 50 %, high ≈ 80 %) and never recomputed per run.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub base_rps: f64,
    pub hi_rps: f64,
    /// The knee's p99 limit.
    pub limit_us: f64,
}

pub const TINY_RATES: Rates = Rates { base_rps: 5000.0, hi_rps: 8000.0, limit_us: 10_000.0 };
pub const CHURN_RATES: Rates = Rates { base_rps: 3500.0, hi_rps: 5500.0, limit_us: 10_000.0 };

/// Knee-search ladder above the high rate: `hi · KNEE_STEP^k`.
const KNEE_STEP: f64 = 1.08;
const KNEE_MAX_STEPS: usize = 10;

/// A run whose generator sent its p99 request later than this is invalid:
/// the generator, not the server, was starved. The generator runs at
/// real-time priority, so on a healthy host its lag is tens of µs; a
/// virtual machine whose host stalls it still shows a few ms at p99.
pub const LAG_P99_BOUND_US: f64 = 20_000.0;

/// Responses still missing this long after a phase's last send are
/// counted as failures.
const DRAIN: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tiny,
    Churn,
    Heavy,
}

impl Kind {
    fn gen(self, rng: Rng) -> Box<dyn Gen> {
        match self {
            Kind::Tiny => Box::new(TinyGen::new(rng)),
            Kind::Churn => Box::new(ChurnGen::new(rng)),
            Kind::Heavy => Box::new(HeavyGen::new(rng)),
        }
    }

    /// `(shards, workers per shard)`.
    fn shape(self) -> (usize, usize) {
        match self {
            Kind::Tiny | Kind::Churn => (nproc(), 1),
            // One worker: see "One CPU" in the README.
            Kind::Heavy => (1, 1),
        }
    }

    fn rates(self) -> Option<Rates> {
        match self {
            Kind::Tiny => Some(TINY_RATES),
            Kind::Churn => Some(CHURN_RATES),
            Kind::Heavy => None,
        }
    }
}

/// Client-side counts of every `SUBMIT` the server was sent.
#[derive(Debug, Default)]
struct Ledger {
    sent: u64,
    ok: u64,
    err: u64,
    missing: u64,
}

impl Ledger {
    fn add(&mut self, samples: &[Sample]) {
        for s in samples {
            self.sent += 1;
            match &s.reply {
                None => self.missing += 1,
                Some(r) if r.ok => self.ok += 1,
                Some(_) => self.err += 1,
            }
        }
    }
}

struct Server {
    rt: ShardedRuntime,
    handle: ServerHandle,
    addr: SocketAddr,
    conns: Vec<TcpStream>,
    ledger: Ledger,
}

fn read_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stream.read(&mut byte)? == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    Ok(String::from_utf8_lossy(&line).trim_end().to_string())
}

/// A client connection whose reads give up after [`DRAIN`].
fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(DRAIN)).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Send one line and read its response; `None` if it is not answered
/// within [`DRAIN`] or the connection fails.
fn ask(stream: &mut TcpStream, line: &[u8]) -> Option<String> {
    stream.write_all(line).ok()?;
    read_line(stream).ok().filter(|l| !l.is_empty())
}

/// Attempts at a server's first request before the run gives up on it.
const START_ATTEMPTS: usize = 3;

impl Server {
    /// Construct the runtime, bind, connect, and wait for the first
    /// correct response; returns the server and that set-up time. An
    /// overloaded or missing response is counted as a failure and the
    /// request is retried, on a fresh connection if it went unanswered.
    fn start(shards: usize, workers: usize, tally: &mut Tally) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let rt = ShardedRuntime::new(shards, workers);
        let server = WireServer::bind("127.0.0.1:0", rt.clone()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        // Connect before the accept loop starts: the kernel completes the
        // handshake into the backlog, so the accept loop's idle poll does
        // not land in the measurement.
        let mut s0 = connect(addr)?;
        let handle = server.spawn();
        let req = setup_req();
        let mut ledger = Ledger::default();
        for _ in 0..START_ATTEMPTS {
            let resp = ask(&mut s0, &req.line);
            let setup = t.elapsed().as_secs_f64();
            ledger.sent += 1;
            tally.attempted += 1;
            match req.expect.check(resp.as_deref()) {
                Verdict::Correct => {
                    ledger.ok += 1;
                    tally.correct += 1;
                    return Ok((Server { rt, handle, addr, conns: vec![s0], ledger }, setup));
                }
                Verdict::Wrong => return Err(format!("WRONG set-up response {resp:?}")),
                Verdict::Failed => {
                    tally.failed += 1;
                    match resp {
                        Some(_) => ledger.err += 1,
                        None => {
                            ledger.missing += 1;
                            s0 = connect(addr)?;
                        }
                    }
                }
            }
        }
        handle.shutdown();
        Err(format!("no correct set-up response in {START_ATTEMPTS} attempts"))
    }

    /// [`Server::start`], then open the remaining client connections.
    fn start_with(
        shards: usize,
        workers: usize,
        conns: usize,
        tally: &mut Tally,
    ) -> Result<(Server, f64), String> {
        let (mut srv, setup) = Server::start(shards, workers, tally)?;
        while srv.conns.len() < conns {
            srv.conns.push(connect(srv.addr)?);
        }
        Ok((srv, setup))
    }

    /// Replace every connection that lost a response: a late answer
    /// would otherwise be matched to the next phase's request.
    fn heal(&mut self, samples: &[Sample]) -> Result<(), String> {
        for s in samples.iter().filter(|s| s.recv.is_none()) {
            self.conns[s.conn] = connect(self.addr)?;
        }
        Ok(())
    }

    fn open_phase(&mut self, phase: &Phase, tally: &mut Tally) -> Result<Vec<Sample>, String> {
        let samples = open_loop(&mut self.conns, phase, DRAIN).map_err(|e| format!("open loop: {e}"))?;
        self.ledger.add(&samples);
        self.heal(&samples)?;
        tally.add(&samples, &phase.reqs);
        Ok(samples)
    }

    fn closed_phase(
        &mut self,
        conns: usize,
        reqs: &[Req],
        dur: Duration,
        tally: &mut Tally,
    ) -> Result<Vec<Sample>, String> {
        let samples = closed_loop(&mut self.conns[..conns], reqs, dur, DRAIN)
            .map_err(|e| format!("closed loop: {e}"))?;
        self.ledger.add(&samples);
        self.heal(&samples)?;
        tally.add(&samples, reqs);
        Ok(samples)
    }

    /// Reconcile the client's ledger with `STATS` and the runtime's own
    /// snapshot; returns the snapshot.
    fn reconcile(&mut self, tally: &mut Tally) -> Result<ShardSnapshot, String> {
        // Gate slots are released on the worker just before the handle
        // completes; give the last ones a moment.
        let t = Instant::now();
        let mut snap = self.rt.snapshot();
        while snap.gate_slots_held() != 0 && t.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
            snap = self.rt.snapshot();
        }
        // A fresh connection, so no late answer to an earlier request can
        // be taken for the STATS line.
        let stats = ask(&mut connect(self.addr)?, b"STATS\n");
        tally.attempted += 1;
        if stats.is_some() {
            tally.correct += 1;
        } else {
            tally.failed += 1;
            eprintln!("perfbench: STATS not answered within {DRAIN:?}; its checks are skipped");
        }
        let stats = stats.unwrap_or_default();
        let field = |k: &str| -> u64 {
            stats
                .split(' ')
                .find_map(|kv| kv.strip_prefix(k).and_then(|v| v.strip_prefix('=')))
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX)
        };
        let l = &self.ledger;
        let p = snap.placement;
        let full_waits: u64 = snap.shards.iter().map(|s| s.injector.full_waits).sum();
        eprintln!(
            "perfbench: ledger client sent={} ok={} err={} missing={} | {stats} | \
             gate_slots_held={} injector.full_waits={full_waits}",
            l.sent,
            l.ok,
            l.err,
            l.missing,
            snap.gate_slots_held()
        );
        eprintln!(
            "perfbench: STATS completed={} counts value completions only (rejected specs are placed, never \
             completed); client OK count={}",
            field("completed"),
            l.ok
        );
        let mut broken = Vec::new();
        if l.sent != l.ok + l.err + l.missing {
            broken.push(format!(
                "client sent {} != ok {} + err {} + missing {}",
                l.sent, l.ok, l.err, l.missing
            ));
        }
        if l.missing > 0 {
            eprintln!("perfbench: {} responses missing (counted as failures)", l.missing);
        } else if !stats.is_empty() && field("submitted") != l.sent {
            broken.push(format!("STATS submitted {} != client SUBMITs {}", field("submitted"), l.sent));
        }
        if p.submitted != p.placed + p.shed + p.rejected {
            broken.push(format!(
                "submitted {} != placed {} + shed {} + rejected {}",
                p.submitted, p.placed, p.shed, p.rejected
            ));
        }
        if snap.gate_slots_held() != 0 {
            broken.push(format!("{} gate slots still held", snap.gate_slots_held()));
        }
        if full_waits != 0 {
            broken.push(format!("injector.full_waits = {full_waits}"));
        }
        if broken.is_empty() {
            Ok(snap)
        } else {
            Err(format!("ledger does not reconcile: {}", broken.join("; ")))
        }
    }

    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
        drop(self.rt);
    }
}

/// Latencies in µs, failed requests counted at the drain limit.
fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_us(us(DRAIN))).collect()
}

/// Generator health over the measured open-loop phases.
fn lag_check(samples: &[Sample]) -> Result<(f64, f64), String> {
    let mut lag: Vec<f64> = samples.iter().map(Sample::lag_us).collect();
    let (p50, p99) = p50_p99(&mut lag);
    eprintln!(
        "perfbench: generator lag p50={p50:.1}us p99={p99:.1}us nproc={} loadavg1={:.2} realtime={}",
        nproc(),
        loadavg1(),
        std::thread::scope(|s| s.spawn(crate::load::generator_thread).join().unwrap_or(false))
    );
    if p99 > LAG_P99_BOUND_US {
        return Err(format!(
            "INVALID run: generator lag p99 {p99:.0} us exceeds {LAG_P99_BOUND_US} us (starved load generator)"
        ));
    }
    Ok((p50, p99))
}

/// One open-loop step: its latency quantiles and whether it kept up.
struct Block {
    p50: f64,
    p99: f64,
    samples: usize,
    /// No failures and no backlog left at the block's last send.
    stable: bool,
}

impl Block {
    fn of(samples: &[Sample], conns: usize) -> Block {
        let mut lat = latencies(samples);
        let (p50, p99) = p50_p99(&mut lat);
        let failed = samples.iter().any(|s| s.verdict() != Verdict::Correct);
        let stable = !failed && backlog_at_end(samples) <= (4 * conns).max(samples.len() / 100);
        Block { p50, p99, samples: lat.len(), stable }
    }
}

/// Per-phase time shares of `--seconds`.
struct Budget(f64);

impl Budget {
    fn secs(&self, share: f64) -> f64 {
        (self.0 * share).max(0.05)
    }

    fn dur(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.secs(share))
    }
}

/// Servers per run; each serves one concurrency-1 and one
/// concurrency-`nproc` block.
const SERVERS: usize = 24;

/// Set-ups timed before each server's blocks. Each costs up to one
/// accept-loop poll interval (25 ms) to stop.
const SETUPS_PER_SERVER: usize = 2;

/// Time `n` server starts, each stopped at once, into `setups`.
fn time_setups(
    shards: usize,
    workers: usize,
    n: usize,
    tally: &mut Tally,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..n {
        let (srv, setup) = Server::start(shards, workers, tally)?;
        setups.push(setup);
        srv.stop();
    }
    Ok(())
}

/// Requests generated for one closed-loop block: more than any block can
/// send at this commit's speed (a block that runs out ends early and is
/// timed as such), so no block ever repeats a request.
fn closed_reqs(kind: Kind, gen: &mut dyn Gen) -> Vec<Req> {
    let n = if kind == Kind::Heavy { 4096 } else { 24_000 };
    (0..n).map(|_| gen.next()).collect()
}

/// Consecutive correct responses per [`Stretch`]: two rounds of the
/// heavy menu (8 jobs a round), or a few ms of tiny jobs.
fn stretch_len(kind: Kind) -> usize {
    if kind == Kind::Heavy {
        16
    } else {
        64
    }
}

/// A block's correct responses as stretches.
fn block_stretches(samples: &[Sample], k: usize) -> Vec<Stretch> {
    let done = samples
        .iter()
        .filter(|s| s.verdict() == Verdict::Correct)
        .filter_map(|s| s.recv.map(|r| (r.as_secs_f64(), s.latency_us(0.0))));
    stretches(done.collect(), k)
}

/// An untraced run: the end-to-end metrics, from a closed loop over TCP.
///
/// A long-lived server settles into one state (how its threads and their
/// idle loops interleave), and that state moved the whole run's latency
/// by up to a third from one run to the next. So each run starts [`SERVERS`] fresh servers and gives
/// each a short warm-up, a concurrency-1 block and a concurrency-`nproc`
/// block, all on the same request streams (each server's compile caches
/// start empty). Each phase's stretches from every server are pooled and
/// read by [`phase_figures`]. `setup_s` is the median of further set-ups timed
/// before each server (see [`time_setups`]), so they sample the host over
/// the whole run rather than one moment of it.
pub fn run(kind: Kind, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    let mut rng = Rng::new(seed);
    let mut gen = kind.gen(rng.fork());
    let (shards, workers) = kind.shape();
    let conns = nproc();
    let b = Budget(seconds);
    let warm: Vec<Req> = (0..4096).map(|_| gen.next()).collect();
    let phases = [(1, closed_reqs(kind, gen.as_mut())), (conns, closed_reqs(kind, gen.as_mut()))];
    let mut setups = Vec::new();
    let mut pooled: [Vec<Stretch>; 2] = Default::default();
    for _ in 0..SERVERS {
        time_setups(shards, workers, SETUPS_PER_SERVER, tally, &mut setups)?;
        let (mut srv, _) = Server::start_with(shards, workers, conns, tally)?;
        srv.closed_phase(1, &warm, b.dur(0.1 / SERVERS as f64), tally)?;
        for ((c, reqs), out) in phases.iter().zip(&mut pooled) {
            let s = srv.closed_phase(*c, reqs, b.dur(0.8 / (2 * SERVERS) as f64), tally)?;
            out.extend(block_stretches(&s, stretch_len(kind)));
        }
        srv.reconcile(tally)?;
        srv.stop();
    }
    eprint!("perfbench: concurrency 1: ");
    let (good_lo, p50_lo) = phase_figures(&pooled[0])?;
    eprint!("perfbench: concurrency {conns}: ");
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

/// The open-loop figures of a traced `wire-tiny` or `wire-churn` run:
/// Poisson arrivals at the fixed base and high rates, then the knee
/// ladder. Returns the base phase, whose stream the in-process replays
/// repeat.
fn open_loop_layers(
    srv: &mut Server,
    rates: Rates,
    rng: &mut Rng,
    gen: &mut dyn Gen,
    b: &Budget,
    tally: &mut Tally,
    put: &mut impl FnMut(&str, f64),
) -> Result<(Phase, Vec<Sample>), String> {
    let conns = srv.conns.len();
    let warm = Phase::poisson(rng, gen, rates.base_rps, b.secs(0.03), conns);
    srv.open_phase(&warm, tally)?;
    let base = Phase::poisson(rng, gen, rates.base_rps, b.secs(0.15), conns);
    let base_s = srv.open_phase(&base, tally)?;
    let high = Phase::poisson(rng, gen, rates.hi_rps, b.secs(0.1), conns);
    let high_s = srv.open_phase(&high, tally)?;
    let all: Vec<Sample> = base_s.iter().chain(&high_s).cloned().collect();
    let (lag50, lag99) = lag_check(&all)?;
    put("gen.lag_p50_us", lag50);
    put("gen.lag_p99_us", lag99);
    let lo = Block::of(&base_s, conns);
    let hi = Block::of(&high_s, conns);
    put("open.p50_us", lo.p50);
    put("open.p99_us", lo.p99);
    put("open.p50_us_hi", hi.p50);
    put("open.p99_us_hi", hi.p99);
    put("open.samples", lo.samples as f64);
    // The knee: climb from the high rate until a step's p99 breaks the
    // limit or its backlog grows.
    let mut steps = vec![
        Step { rate: rates.base_rps, p99_us: lo.p99, stable: lo.stable },
        Step { rate: rates.hi_rps, p99_us: hi.p99, stable: hi.stable },
    ];
    let mut rate = rates.hi_rps;
    for _ in 0..KNEE_MAX_STEPS {
        if !steps.last().is_some_and(|s| s.stable && s.p99_us <= rates.limit_us) {
            break;
        }
        rate *= KNEE_STEP;
        let phase = Phase::poisson(rng, gen, rate, b.secs(0.02), conns);
        let s = srv.open_phase(&phase, tally)?;
        let st = Block::of(&s, conns);
        steps.push(Step { rate, p99_us: st.p99, stable: st.stable });
    }
    for s in &steps {
        eprintln!("perfbench: knee step rate={:.0}/s p99={:.0}us stable={}", s.rate, s.p99_us, s.stable);
    }
    put("open.knee_rps", knee(&steps, rates.limit_us));
    Ok((base, base_s))
}

/// Merged admission-wait quantiles: sample-weighted means of the
/// per-tenant `TenantSnapshot` p50/p99 over every shard.
fn admit_wait(snap: &ShardSnapshot) -> (f64, f64) {
    let (mut n, mut p50, mut p99) = (0.0, 0.0, 0.0);
    for t in snap.shards.iter().flat_map(|s| &s.tenants) {
        let w = t.admit_samples as f64;
        n += w;
        p50 += w * t.admit_p50_us as f64;
        p99 += w * t.admit_p99_us as f64;
    }
    if n == 0.0 {
        (0.0, 0.0)
    } else {
        (p50 / n, p99 / n)
    }
}

/// Re-runs the traced TCP phase's stream in process, untraced or traced.
type Replay = Box<dyn Fn(&InProc, bool) -> (Vec<Sample>, Vec<Span>)>;

/// A traced run: fills `layers` with the per-layer metrics and returns
/// the replay's spans.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    layers: &mut HashMap<String, f64>,
) -> Result<Vec<Span>, String> {
    let mut rng = Rng::new(seed);
    let mut gen = kind.gen(rng.fork());
    let (shards, workers) = kind.shape();
    let conns = nproc();
    let b = Budget(seconds);
    let (mut srv, _) = Server::start_with(shards, workers, conns, tally)?;
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };

    // 1. TCP, untraced: the open-loop figures (open-loop workloads), the
    //    closed-loop tails, and the reference the replays are held to.
    let (tcp, reqs, replay): (Vec<Sample>, Vec<Req>, Replay) = match kind.rates() {
        Some(rates) => {
            let (phase, s) = open_loop_layers(&mut srv, rates, &mut rng, gen.as_mut(), &b, tally, &mut put)?;
            let reqs = phase.reqs.clone();
            (s, reqs, Box::new(move |ip: &InProc, traced| ip.open(&phase, traced)))
        }
        None => {
            let reqs = closed_reqs(kind, gen.as_mut());
            srv.closed_phase(1, &reqs, b.dur(0.04), tally)?;
            let s = srv.closed_phase(1, &reqs, b.dur(0.15), tally)?;
            let dur = b.dur(0.15);
            let r2 = reqs.clone();
            (s, reqs, Box::new(move |ip: &InProc, traced| ip.closed(&r2, dur, traced)))
        }
    };
    let tcp_p50 = p50_p99(&mut latencies(&tcp)).0;
    // Long enough for 10 samples beyond each p99 (heavy jobs take ms).
    let tail = b.dur(if kind == Kind::Heavy { 0.2 } else { 0.08 });
    let one = srv.closed_phase(1, &closed_reqs(kind, gen.as_mut()), tail, tally)?;
    let many = srv.closed_phase(conns, &closed_reqs(kind, gen.as_mut()), tail, tally)?;
    let mut one_lat = latencies(&one);
    put("p99_us", p50_p99(&mut one_lat).1);
    put("samples.p99", one_lat.len() as f64);
    put("p99_us_hi", p50_p99(&mut latencies(&many)).1);

    // 2. What the server's own counters say about the run.
    let snap = srv.reconcile(tally)?;
    srv.stop();
    let p = snap.placement;
    let base = p.submitted.max(1) as f64;
    put("placement.shed_ratio", p.shed as f64 / base);
    put("placement.reject_ratio", p.rejected as f64 / base);
    let done: Vec<f64> = snap.shards.iter().map(|s| s.completed as f64).collect();
    let mean = done.iter().sum::<f64>() / done.len() as f64;
    put("placement.imbalance", done.iter().copied().fold(0.0, f64::max) / mean.max(1e-9));
    let hits: u64 = snap.shards.iter().map(|s| s.spec_cache_hits).sum();
    let compiles: u64 = snap.shards.iter().map(|s| s.spec_compiles).sum();
    put("cache.hit_ratio", hits as f64 / (hits + compiles).max(1) as f64);
    put("cache.compiles", compiles as f64);
    let (w50, w99) = admit_wait(&snap);
    put("admit.wait_p50_us", w50);
    put("admit.wait_p99_us", w99);
    put("service.backpressure_waits", snap.shards.iter().map(|s| s.backpressure_waits).sum::<u64>() as f64);
    put("injector.full_waits", snap.shards.iter().map(|s| s.injector.full_waits).sum::<u64>() as f64);

    // 3. The same stream in process, untraced then traced, each on a
    //    fresh runtime of the same shape.
    let (plain, _) = replay(&InProc::new(shards, workers), false);
    tally.add(&plain, &reqs);
    let (traced, spans) = replay(&InProc::new(shards, workers), true);
    tally.add(&traced, &reqs);
    let plain_p50 = p50_p99(&mut latencies(&plain)).0;
    let traced_p50 = p50_p99(&mut latencies(&traced)).0;
    put("wire.overhead_us", tcp_p50 - plain_p50);
    put("obs.trace_overhead", traced_p50 / plain_p50.max(1e-9));
    let worst = trace::conservation(&spans)?;
    put("trace.conservation_gap_ns", worst as f64);
    for (layer, span) in [
        ("queue", "conn.queue"),
        ("parse", "wire.parse"),
        ("tenant", "wire.tenant"),
        ("submit", "shard.submit"),
        ("wait", "handle.wait"),
        ("render", "wire.render"),
        ("request", "request"),
    ] {
        let mut v = trace::self_us_by_name(&spans, span);
        put(&format!("span.{layer}.self_us"), p50_p99(&mut v).0);
    }
    // Span request ids index the stream (open loop) or count sends
    // (closed loop, cycling the stream).
    let reject_roots: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| {
            s.name == "request" && !matches!(reqs[s.req as usize % reqs.len()].expect, Expect::Value(_))
        })
        .map(|s| s.id)
        .collect();
    let mut submit_ns = trace::dur_ns_by_name(&spans, "shard.submit");
    let (s50, s99) = p50_p99(&mut submit_ns);
    put("shard.submit_ns_p50", s50);
    put("shard.submit_ns_p99", s99);
    let mut reject_ns: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "shard.submit" && s.parent.is_some_and(|p| reject_roots.contains(&p)))
        .map(|s| us(s.end.saturating_sub(s.start)) * 1e3)
        .collect();
    put("service.reject_ns", p50_p99(&mut reject_ns).0);

    // 4. Standalone layer probes on the same inputs.
    put("wire.parse_ns", probes::parse_ns(&reqs));
    let (c50, c99) = probes::compile_ns(&reqs);
    put("spec.compile_ns_p50", c50);
    put("spec.compile_ns_p99", c99);
    let (tenant_seq, names) = probes::tenant_ids(&reqs);
    put("placement.decide_ns", probes::placement_decide_ns(&tenant_seq, names.len(), shards, conns));
    put("admit.core_ns", probes::admit_core_ns(&tenant_seq, &names, conns));
    put("handle.wake_ns", probes::handle_wake_ns(workers));
    let jobs = probes::job_replay(&reqs, workers, 256, b.dur(0.12))?;
    for _ in 0..jobs.runs {
        tally.add_one(true);
    }
    put_job_layers(&jobs, &mut put);
    Ok(spans)
}

fn put_job_layers(jobs: &probes::JobReplay, put: &mut impl FnMut(&str, f64)) {
    let runs = jobs.runs.max(1) as f64;
    let pm = &jobs.pool;
    put("pool.steal_ratio", pm.steals as f64 / pm.steal_attempts.max(1) as f64);
    put("pool.steals", pm.steals as f64);
    put("injector.pushes", pm.injector_pushes as f64);
    put("injector.pops", pm.injector_pops as f64);
    put("core.tasks", jobs.all.tasks_executed as f64 / runs);
    put("core.supersteps", jobs.all.supersteps as f64 / runs);
    put("core.merges", jobs.all.merges as f64 / runs);
    put("core.steals", jobs.all.steals as f64 / runs);
    put("core.block_fill", jobs.all.step_utilization());
    put("simd.lane_occupancy", jobs.simd.lane_occupancy());
    put("simd.utilization", jobs.simd.simd_utilization());
    for ((program, tier), ms) in &jobs.run_ms {
        let mut v = ms.clone();
        put(&format!("tier.run_ms.{program}.{tier}"), p50_p99(&mut v).0);
    }
}
