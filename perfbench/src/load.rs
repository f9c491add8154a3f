//! Load generation over TCP: a seeded open-loop (Poisson) generator that
//! times every request from its *scheduled* send time, a closed-loop
//! client, and the knee search over open-loop steps.
//!
//! One thread per connection. An open-loop thread sleeps in `ppoll` until
//! either a response arrives or the next send is due, so requests are
//! written on schedule even while earlier ones are outstanding (the wire
//! serves a connection serially; later lines queue in the socket). A slow
//! response therefore raises the latency of everything queued behind it
//! instead of delaying their sends (no coordinated omission).

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::gen::{Gen, Req, Verdict};
use crate::util::{us, Rng};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const std::ffi::c_void) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;
const SCHED_FIFO: i32 = 1;

/// Ask for 1 ns timer slack on the calling thread, so `ppoll` and
/// `sleep` wake on time instead of up to 50 µs late.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only affects
    // the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Make the calling load thread a load generator that the server under
/// test cannot starve: precise timers, and the lowest real-time priority
/// where the host allows it (the thread sleeps in `ppoll` between sends
/// and reads, so it takes little CPU). Without it, on a host with as many
/// cores as the server has busy threads, the generator waits behind the
/// server's own threads for whole scheduler slices and its sends go out
/// late. Returns whether real-time priority was granted.
pub fn generator_thread() -> bool {
    precise_timers();
    let param = SchedParam { sched_priority: 1 };
    // SAFETY: pid 0 is the calling thread; param is a valid sched_param.
    unsafe { sched_setscheduler(0, SCHED_FIFO, &param) == 0 }
}

/// Pin the calling thread, and so every thread it starts afterwards, to
/// the first CPU it may run on. Returns whether it was pinned.
///
/// Every run is pinned before it starts a thread: spread over the CPUs
/// of a virtual machine, each hand-off between threads crosses CPUs or
/// not as the kernel places them, and the crossing's cost (an interrupt
/// to a virtual CPU the host may first have to wake) swamped the program's
/// own from run to run. See "One CPU" in `perfbench/README.md`.
pub fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; 16];
    // SAFETY: pid 0 is the calling thread; the mask buffer is 1024 bits.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else { return false };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: as above, with a mask of one allowed CPU.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Block until `fd` is readable (or writable, if asked) or `timeout`
/// passes.
fn wait_fd(fd: i32, want_write: bool, timeout: Duration) {
    let mut pfd = PollFd { fd, events: POLLIN | if want_write { POLLOUT } else { 0 }, revents: 0 };
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Sleep until `t0 + at` (precise with [`precise_timers`]).
pub fn sleep_until(t0: Instant, at: Duration) {
    loop {
        let now = t0.elapsed();
        if now >= at {
            return;
        }
        std::thread::sleep(at - now);
    }
}

/// One scheduled send.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    /// Scheduled send time, from the phase start.
    pub at: Duration,
    /// Index into the phase's requests.
    pub req: usize,
}

/// A response line, checked on arrival against the request's oracle
/// answer (only a wrong one is kept, for the report).
#[derive(Debug, Clone)]
pub struct Reply {
    /// An `OK` line (else `ERR`).
    pub ok: bool,
    pub verdict: Verdict,
    pub wrong: Option<String>,
}

impl Reply {
    pub fn new(req: &Req, line: &str) -> Reply {
        let verdict = req.expect.check(Some(line));
        let wrong = (verdict == Verdict::Wrong).then(|| line.to_string());
        Reply { ok: line.starts_with("OK "), verdict, wrong }
    }
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub req: usize,
    pub conn: usize,
    /// Scheduled send time (open loop) or send time (closed loop).
    pub at: Duration,
    /// Actual send time.
    pub sent: Duration,
    pub recv: Option<Duration>,
    pub reply: Option<Reply>,
}

impl Sample {
    pub fn verdict(&self) -> Verdict {
        self.reply.as_ref().map_or(Verdict::Failed, |r| r.verdict)
    }

    /// Latency from the scheduled send; a failed request (overloaded or
    /// missing) counts as `penalty_us`, past any latency limit.
    pub fn latency_us(&self, penalty_us: f64) -> f64 {
        match (self.verdict(), self.recv) {
            (Verdict::Failed, _) | (_, None) => penalty_us,
            (_, Some(r)) => us(r.saturating_sub(self.at)),
        }
    }

    /// How late the generator sent this request.
    pub fn lag_us(&self) -> f64 {
        us(self.sent.saturating_sub(self.at))
    }
}

/// A phase's requests and its per-connection send schedule.
pub struct Phase {
    pub reqs: Vec<Req>,
    pub plan: Vec<Vec<Shot>>,
}

impl Phase {
    /// Poisson arrivals at `rate`/s for `secs`, each on a uniformly drawn
    /// connection.
    pub fn poisson(rng: &mut Rng, gen: &mut dyn Gen, rate: f64, secs: f64, conns: usize) -> Phase {
        let mut reqs = Vec::new();
        let mut plan = vec![Vec::new(); conns];
        let mut t = 0.0;
        loop {
            t += rng.exp_gap(rate);
            if t >= secs {
                break;
            }
            let conn = rng.below(conns as u64) as usize;
            plan[conn].push(Shot { at: Duration::from_secs_f64(t), req: reqs.len() });
            reqs.push(gen.next());
        }
        Phase { reqs, plan }
    }
}

/// Drive one open-loop phase over `streams` (one thread per stream) and
/// return every request's sample. Responses still missing `drain` after
/// the last scheduled send, or lost to a connection error, are recorded
/// as missing.
pub fn open_loop(streams: &mut [TcpStream], phase: &Phase, drain: Duration) -> io::Result<Vec<Sample>> {
    let t0 = Instant::now() + Duration::from_millis(2);
    let results: Vec<io::Result<Vec<Sample>>> = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter_mut()
            .zip(&phase.plan)
            .enumerate()
            .map(|(conn, (stream, shots))| {
                s.spawn(move || drive_conn(stream, conn, shots, &phase.reqs, t0, drain))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load thread panicked")).collect()
    });
    let mut all = Vec::with_capacity(phase.reqs.len());
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

fn drive_conn(
    stream: &mut TcpStream,
    conn: usize,
    shots: &[Shot],
    reqs: &[Req],
    t0: Instant,
    drain: Duration,
) -> io::Result<Vec<Sample>> {
    generator_thread();
    stream.set_nonblocking(true)?;
    let fd = stream.as_raw_fd();
    let mut samples: Vec<Sample> = shots
        .iter()
        .map(|s| Sample { req: s.req, conn, at: s.at, sent: Duration::ZERO, recv: None, reply: None })
        .collect();
    let deadline = shots.last().map_or(Duration::ZERO, |s| s.at) + drain;
    // samples[acked..next] are in flight, answered in FIFO order.
    let (mut next, mut acked) = (0usize, 0usize);
    let mut wbuf: Vec<u8> = Vec::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = t0.elapsed();
        while next < shots.len() && shots[next].at <= now {
            wbuf.extend_from_slice(&reqs[shots[next].req].line);
            samples[next].sent = now;
            next += 1;
        }
        // A connection the server closed or reset ends the stream; what
        // it did not answer stays missing.
        let mut closed = false;
        while !wbuf.is_empty() {
            match stream.write(&wbuf) {
                Ok(0) => break,
                Ok(n) => {
                    wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        while !closed {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    let t = t0.elapsed();
                    rbuf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = rbuf.iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&rbuf[..pos]).trim_end_matches('\r').to_string();
                        rbuf.drain(..=pos);
                        if acked < next {
                            samples[acked].recv = Some(t);
                            samples[acked].reply = Some(Reply::new(&reqs[shots[acked].req], &line));
                            acked += 1;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => closed = true,
            }
        }
        if (next == shots.len() && acked == next) || closed {
            break;
        }
        let now = t0.elapsed();
        if now >= deadline {
            break;
        }
        let wake = if next < shots.len() { shots[next].at } else { deadline };
        wait_fd(fd, !wbuf.is_empty(), wake.saturating_sub(now));
    }
    stream.set_nonblocking(false)?;
    Ok(samples)
}

/// Drive a closed loop for `dur` (or until `reqs` run out): connection `c`
/// sends `reqs[c]`, `reqs[c + n]`, … one at a time, each after the
/// previous response. Latency is per request. A response not read within
/// `drain` (or a connection error) is recorded as missing and ends that
/// connection's loop; the caller replaces the connection.
pub fn closed_loop(
    streams: &mut [TcpStream],
    reqs: &[Req],
    dur: Duration,
    drain: Duration,
) -> io::Result<Vec<Sample>> {
    let n = streams.len();
    // Sample buffers come from this thread, at their full size, so the
    // load threads allocate nothing large: where a short-lived thread's
    // allocations land would otherwise move the peak resident set.
    let bufs: Vec<Vec<Sample>> = (0..n).map(|_| Vec::with_capacity(reqs.len() / n + 1)).collect();
    let t0 = Instant::now();
    let results: Vec<io::Result<Vec<Sample>>> = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter_mut()
            .zip(bufs)
            .enumerate()
            .map(|(conn, (stream, mut samples))| {
                s.spawn(move || -> io::Result<Vec<Sample>> {
                    stream.set_read_timeout(Some(drain))?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let mut i = conn;
                    while t0.elapsed() < dur && i < reqs.len() {
                        let req = i;
                        i += n;
                        let sent = t0.elapsed();
                        let mut line = String::new();
                        let got =
                            stream.write_all(&reqs[req].line).and_then(|()| reader.read_line(&mut line));
                        let recv = t0.elapsed();
                        let reply =
                            matches!(got, Ok(n) if n > 0).then(|| Reply::new(&reqs[req], line.trim_end()));
                        let missing = reply.is_none();
                        samples.push(Sample {
                            req,
                            conn,
                            at: sent,
                            sent,
                            recv: (!missing).then_some(recv),
                            reply,
                        });
                        if missing {
                            break;
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load thread panicked")).collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// One open-loop step of the knee search.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub rate: f64,
    pub p99_us: f64,
    /// No failures, and the backlog did not grow.
    pub stable: bool,
}

impl Step {
    fn passes(&self, limit_us: f64) -> bool {
        self.stable && self.p99_us <= limit_us
    }
}

/// The highest offered rate whose p99 meets `limit_us` with a stable
/// backlog, from steps in ascending rate order. Between the last passing
/// and the first failing step the crossing is interpolated in log-rate
/// against log-p99; below the first step it is extrapolated as
/// `rate · limit / p99`; with every step passing it is the last rate.
pub fn knee(steps: &[Step], limit_us: f64) -> f64 {
    let Some(fail) = steps.iter().position(|s| !s.passes(limit_us)) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let bad = steps[fail];
    if fail == 0 {
        return bad.rate * (limit_us / bad.p99_us.max(limit_us));
    }
    let good = steps[fail - 1];
    if bad.p99_us <= limit_us {
        // Failed on backlog or errors alone: no crossing to place.
        return good.rate;
    }
    let f = (limit_us / good.p99_us.max(1e-9)).ln() / (bad.p99_us / good.p99_us.max(1e-9)).ln();
    good.rate * (bad.rate / good.rate).powf(f.clamp(0.0, 1.0))
}

/// Requests still unanswered at the phase's last scheduled send: a
/// backlog that grew during the step shows here.
pub fn backlog_at_end(samples: &[Sample]) -> usize {
    let end = samples.iter().map(|s| s.at).max().unwrap_or_default();
    samples.iter().filter(|s| s.at <= end && s.recv.is_none_or(|r| r > end)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TinyGen;
    use std::net::TcpListener;

    #[test]
    fn poisson_plans_are_deterministic_per_seed() {
        let plan = |seed| {
            let mut rng = Rng::new(seed);
            let mut gen = TinyGen::new(rng.fork());
            let p = Phase::poisson(&mut rng, &mut gen, 2000.0, 0.5, 2);
            let shots: Vec<Vec<(Duration, usize)>> =
                p.plan.iter().map(|c| c.iter().map(|s| (s.at, s.req)).collect()).collect();
            (shots, p.reqs.iter().map(|r| r.line.clone()).collect::<Vec<_>>())
        };
        assert_eq!(plan(11), plan(11));
        assert_ne!(plan(11), plan(12));
        let (shots, reqs) = plan(11);
        let n: usize = shots.iter().map(Vec::len).sum();
        assert_eq!(n, reqs.len());
        assert!((800..1200).contains(&n), "about rate × secs arrivals, got {n}");
    }

    /// A fake server that answers every line at once, except that it
    /// sleeps `stall` before answering line `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut r = BufReader::new(stream);
            let mut line = String::new();
            let mut i = 0;
            while r.read_line(&mut line).unwrap_or(0) > 0 {
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                if writeln!(w, "OK {i} 1").is_err() {
                    break;
                }
                line.clear();
                i += 1;
            }
        });
        (addr, h)
    }

    #[test]
    fn open_loop_latency_counts_a_stall() {
        let stall = Duration::from_millis(60);
        let (addr, server) = fake_server(100, stall);
        let mut streams = vec![TcpStream::connect(addr).unwrap()];
        // 400 sends 1 ms apart on one connection.
        let reqs: Vec<Req> = (0..400).map(|_| crate::gen::setup_req()).collect();
        let plan = vec![(0..400).map(|i| Shot { at: Duration::from_millis(i as u64), req: i }).collect()];
        let phase = Phase { reqs, plan };
        let samples = open_loop(&mut streams, &phase, Duration::from_secs(2)).unwrap();
        drop(streams);
        server.join().unwrap();
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_us(f64::INFINITY)).collect();
        // The stalled request and the ones queued behind it wait out the
        // stall, measured from when they were *due*.
        assert!(lat[100] >= 0.9 * us(stall), "stalled request {}", lat[100]);
        assert!(lat[120] >= 0.9 * us(stall) - 20_000.0 - 2_000.0, "queued request {}", lat[120]);
        assert!(lat[150] >= 5_000.0, "still draining the queue {}", lat[150]);
        // Requests well before the stall are fast.
        assert!(lat[50] < 20_000.0, "unstalled request {}", lat[50]);
        // Sends stayed on schedule: the stall did not hold back the
        // generator.
        let lag: Vec<f64> = samples[100..160].iter().map(Sample::lag_us).collect();
        assert!(lag.iter().all(|&l| l < 20_000.0), "generator lag {lag:?}");
    }

    #[test]
    fn closed_loop_counts_a_lost_response_as_missing() {
        // Line 5 is answered only after the drain limit: the loop must
        // record it as missing and end, not block or fail the run.
        let (addr, server) = fake_server(5, Duration::from_millis(300));
        let mut streams = vec![TcpStream::connect(addr).unwrap()];
        let reqs: Vec<Req> = (0..20).map(|_| crate::gen::setup_req()).collect();
        let samples =
            closed_loop(&mut streams, &reqs, Duration::from_secs(5), Duration::from_millis(50)).unwrap();
        drop(streams);
        server.join().unwrap();
        assert_eq!(samples.len(), 6, "five answers, then the lost one ends the loop");
        assert!(samples[..5].iter().all(|s| s.recv.is_some()));
        assert!(samples[5].recv.is_none() && samples[5].verdict() == Verdict::Failed);
    }

    #[test]
    fn knee_finds_the_crossing_of_a_synthetic_curve() {
        // p99(r) = 100 µs / (1 − r / 10_000): crosses 1 ms at r = 9_000.
        let p99 = |r: f64| 100.0 / (1.0 - r / 10_000.0);
        let limit = 1000.0;
        let steps: Vec<Step> = (0..20)
            .map(|k| 5000.0 * 1.05f64.powi(k))
            .take_while(|&r| r < 10_000.0)
            .map(|rate| Step { rate, p99_us: p99(rate), stable: true })
            .collect();
        let k = knee(&steps, limit);
        assert!((k - 9000.0).abs() / 9000.0 < 0.02, "knee {k}");
        // Every step passing: the knee is at least the last rate.
        let low: Vec<Step> = steps.iter().copied().filter(|s| s.rate < 8000.0).collect();
        assert_eq!(knee(&low, limit), low.last().unwrap().rate);
        // An unstable step fails even under the latency limit.
        let mut unstable = steps.clone();
        unstable[2].stable = false;
        assert_eq!(knee(&unstable, limit), unstable[1].rate);
        // The first step already over the limit: extrapolated below it.
        let over = [Step { rate: 9500.0, p99_us: p99(9500.0), stable: true }];
        assert!(knee(&over, limit) < 9500.0);
    }
}
