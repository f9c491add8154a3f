//! In-memory spans for the traced run: recording, per-layer self time,
//! the time-conservation check, and Chrome trace-event export.
//!
//! Spans are recorded by the benchmark's own code around each layer call
//! it makes; nothing inside the program is instrumented. A span's *self
//! time* is its duration minus the union of its children's intervals
//! (clipped to the span). For every request the self times of all its
//! spans must add up to the root span: children that overlap each other
//! or spill outside their parent break the sum.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The conservation check's fixed tolerance per request.
pub const CONSERVATION_TOLERANCE_NS: u128 = 1_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub tid: usize,
}

/// One thread's span buffer; ids are unique across threads.
pub struct Recorder {
    pub t0: Instant,
    tid: usize,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(t0: Instant, tid: usize) -> Self {
        Recorder { t0, tid, next: 0, spans: Vec::new() }
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Duration,
        end: Duration,
    ) -> u64 {
        self.next += 1;
        let id = ((self.tid as u64) << 40) | self.next;
        self.spans.push(Span { id, parent, req, name, start, end, tid: self.tid });
        id
    }

    /// Reserve an id for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        ((self.tid as u64) << 40) | self.next
    }

    /// Record a span under a reserved id.
    pub fn push_as(&mut self, id: u64, name: &'static str, req: u64, start: Duration, end: Duration) {
        self.spans.push(Span { id, parent: None, req, name, start, end, tid: self.tid });
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
        let start = self.t0.elapsed();
        let r = f();
        let end = self.t0.elapsed();
        self.push(name, Some(parent), req, start, end);
        r
    }
}

fn dur_ns(start: Duration, end: Duration) -> u128 {
    end.saturating_sub(start).as_nanos()
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u128> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(Duration, Duration)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort();
            let mut covered = 0u128;
            let mut cur: Option<(Duration, Duration)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += dur_ns(ca, cb);
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += dur_ns(ca, cb);
            }
            (s.id, dur_ns(s.start, s.end).saturating_sub(covered))
        })
        .collect()
}

/// The largest per-request gap between the sum of all self times and the
/// root span, in ns. `Err` names the first request past the tolerance.
pub fn conservation(spans: &[Span]) -> Result<u128, String> {
    let selfs = self_times(spans);
    let mut by_req: HashMap<u64, (u128, Option<u128>)> = HashMap::new();
    for s in spans {
        let e = by_req.entry(s.req).or_default();
        e.0 += selfs[&s.id];
        if s.parent.is_none() {
            e.1 = Some(dur_ns(s.start, s.end));
        }
    }
    let mut worst = 0;
    for (req, (sum, root)) in by_req {
        let root = root.ok_or_else(|| format!("request {req} has no root span"))?;
        let gap = sum.abs_diff(root);
        if gap > CONSERVATION_TOLERANCE_NS {
            return Err(format!("request {req}: self times sum to {sum} ns, root span is {root} ns"));
        }
        worst = worst.max(gap);
    }
    Ok(worst)
}

/// Self time in µs of every span named `name`.
pub fn self_us_by_name(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans.iter().filter(|s| s.name == name).map(|s| selfs[&s.id] as f64 / 1e3).collect()
}

/// Duration in ns of every span named `name`.
pub fn dur_ns_by_name(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| dur_ns(s.start, s.end) as f64).collect()
}

/// Chrome trace-event JSON (complete `X` events), loadable in Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"req\":{},\"id\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.tid,
            s.start.as_secs_f64() * 1e6,
            s.end.saturating_sub(s.start).as_secs_f64() * 1e6,
            s.req,
            s.id,
            parent,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn nested_spans_conserve_time() {
        let mut r = Recorder::new(Instant::now(), 1);
        let root = r.reserve();
        r.push("a", Some(root), 7, ms(1), ms(3));
        r.push("b", Some(root), 7, ms(4), ms(8));
        r.push_as(root, "request", 7, ms(0), ms(10));
        let selfs = self_times(&r.spans);
        assert_eq!(selfs[&root], ms(4).as_nanos());
        assert_eq!(conservation(&r.spans), Ok(0));
        assert!(chrome_json(&r.spans).contains("\"name\":\"request\""));
    }

    #[test]
    fn overlapping_children_break_conservation() {
        let mut r = Recorder::new(Instant::now(), 1);
        let root = r.reserve();
        r.push("a", Some(root), 1, ms(1), ms(6));
        r.push("b", Some(root), 1, ms(4), ms(8));
        r.push_as(root, "request", 1, ms(0), ms(10));
        assert!(conservation(&r.spans).is_err());
    }
}
