//! Seeded request generators and their oracle.
//!
//! Every request is rendered to its wire line before any timed window,
//! together with the answer it must produce: values come from
//! `tb_spec::interpret` (the semantic oracle) on the parsed source, and
//! malformed or arity-mismatched requests expect an `ERR`.

use std::collections::HashMap;

use tb_service::wire::{render_submit, unescape_line};
use tb_spec::{interpret, parse_spec, SpecTier};

use crate::util::Rng;

/// What a response must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `OK <id> <value>`.
    Value(i64),
    /// `ERR <diagnostic>`; `caret` demands a located parse diagnostic.
    Err { caret: bool },
}

/// How a response compares with its expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    /// `ERR overloaded` or no response: counted, never fatal.
    Failed,
    /// A wrong value, or an `OK`/`ERR` where the other was due: the
    /// program is at fault and the run is not correct.
    Wrong,
}

impl Expect {
    pub fn check(&self, resp: Option<&str>) -> Verdict {
        let Some(resp) = resp else { return Verdict::Failed };
        if resp.starts_with("ERR overloaded") {
            return Verdict::Failed;
        }
        match self {
            Expect::Value(want) => {
                let value = resp.strip_prefix("OK ").and_then(|r| r.split(' ').nth(1));
                match value.and_then(|v| v.parse::<i64>().ok()) {
                    Some(got) if got == *want => Verdict::Correct,
                    _ => Verdict::Wrong,
                }
            }
            Expect::Err { caret } => match resp.strip_prefix("ERR ") {
                Some(diag) if !caret || unescape_line(diag).contains('^') => Verdict::Correct,
                _ => Verdict::Wrong,
            },
        }
    }
}

/// One generated request: its wire line (newline-terminated) and answer.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: Vec<u8>,
    pub expect: Expect,
    /// Program family, for per-program grouping.
    pub program: &'static str,
}

impl Req {
    fn new(
        tenant: &str,
        tier: SpecTier,
        args: &[i64],
        source: &str,
        expect: Expect,
        program: &'static str,
    ) -> Req {
        let mut line = render_submit(tenant, tier, args, source).into_bytes();
        line.push(b'\n');
        Req { line, expect, program }
    }

    /// The line without its terminator.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.line[..self.line.len() - 1]).expect("generated lines are UTF-8")
    }
}

pub const FIB_SRC: &str =
    "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }";
pub const BINOMIAL_SRC: &str = "spec binomial(n, k) { base (k == 0 || k == n) { reduce 1; } \
     else { spawn binomial(n - 1, k - 1); spawn binomial(n - 1, k); } }";
pub const TREESUM_SRC: &str = "spec treesum(d, v) { base (d < 1) { reduce v; } \
     else { spawn treesum(d - 1, 3 * v + 1); spawn treesum(d - 1, 3 * v + 2); spawn treesum(d - 1, 3 * v + 3); } }";

/// Balanced-parentheses counter for `n` pairs (guarded spawns).
pub fn paren_src(n: i64) -> String {
    format!(
        "spec paren(o, c) {{ base (o == {n} && c == {n}) {{ reduce 1; }} \
         else {{ if (o < {n}) {{ spawn paren(o + 1, c); }} if (c < o) {{ spawn paren(o, c + 1); }} }} }}"
    )
}

/// The fixed request every set-up measurement waits for: `fib(10)`.
pub fn setup_req() -> Req {
    Req::new("default", SpecTier::Auto, &[10], FIB_SRC, Expect::Value(55), "fib")
}

const TIERS: [SpecTier; 3] = [SpecTier::Auto, SpecTier::Scalar, SpecTier::Simd];

fn oracle(source: &str, args: &[i64]) -> i64 {
    let spec = parse_spec(source).expect("generated sources parse");
    interpret(&spec, args)
}

/// A seeded, endless stream of requests.
pub trait Gen: Send {
    fn next(&mut self) -> Req;
}

/// `wire-tiny`: leaf-scale `fib`, `binomial` and `paren` jobs over a
/// handful of repeating sources from 8 tenants.
pub struct TinyGen {
    rng: Rng,
    sources: Vec<(String, &'static str)>,
    answers: HashMap<(usize, Vec<i64>), i64>,
}

pub const TINY_TENANTS: usize = 8;

impl TinyGen {
    pub fn new(rng: Rng) -> Self {
        let mut sources = vec![(FIB_SRC.to_string(), "fib"), (BINOMIAL_SRC.to_string(), "binomial")];
        for n in 3..=5 {
            sources.push((paren_src(n), "paren"));
        }
        TinyGen { rng, sources, answers: HashMap::new() }
    }
}

impl Gen for TinyGen {
    fn next(&mut self) -> Req {
        let r = &mut self.rng;
        let which = r.below(self.sources.len() as u64) as usize;
        let args = match which {
            0 => vec![r.range(1, 10)],
            1 => {
                let n = r.range(2, 8);
                vec![n, r.range(0, n)]
            }
            _ => vec![0, 0],
        };
        let tenant = format!("t{}", r.below(TINY_TENANTS as u64));
        let tier = TIERS[r.below(3) as usize];
        let (source, program) = &self.sources[which];
        let value = *self.answers.entry((which, args.clone())).or_insert_with(|| oracle(source, &args));
        Req::new(&tenant, tier, &args, source, Expect::Value(value), program)
    }
}

/// `wire-churn`: every request a source never seen before (fresh method
/// name and constants from one of three templates), from 40 tenants; a
/// small share is malformed (caret `ERR` due) or mismatches the method's
/// arity (`ERR` due).
pub struct ChurnGen {
    rng: Rng,
    prefix: u64,
    count: u64,
}

pub const CHURN_TENANTS: usize = 40;

/// Per-mille of churn requests with a syntax error / an arity mismatch.
pub const CHURN_MALFORMED_PERMILLE: u64 = 20;
pub const CHURN_ARITY_PERMILLE: u64 = 10;

impl ChurnGen {
    pub fn new(mut rng: Rng) -> Self {
        let prefix = rng.next_u64() & 0xFFFF_FFFF;
        ChurnGen { rng, prefix, count: 0 }
    }

    /// A fresh valid source, its root args and its program family.
    fn fresh(&mut self) -> (String, Vec<i64>, &'static str) {
        self.count += 1;
        let name = format!("c{:x}n{}", self.prefix, self.count);
        let r = &mut self.rng;
        match r.below(3) {
            0 => {
                let (cut, add) = (r.range(2, 3), r.range(0, 9));
                let src = format!(
                    "spec {name}(n) {{ base (n < {cut}) {{ reduce n + {add}; }} \
                     else {{ spawn {name}(n - 1); spawn {name}(n - 2); }} }}"
                );
                (src, vec![r.range(3, 9)], "fib")
            }
            1 => {
                let w = r.range(1, 5);
                let src = format!(
                    "spec {name}(n, k) {{ base (k == 0 || k == n) {{ reduce {w}; }} \
                     else {{ spawn {name}(n - 1, k - 1); spawn {name}(n - 1, k); }} }}"
                );
                let n = r.range(2, 7);
                (src, vec![n, r.range(0, n)], "binomial")
            }
            _ => {
                let (pairs, w) = (r.range(2, 4), r.range(1, 3));
                let src = format!(
                    "spec {name}(o, c) {{ base (o == {pairs} && c == {pairs}) {{ reduce {w}; }} \
                     else {{ if (o < {pairs}) {{ spawn {name}(o + 1, c); }} \
                     if (c < o) {{ spawn {name}(o, c + 1); }} }} }}"
                );
                (src, vec![0, 0], "paren")
            }
        }
    }
}

impl Gen for ChurnGen {
    fn next(&mut self) -> Req {
        let (source, args, program) = self.fresh();
        let tenant = format!("u{}", self.rng.below(CHURN_TENANTS as u64));
        let tier = TIERS[self.rng.below(3) as usize];
        let roll = self.rng.below(1000);
        if roll < CHURN_MALFORMED_PERMILLE {
            // Drop the first `;`: always a located parse error.
            let broken = source.replacen(';', "", 1);
            debug_assert!(parse_spec(&broken).is_err());
            Req::new(&tenant, tier, &args, &broken, Expect::Err { caret: true }, program)
        } else if roll < CHURN_MALFORMED_PERMILLE + CHURN_ARITY_PERMILLE {
            let mut bad = args;
            bad.push(1);
            Req::new(&tenant, tier, &bad, &source, Expect::Err { caret: false }, program)
        } else {
            let value = oracle(&source, &args);
            Req::new(&tenant, tier, &args, &source, Expect::Value(value), program)
        }
    }
}

/// `wire-heavy`: millisecond jobs of four programs at both tiers, in
/// shuffled rounds of a fixed menu (the seed fixes the order), so every
/// stretch of the stream holds the jobs in equal shares.
pub struct HeavyGen {
    rng: Rng,
    menu: Vec<Req>,
    round: Vec<usize>,
}

/// `(program, source, root args)` of the heavy menu; each runs at the
/// scalar and the simd tier.
pub fn heavy_menu() -> Vec<(&'static str, String, Vec<i64>)> {
    vec![
        ("fib", FIB_SRC.to_string(), vec![21]),
        ("binomial", BINOMIAL_SRC.to_string(), vec![17, 8]),
        ("paren", paren_src(10), vec![0, 0]),
        ("treesum", TREESUM_SRC.to_string(), vec![9, 0]),
    ]
}

impl HeavyGen {
    pub fn new(rng: Rng) -> Self {
        let mut menu = Vec::new();
        for (program, source, args) in heavy_menu() {
            let value = oracle(&source, &args);
            for tier in [SpecTier::Scalar, SpecTier::Simd] {
                menu.push(Req::new("heavy", tier, &args, &source, Expect::Value(value), program));
            }
        }
        HeavyGen { rng, menu, round: Vec::new() }
    }
}

impl Gen for HeavyGen {
    fn next(&mut self) -> Req {
        if self.round.is_empty() {
            self.round = (0..self.menu.len()).collect();
            for i in (1..self.round.len()).rev() {
                self.round.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let i = self.round.pop().expect("a fresh round is never empty");
        self.menu[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(mut g: impl Gen, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| g.next().line).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(lines(TinyGen::new(Rng::new(3)), 200), lines(TinyGen::new(Rng::new(3)), 200));
        assert_eq!(lines(ChurnGen::new(Rng::new(3)), 200), lines(ChurnGen::new(Rng::new(3)), 200));
        assert_eq!(lines(HeavyGen::new(Rng::new(3)), 50), lines(HeavyGen::new(Rng::new(3)), 50));
        assert_ne!(lines(TinyGen::new(Rng::new(3)), 50), lines(TinyGen::new(Rng::new(4)), 50));
    }

    #[test]
    fn churn_sources_never_repeat_and_include_bad_requests() {
        let mut g = ChurnGen::new(Rng::new(9));
        let reqs: Vec<Req> = (0..3000).map(|_| g.next()).collect();
        let sources: std::collections::HashSet<String> =
            reqs.iter().map(|r| r.text().splitn(5, ' ').nth(4).unwrap().to_string()).collect();
        assert_eq!(sources.len(), reqs.len(), "every churn source is fresh");
        assert!(reqs.iter().any(|r| r.expect == Expect::Err { caret: true }));
        assert!(reqs.iter().any(|r| r.expect == Expect::Err { caret: false }));
        for r in reqs.iter().filter(|r| r.expect == Expect::Err { caret: true }) {
            let src = r.text().splitn(5, ' ').nth(4).unwrap();
            assert!(parse_spec(src).is_err());
        }
    }

    #[test]
    fn verdicts() {
        let v = Expect::Value(55);
        assert_eq!(v.check(Some("OK 3 55")), Verdict::Correct);
        assert_eq!(v.check(Some("OK 3 54")), Verdict::Wrong);
        assert_eq!(v.check(Some("ERR overloaded: every shard at capacity")), Verdict::Failed);
        assert_eq!(v.check(Some("ERR job panicked")), Verdict::Wrong);
        assert_eq!(v.check(None), Verdict::Failed);
        let e = Expect::Err { caret: true };
        assert_eq!(e.check(Some("ERR parse error\\n  |  x\\n  |  ^")), Verdict::Correct);
        assert_eq!(e.check(Some("ERR no caret")), Verdict::Wrong);
        assert_eq!(e.check(Some("OK 1 2")), Verdict::Wrong);
    }
}
