//! The run's result line and failure accounting.

use std::fmt::Write as _;

use crate::gen::{Req, Verdict};
use crate::load::Sample;

/// Attempted / failed / wrong operations across all phases of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub correct: u64,
    /// Overloaded or missing: counted, never fatal.
    pub failed: u64,
    /// Wrong answers: the run is not correct.
    pub wrong: u64,
}

impl Tally {
    /// Check every sample against its request's oracle answer.
    pub fn add(&mut self, samples: &[Sample], reqs: &[Req]) {
        for s in samples {
            self.attempted += 1;
            match s.verdict() {
                Verdict::Correct => self.correct += 1,
                Verdict::Failed => self.failed += 1,
                Verdict::Wrong => {
                    self.wrong += 1;
                    if self.wrong <= 3 {
                        eprintln!(
                            "perfbench: WRONG response {:?} to {:?} (expected {:?})",
                            s.reply.as_ref().and_then(|r| r.wrong.as_deref()),
                            reqs[s.req].text(),
                            reqs[s.req].expect
                        );
                    }
                }
            }
        }
    }

    /// One in-process operation's verdict.
    pub fn add_one(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.correct += 1;
        } else {
            self.wrong += 1;
        }
    }
}

/// Metrics by name, with units.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(self.0.iter().all(|(n, _, _)| *n != name), "metric {name} reported twice");
        self.0.push((name, value, unit));
    }
}

/// The final stdout line.
pub fn result_json(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.attempted.max(1),
        tally.failed + tally.wrong
    )
}
