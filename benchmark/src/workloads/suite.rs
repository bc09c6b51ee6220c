//! `suite-verdicts`: the 60 classified testsuite programs, live under
//! MUST & CuSan, graded against their known answers.
//!
//! One operation is one program run to a verdict (≈140 µs, ≈8 checked
//! events): world spawn, device and registry set-up and session
//! teardown dominate. This is the bypass workload — nothing in shadow
//! memory, the trace codec or the serve path should move it — and the
//! source of the known-answer verdict score. Every fourth pass first
//! runs the same programs with no tool attached (`overhead_x`'s
//! denominator), and every fiftieth runs the schedule explorer over the
//! planted wildcard race, which one fixed schedule can never report.

use super::{Layers, Phase, Tally, Workload};
use crate::adapter::{self, Case};
use crate::corpus::Corpus;
use crate::probes;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{quiet_rate, windowed_ratio};
use std::time::Instant;

pub const EXPLORE_BUDGET: usize = 8;
const VANILLA_EVERY: u64 = 4;
const EXPLORE_EVERY: u64 = 50;

pub struct Suite {
    programs: Vec<Case>,
    /// The programs' recorded rank traces: bytes per event.
    corpus: Corpus,
    /// Recorded events of each program, both ranks; `None` for the
    /// programs the corpus leaves out.
    events_of: Vec<Option<u64>>,
    rng: Rng,
    tally: Tally,
}

/// True iff the search stayed clean on the default schedule and found
/// the planted race within budget.
fn explore_finds_race() -> bool {
    let (_, found_at, default_clean) = adapter::explore_planted_race(EXPLORE_BUDGET);
    default_clean && found_at > 0
}

impl Suite {
    pub fn setup(seed: u64) -> Result<Suite, String> {
        let mut tally = Tally::default();
        tally.check(explore_finds_race(), || {
            "explorer missed the planted wildcard race".to_string()
        });
        let programs = adapter::programs();
        let corpus = Corpus::of_programs()?;
        let events_of = programs
            .iter()
            .map(|case| {
                // Traces are named `<program>-r<rank>`.
                let ranks = corpus.traces.iter().filter(|t| {
                    t.name
                        .rsplit_once("-r")
                        .is_some_and(|(program, _)| program == case.name)
                });
                ranks.map(|t| t.events).reduce(|a, b| a + b)
            })
            .collect();
        Ok(Suite {
            programs,
            corpus,
            events_of,
            rng: Rng::new(seed),
            tally,
        })
    }
}

impl Workload for Suite {
    fn setup_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    fn trace_bytes_per_event(&self) -> f64 {
        self.corpus.bytes_per_event()
    }

    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> (Phase, Vec<Spans>) {
        let mut spans = Spans::new(traced, origin);
        let mut tally = Tally::default();
        let mut rng = self.rng.split();
        let mut op_ms = Vec::new();
        // A pass with no tool attached and the checked pass right after it.
        let mut twins = Vec::new();
        // Per pass: operations and the time they took; events and the
        // time of the programs they belong to (events are known for the
        // recorded programs only).
        let (mut pass_ops, mut pass_events) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut pass = 0u64;
        while started.elapsed().as_secs_f64() < seconds {
            let order = rng.order(self.programs.len());
            let vanilla_ms = pass.is_multiple_of(VANILLA_EVERY).then(|| {
                let t = Instant::now();
                let open = spans.enter("must.vanilla_pass");
                for &i in &order {
                    adapter::run_program_vanilla(&self.programs[i]);
                }
                spans.exit(open);
                t.elapsed().as_secs_f64() * 1e3
            });
            let mut pass_ms = 0.0;
            let (mut events, mut events_ms) = (0u64, 0.0);
            for &i in &order {
                let case = &self.programs[i];
                let t = Instant::now();
                let op = spans.enter("harness.op");
                let ok = spans.leaf("apps.check_case", || adapter::verdict_matches(case));
                tally.check(ok, || format!("{}: wrong verdict", case.name));
                spans.exit(op);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                op_ms.push(ms);
                pass_ms += ms;
                if let Some(n) = self.events_of[i] {
                    events += n;
                    events_ms += ms;
                }
            }
            twins.extend(vanilla_ms.map(|vanilla_ms| (pass_ms, vanilla_ms)));
            let (mut ops, mut busy_ms) = (order.len() as f64, pass_ms);
            if pass.is_multiple_of(EXPLORE_EVERY) {
                let t = Instant::now();
                let op = spans.enter("harness.op");
                let found = spans.leaf("explore.planted_race", explore_finds_race);
                tally.check(found, || "explorer missed the planted race".to_string());
                spans.exit(op);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                op_ms.push(ms);
                ops += 1.0;
                busy_ms += ms;
            }
            pass_ops.push((ops, busy_ms / 1e3));
            pass_events.push((events as f64, events_ms / 1e3));
            pass += 1;
        }
        let wall_s = started.elapsed().as_secs_f64();
        let phase = Phase {
            ops_per_s: quiet_rate(&pass_ops),
            events_per_s: quiet_rate(&pass_events),
            overhead_x: windowed_ratio(&twins),
            op_ms,
            wall_s,
            threads: 1,
            tally,
        };
        (phase, vec![spans])
    }

    fn probes(&mut self, layers: &mut Layers, tally: &mut Tally) -> Result<(), String> {
        probes::checker(&self.corpus, layers)?;
        probes::must_and_explore(layers, tally);
        Ok(())
    }
}
