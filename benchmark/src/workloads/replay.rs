//! `replay-events`: single-threaded replay of the recorded corpus,
//! `TraceReader` → `CheckSession` → `into_summary`.
//!
//! One operation is one pass over the corpus in seeded order. No
//! substrate and no sockets: decode, intern, apply and the per-session
//! fixed cost are all there is, so codec, interner and parser→session
//! hand-off work shows here first, and a change of the default trace
//! encoding shows as `trace_bytes_per_event` and `events_per_s`.
//! `overhead_x` is a pass over the time to only decode the same bytes.

use super::{Layers, Phase, Tally, Workload};
use crate::adapter;
use crate::corpus::Corpus;
use crate::probes;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{quiet_rate, windowed_ratio};
use std::time::Instant;

pub struct Replay {
    corpus: Corpus,
    rng: Rng,
}

/// Replay every trace in `order`; true iff every summary equals its
/// oracle byte for byte.
pub fn replay_pass(corpus: &Corpus, order: &[usize], spans: &mut Spans, tally: &mut Tally) -> bool {
    let mut wrong = None;
    for &i in order {
        let trace = &corpus.traces[i];
        let matches = match adapter::replay(&trace.bytes, spans) {
            Ok(json) => adapter::summary_tail(&json) == trace.oracle,
            Err(_) => false,
        };
        if !matches {
            wrong.get_or_insert(&trace.name);
        }
    }
    tally.check(wrong.is_none(), || {
        format!(
            "{}: replayed summary differs from the solo oracle",
            wrong.unwrap()
        )
    })
}

impl Replay {
    pub fn setup(seed: u64) -> Result<Replay, String> {
        Ok(Replay {
            corpus: Corpus::full()?,
            rng: Rng::new(seed),
        })
    }

    /// Same as [`Replay::setup`] from an already recorded corpus.
    #[cfg(test)]
    pub fn with_corpus(corpus: Corpus, seed: u64) -> Replay {
        Replay {
            corpus,
            rng: Rng::new(seed),
        }
    }

    #[cfg(test)]
    pub fn corpus_mut(&mut self) -> &mut Corpus {
        &mut self.corpus
    }
}

impl Workload for Replay {
    fn setup_tally(&mut self) -> Tally {
        Tally::default()
    }

    fn trace_bytes_per_event(&self) -> f64 {
        self.corpus.bytes_per_event()
    }

    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> (Phase, Vec<Spans>) {
        let mut spans = Spans::new(traced, origin);
        let mut tally = Tally::default();
        let mut rng = self.rng.split();
        let (mut pass_ms, mut decode_ms) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let order = rng.order(self.corpus.traces.len());
            let t = Instant::now();
            let open = spans.enter("core.decode_only");
            for &i in &order {
                // A trace that does not decode fails the replay below.
                let _ = adapter::decode_only(&self.corpus.traces[i].bytes, 4096);
            }
            spans.exit(open);
            decode_ms.push(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            let op = spans.enter("harness.op");
            replay_pass(&self.corpus, &order, &mut spans, &mut tally);
            spans.exit(op);
            pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = started.elapsed().as_secs_f64();
        let passes: Vec<(f64, f64)> = pass_ms.iter().map(|ms| (1.0, ms / 1e3)).collect();
        let passes_per_s = quiet_rate(&passes);
        let phase = Phase {
            ops_per_s: passes_per_s,
            events_per_s: passes_per_s * self.corpus.events() as f64,
            overhead_x: windowed_ratio(
                &(pass_ms.iter().copied().zip(decode_ms.iter().copied())).collect::<Vec<_>>(),
            ),
            op_ms: pass_ms,
            wall_s,
            threads: 1,
            tally,
        };
        (phase, vec![spans])
    }

    fn probes(&mut self, layers: &mut Layers, tally: &mut Tally) -> Result<(), String> {
        probes::checker(&self.corpus, layers)?;
        probes::serving(&self.corpus, layers, tally)
    }
}
