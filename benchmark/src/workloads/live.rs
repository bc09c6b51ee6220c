//! `live-jacobi` and `live-tealeaf`: a mini-app run live under the full
//! MUST & CuSan stack, in interleaved pairs with its Vanilla twin.
//!
//! One operation is one checked run. The twin is the denominator of
//! `overhead_x` (paper Fig. 10) and is not counted as an operation.
//! Jacobi annotates few, huge ranges (shadow walks are nearly all the
//! tool time, the paper's Fig. 12 regime); TeaLeaf emits many events
//! over small ranges with one fiber per MPI request (clock work,
//! interception and MUST lead). A shadow-only win should move the first
//! and not the second.

use super::{Layers, Phase, Tally, Workload};
use crate::adapter::{self, AppConfig, LiveOutcome, Tools};
use crate::corpus::Corpus;
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, quiet_rate, windowed_ratio};
use std::time::Instant;

pub struct LiveSpec {
    pub name: &'static str,
    pub app: AppConfig,
}

/// 1024×512 keeps the paper's regime (≈190 KiB per range event); 10
/// iterations instead of the 50 first sized keep a pair near 80 ms, so
/// a run holds some two hundred samples and every window several.
pub const JACOBI: LiveSpec = LiveSpec {
    name: "jacobi-1024x512x10",
    app: AppConfig::Jacobi {
        nx: 1024,
        ny: 512,
        iters: 10,
    },
};

pub const TEALEAF: LiveSpec = LiveSpec {
    name: "tealeaf-64x64x4",
    app: AppConfig::TeaLeaf {
        nx: 64,
        ny: 64,
        steps: 4,
    },
};

pub struct Live {
    app: AppConfig,
    seed: u64,
    /// The Vanilla run's numerical result: every checked run must
    /// compute exactly this.
    expected_bits: [u64; 2],
    /// Both rank traces of one recorded checked run.
    corpus: Corpus,
    tool_mem_x: f64,
    tally: Tally,
}

fn timed_run(app: AppConfig, tools: Tools) -> (f64, LiveOutcome) {
    let t = Instant::now();
    let out = adapter::run_app(app, tools, false, false);
    (t.elapsed().as_secs_f64() * 1e3, out)
}

impl Live {
    pub fn setup(spec: LiveSpec, seed: u64) -> Result<Live, String> {
        let app = spec.app;
        let mut tally = Tally::default();
        // The checker must be live: the same app with the paper's
        // Fig. 4 bug injected has to race.
        let twin = adapter::run_app(app, Tools::MustCusan, true, false);
        tally.check(twin.races >= 1, || {
            format!("{}: skip-sync twin reported no race", spec.name)
        });
        let vanilla = adapter::run_app(app, Tools::Vanilla, false, false);
        let checked = adapter::run_app(app, Tools::MustCusan, false, false);
        tally.check(checked.races == 0, || {
            format!(
                "{}: correct app reported {} races",
                spec.name, checked.races
            )
        });
        tally.check(checked.result_bits == vanilla.result_bits, || {
            format!("{}: checked and Vanilla results differ", spec.name)
        });
        Ok(Live {
            app,
            seed,
            expected_bits: vanilla.result_bits,
            corpus: Corpus::of_app(spec.name, app)?,
            tool_mem_x: checked.tool_bytes as f64 / checked.app_bytes.max(1) as f64,
            tally,
        })
    }
}

impl Workload for Live {
    fn setup_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    fn trace_bytes_per_event(&self) -> f64 {
        self.corpus.bytes_per_event()
    }

    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> (Phase, Vec<Spans>) {
        let mut spans = Spans::new(traced, origin);
        let mut tally = Tally::default();
        let (mut checked_ms, mut vanilla_ms) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut pair = self.seed;
        while started.elapsed().as_secs_f64() < seconds {
            // Alternate which side of the pair runs first.
            for side in 0..2 {
                if (pair + side).is_multiple_of(2) {
                    let open = spans.enter("apps.run_vanilla");
                    let (ms, out) = timed_run(self.app, Tools::Vanilla);
                    spans.exit(open);
                    vanilla_ms.push(ms);
                    std::hint::black_box(out);
                } else {
                    let op = spans.enter("harness.op");
                    let open = spans.enter("apps.run_checked");
                    let (ms, out) = timed_run(self.app, Tools::MustCusan);
                    spans.exit(open);
                    checked_ms.push(ms);
                    tally.check(
                        out.races == 0 && out.result_bits == self.expected_bits,
                        || {
                            format!(
                                "checked run: {} races, bits {:?}",
                                out.races, out.result_bits
                            )
                        },
                    );
                    spans.exit(op);
                }
            }
            pair += 1;
        }
        let wall_s = started.elapsed().as_secs_f64();
        let runs: Vec<(f64, f64)> = checked_ms.iter().map(|ms| (1.0, ms / 1e3)).collect();
        let runs_per_s = quiet_rate(&runs);
        let phase = Phase {
            ops_per_s: runs_per_s,
            events_per_s: runs_per_s * self.corpus.events() as f64,
            overhead_x: windowed_ratio(
                &(checked_ms.iter().copied().zip(vanilla_ms.iter().copied())).collect::<Vec<_>>(),
            ),
            op_ms: checked_ms,
            wall_s,
            threads: 1,
            tally,
        };
        (phase, vec![spans])
    }

    /// The flavor ladder: every rung is the same app under one more (or
    /// one less) piece of the stack, run round-robin so drift hits all
    /// rungs alike.
    fn probes(&mut self, layers: &mut Layers, _tally: &mut Tally) -> Result<(), String> {
        const ROUNDS: usize = 7;
        let rungs = [
            Tools::Vanilla,
            Tools::Tsan,
            Tools::Must,
            Tools::Cusan,
            Tools::MustCusan,
            Tools::NoRanges,
            Tools::Bounded,
        ];
        let mut ms = vec![Vec::new(); rungs.len()];
        let mut recorded_ms = Vec::new();
        let mut tracked = [0u64; 2];
        for _ in 0..ROUNDS {
            for (i, &tools) in rungs.iter().enumerate() {
                let (t, out) = timed_run(self.app, tools);
                ms[i].push(t);
                match tools {
                    Tools::MustCusan => tracked[0] = out.tracked_bytes,
                    Tools::Bounded => tracked[1] = out.tracked_bytes,
                    _ => {}
                }
            }
            let t = Instant::now();
            std::hint::black_box(adapter::run_app(self.app, Tools::MustCusan, false, true));
            recorded_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let m: Vec<f64> = ms.iter().map(|v| median(v)).collect();
        let (vanilla, tsan, must, cusan, full, no_ranges) = (m[0], m[1], m[2], m[3], m[4], m[5]);
        layers.insert("substrate.vanilla_ms", vanilla);
        layers.insert("flavor.tsan_ms", tsan);
        layers.insert("flavor.must_ms", must);
        layers.insert("flavor.cusan_ms", cusan);
        layers.insert("flavor.must_cusan_ms", full);
        layers.insert("must.overhead_ms", must - tsan);
        layers.insert("core.no_ranges_ms", no_ranges);
        layers.insert(
            "tsan.shadow.live_share",
            (full - no_ranges) / (full - vanilla),
        );
        layers.insert("core.trace.record_overhead_x", median(&recorded_ms) / full);
        layers.insert(
            "kernel-ir.bounded_tracked_share",
            tracked[1] as f64 / tracked[0].max(1) as f64,
        );
        layers.insert("live.tool_mem_x", self.tool_mem_x);
        // What the tool costs live beyond applying its own events: on
        // one hardware thread the ranks take turns, so the run's wall
        // time contains the apply time of both ranks' events.
        let apply_ms = probes::apply_ms(&self.corpus)?;
        layers.insert("core.emit_ms", (full - vanilla) - apply_ms);
        probes::checker(&self.corpus, layers)
    }
}
