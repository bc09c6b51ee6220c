//! The six workloads. Each is set up from a seed, runs a timed phase
//! (with or without spans), and — in the traced run only — runs its
//! per-layer probes.

pub mod live;
pub mod replay;
pub mod serve;
pub mod suite;

use crate::spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one timed phase measured.
pub struct Phase {
    /// Operations attempted and failed, with the first few failures.
    pub tally: Tally,
    /// Time to verdict of each operation, in time order per load thread.
    pub op_ms: Vec<f64>,
    /// Operations per second of time spent on operations (per load
    /// thread, summed over threads): baseline twins are not counted.
    /// That of the quietest window of the run (`stats::quiet_rate`).
    pub ops_per_s: f64,
    /// Checker events processed per second of that same time, likewise.
    pub events_per_s: f64,
    /// Operation time over the time of the same work without the layer
    /// under test (see each workload for its denominator).
    pub overhead_x: f64,
    /// Wall time of the phase and the load threads it ran on.
    pub wall_s: f64,
    pub threads: usize,
}

/// Oracle bookkeeping shared by the workloads: failures are counted,
/// never panicked on, so a wrong output cannot lose the run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
        ok
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Per-layer metrics by name; anything a workload does not exercise is
/// simply absent and reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Oracle checks made during set-up (race twin found its race, …).
    fn setup_tally(&mut self) -> Tally;
    /// Recorded trace bytes per checker event of this workload's event
    /// stream, in the product's default encoding. A count.
    fn trace_bytes_per_event(&self) -> f64;
    /// Run operations for `seconds`; with `traced`, record spans.
    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> (Phase, Vec<Spans>);
    /// The per-layer ladders; only the traced run pays for them.
    fn probes(&mut self, layers: &mut Layers, tally: &mut Tally) -> Result<(), String>;
}

/// Everything before the first timed operation.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "live-jacobi" => Box::new(live::Live::setup(live::JACOBI, seed)?),
        "live-tealeaf" => Box::new(live::Live::setup(live::TEALEAF, seed)?),
        "replay-events" => Box::new(replay::Replay::setup(seed)?),
        "serve-fanin" => Box::new(serve::Fanin::setup(seed)?),
        "serve-spill" => Box::new(serve::Spill::setup(seed)?),
        "suite-verdicts" => Box::new(suite::Suite::setup(seed)?),
        other => {
            let known: Vec<&str> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {other:?}; one of {known:?}"));
        }
    })
}
