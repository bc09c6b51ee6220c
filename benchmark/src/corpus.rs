//! The recorded trace corpus and its oracle.
//!
//! Traces are recorded at set-up with whatever encoding the product
//! defaults to, and each one is replayed once with the product's
//! reference `solo_summary`; every summary a workload later obtains —
//! replayed, served, spilled and restored — must equal that one byte for
//! byte.

use crate::adapter::{self, AppConfig, Tools};

pub struct Trace {
    pub name: String,
    pub bytes: Vec<u8>,
    pub events: u64,
    pub labels: u64,
    /// The solo replay's summary JSON without its session-id field.
    pub oracle: String,
}

#[derive(Default)]
pub struct Corpus {
    pub traces: Vec<Trace>,
}

/// The three app recordings of the full corpus: many small-range events
/// (TeaLeaf, two sizes) and large-range events (Jacobi), but no
/// 1024×512 Jacobi, so checking does not drown decode and serving.
pub const CORPUS_APPS: [(&str, AppConfig); 3] = [
    (
        "tealeaf-64x64x4",
        AppConfig::TeaLeaf {
            nx: 64,
            ny: 64,
            steps: 4,
        },
    ),
    (
        "tealeaf-32x32x2",
        AppConfig::TeaLeaf {
            nx: 32,
            ny: 32,
            steps: 2,
        },
    ),
    (
        "jacobi-256x128x8",
        AppConfig::Jacobi {
            nx: 256,
            ny: 128,
            iters: 8,
        },
    ),
];

/// Programs whose recorded event stream depends on thread timing by
/// construction (a free racing an in-flight send; `Waitany` taking
/// whichever request finishes first). They stay in `suite-verdicts`,
/// where only the verdict counts, but not in the recorded corpus, whose
/// bytes and counts must repeat exactly.
const TIMING_DEPENDENT: [&str; 3] = [
    "cuda-to-mpi/free_during_isend_nok",
    "extensions/waitany_then_kernel",
    "extensions/waitany_wrong_buffer_nok",
];

impl Corpus {
    fn push(&mut self, name: String, bytes: Vec<u8>) -> Result<(), String> {
        let decoded = adapter::decode(&bytes).map_err(|e| format!("{name}: {e}"))?;
        let oracle = adapter::solo_json(&bytes).map_err(|e| format!("{name}: {e}"))?;
        self.traces.push(Trace {
            events: decoded.events().count() as u64,
            labels: adapter::labels_of(&decoded).len() as u64,
            oracle: adapter::summary_tail(&oracle).to_string(),
            name,
            bytes,
        });
        Ok(())
    }

    /// Both rank traces of one app run under the full stack.
    pub fn of_app(name: &str, app: AppConfig) -> Result<Corpus, String> {
        let mut corpus = Corpus::default();
        corpus.add_app(name, app)?;
        Ok(corpus)
    }

    fn add_app(&mut self, name: &str, app: AppConfig) -> Result<(), String> {
        let run = adapter::run_app(app, Tools::MustCusan, false, true);
        for (rank, bytes) in run.traces.into_iter().enumerate() {
            self.push(format!("{name}-r{rank}"), bytes)?;
        }
        Ok(())
    }

    /// The rank traces of the testsuite programs (all but
    /// [`TIMING_DEPENDENT`]).
    pub fn of_programs() -> Result<Corpus, String> {
        let mut corpus = Corpus::default();
        corpus.add_programs()?;
        Ok(corpus)
    }

    fn add_programs(&mut self) -> Result<(), String> {
        for case in adapter::programs() {
            if TIMING_DEPENDENT.contains(&case.name) {
                continue;
            }
            for (rank, bytes) in adapter::record_program(&case).into_iter().enumerate() {
                self.push(format!("{}-r{rank}", case.name), bytes)?;
            }
        }
        Ok(())
    }

    /// The full corpus: [`CORPUS_APPS`] plus the testsuite traces.
    pub fn full() -> Result<Corpus, String> {
        let mut corpus = Corpus::default();
        for (name, app) in CORPUS_APPS {
            corpus.add_app(name, app)?;
        }
        corpus.add_programs()?;
        Ok(corpus)
    }

    pub fn events(&self) -> u64 {
        self.traces.iter().map(|t| t.events).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.traces.iter().map(|t| t.bytes.len() as u64).sum()
    }

    pub fn bytes_per_event(&self) -> f64 {
        self.bytes() as f64 / self.events().max(1) as f64
    }
}
