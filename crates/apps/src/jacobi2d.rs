//! 2-D–decomposed Jacobi: [`crate::jacobi`]'s rank body on a `px × py`
//! rank grid.
//!
//! Each rank owns `nx / px` interior columns plus a halo column on each
//! side, so besides the full-width row exchanges (PROC_NULL at the global
//! top/bottom) it exchanges **columns** with its left and right
//! neighbours (PROC_NULL at the global left/right). Columns are not
//! contiguous, so each boundary column is packed into a contiguous
//! transfer buffer with a pitched `cudaMemcpy2D`, sent with
//! `MPI_Sendrecv` and unpacked on the other side the same way — the
//! workload pattern behind the §VI-A API extension and a natural fit for
//! the §VI-D bounded-tracking optimization. A `1 × py` grid is
//! row-decomposed Jacobi on `nx + 2` global columns, byte for byte.

use crate::jacobi::RankGrid;
use crate::{expect_ok, RaceMode};
use cusan::ToolConfig;
use must_rt::WorldOutcome;
use std::time::{Duration, Instant};

/// 2-D Jacobi configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jacobi2dConfig {
    /// Global interior columns; must divide by `px`.
    pub nx: u64,
    /// Global interior rows; must divide by `py`.
    pub ny: u64,
    /// Rank-grid columns.
    pub px: usize,
    /// Rank-grid rows.
    pub py: usize,
    /// Iterations.
    pub iters: u32,
    /// Synchronization-bug injection.
    pub race: RaceMode,
}

impl Default for Jacobi2dConfig {
    fn default() -> Self {
        Jacobi2dConfig {
            nx: 128,
            ny: 128,
            px: 2,
            py: 2,
            iters: 50,
            race: RaceMode::None,
        }
    }
}

impl Jacobi2dConfig {
    /// Total ranks (`px * py`).
    pub fn ranks(&self) -> usize {
        self.px * self.py
    }

    /// Interior columns per rank.
    pub fn cols_per_rank(&self) -> u64 {
        assert_eq!(self.nx % self.px as u64, 0, "nx must divide by px");
        self.nx / self.px as u64
    }

    /// Interior rows per rank.
    pub fn rows_per_rank(&self) -> u64 {
        assert_eq!(self.ny % self.py as u64, 0, "ny must divide by py");
        self.ny / self.py as u64
    }
}

/// Result of a 2-D Jacobi run.
#[derive(Debug)]
pub struct Jacobi2dRun {
    /// The configuration.
    pub config: Jacobi2dConfig,
    /// Global residual norm per iteration.
    pub norms: Vec<f64>,
    /// Wall-clock time of the world run.
    pub elapsed: Duration,
    /// Tool outcome.
    pub outcome: WorldOutcome<Vec<f64>>,
}

/// Run the 2-D Jacobi solver under a tool configuration. Expects every
/// rank to succeed.
pub fn run_jacobi2d(cfg: &Jacobi2dConfig, tools: impl Into<ToolConfig>) -> Jacobi2dRun {
    let grid = RankGrid {
        w: cfg.cols_per_rank() + 2,
        rows: cfg.rows_per_rank(),
        px: cfg.px,
        py: cfg.py,
        iters: cfg.iters,
        race: cfg.race,
    };
    let start = Instant::now();
    let outcome = grid.run(tools.into(), None);
    let elapsed = start.elapsed();
    let outcome = expect_ok(outcome);
    Jacobi2dRun {
        config: *cfg,
        norms: outcome.results[0].clone(),
        elapsed,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_geometry() {
        let c = Jacobi2dConfig {
            nx: 64,
            ny: 32,
            px: 4,
            py: 2,
            ..Jacobi2dConfig::default()
        };
        assert_eq!(c.ranks(), 8);
        assert_eq!(c.cols_per_rank(), 16);
        assert_eq!(c.rows_per_rank(), 16);
    }

    #[test]
    #[should_panic(expected = "nx must divide")]
    fn indivisible_columns_panic() {
        let c = Jacobi2dConfig {
            nx: 10,
            px: 3,
            ..Jacobi2dConfig::default()
        };
        let _ = c.cols_per_rank();
    }
}
