//! Tool configuration and the evaluation-flavor matrix.
//!
//! [`ToolConfig`] says which layers instrument, what they annotate and
//! how a recorded trace is encoded (text or binary). It has no
//! execution-strategy field: the detector has one shadow (tiered, on the
//! page arena) and live checking is inline on the calling thread.
//! [`ToolConfig::VANILLA`] is the only full-field literal; every
//! [`Flavor`] is a struct update over it. Nothing else configures a run:
//! the product reads no environment variable.

use crate::fault::FaultPlan;
use crate::trace::TraceFormat;
use std::fmt;

/// Which instrumentation layers are active.
///
/// The flags mirror the paper's tool stack: TSan host-code
/// instrumentation, MUST's MPI interception, CuSan's CUDA interception,
/// and TypeART allocation tracking. [`Flavor`] provides the five
/// canonical combinations used in the evaluation; custom combinations are
/// possible for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolConfig {
    /// TSan host-access instrumentation (the compiler pass's load/store
    /// tracking of user host code).
    pub tsan: bool,
    /// MUST: annotate MPI calls, model non-blocking requests as fibers.
    pub must: bool,
    /// CuSan: annotate CUDA calls, model streams as fibers.
    pub cusan: bool,
    /// TypeART: track allocations (required by CuSan for extents).
    pub typeart: bool,
    /// CuSan's memory-range annotations for kernel arguments and memory
    /// ops. Disabling this (with `cusan` on) is the §V-B ablation: "
    /// completely removing memory annotations but keeping the rest of our
    /// instrumentation brings the overhead down to almost vanilla".
    pub track_access_ranges: bool,
    /// Bounded access tracking (the §VI-D future-work optimization):
    /// when the compiler pass proves a kernel argument *tid-bounded*
    /// (every access indexes with the thread id), annotate only
    /// `grid size × element size` bytes instead of the whole allocation.
    /// Sound per the analysis; reduces tracked volume — and the false
    /// positives whole-allocation annotation can produce — for
    /// boundary-region kernels. Off by default to match the paper.
    pub bounded_tracking: bool,
    /// Deterministic fault injection (see [`crate::fault`]): at each
    /// intercepted CUDA/MPI call, the plan decides whether the call
    /// returns its typed error instead of running. Disabled by default.
    pub faults: FaultPlan,
    /// Shadow-memory page budget: once the detector owns this many shadow
    /// pages it degrades to counted best-effort mode — range annotations
    /// needing *new* pages are dropped and counted
    /// (`TsanStats::dropped_annotations`) instead of growing the shadow
    /// unboundedly. `None` (the default) is unlimited.
    pub shadow_page_budget: Option<usize>,
    /// Deadlock-detection timeout of the simulated MPI world, in
    /// milliseconds: a rank stuck this long in `mpi-sim`'s `SimBarrier`
    /// (world barrier or collective phase barrier) poisons the barrier
    /// and every waiter gets a typed timeout error instead of hanging,
    /// and a point-to-point wait (`Wait`, `Waitany`, blocking
    /// `Send`/`Recv`) that long without a match fails with the same
    /// error. `None` (the default) keeps the built-in 20 s.
    pub barrier_timeout_ms: Option<u64>,
    /// Encoding the per-rank [`crate::TraceSink`] writes when recording
    /// is on: v2 text (the default, human-greppable) or v3 binary (~3×
    /// fewer bytes; see [`crate::binio`]). Readers sniff the format from
    /// the magic, so this is producer-side only.
    pub trace_format: TraceFormat,
}

impl ToolConfig {
    /// Everything off (the uninstrumented baseline).
    pub const VANILLA: ToolConfig = ToolConfig {
        tsan: false,
        must: false,
        cusan: false,
        typeart: false,
        track_access_ranges: false,
        bounded_tracking: false,
        faults: FaultPlan::DISABLED,
        shadow_page_budget: None,
        barrier_timeout_ms: None,
        trace_format: TraceFormat::Text,
    };

    /// True if any TSan-backed layer is on.
    pub fn any_tsan(&self) -> bool {
        self.tsan || self.must || self.cusan
    }
}

/// The five tool combinations evaluated in the paper (Figs. 10 and 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Uninstrumented application.
    Vanilla,
    /// ThreadSanitizer only.
    Tsan,
    /// MUST (with TSan), checking (non-blocking) MPI communication.
    Must,
    /// CuSan (with TSan and TypeART).
    Cusan,
    /// MUST and CuSan combined — the full CUDA-aware MPI checker.
    MustCusan,
}

impl Flavor {
    /// All flavors, in the order the paper's figures list them.
    pub const ALL: [Flavor; 5] = [
        Flavor::Vanilla,
        Flavor::Tsan,
        Flavor::Must,
        Flavor::Cusan,
        Flavor::MustCusan,
    ];

    /// The instrumentation configuration for this flavor: the layer
    /// flags it switches on over [`ToolConfig::VANILLA`].
    pub fn config(self) -> ToolConfig {
        match self {
            Flavor::Vanilla => ToolConfig::VANILLA,
            Flavor::Tsan => ToolConfig {
                tsan: true,
                ..ToolConfig::VANILLA
            },
            Flavor::Must => ToolConfig {
                tsan: true,
                must: true,
                ..ToolConfig::VANILLA
            },
            Flavor::Cusan => ToolConfig {
                tsan: true,
                cusan: true,
                typeart: true,
                track_access_ranges: true,
                ..ToolConfig::VANILLA
            },
            Flavor::MustCusan => ToolConfig {
                tsan: true,
                must: true,
                cusan: true,
                typeart: true,
                track_access_ranges: true,
                ..ToolConfig::VANILLA
            },
        }
    }
}

impl From<Flavor> for ToolConfig {
    fn from(f: Flavor) -> ToolConfig {
        f.config()
    }
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flavor::Vanilla => "Vanilla",
            Flavor::Tsan => "TSan",
            Flavor::Must => "MUST",
            Flavor::Cusan => "CuSan",
            Flavor::MustCusan => "MUST & CuSan",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_is_all_off() {
        let c = Flavor::Vanilla.config();
        assert!(!c.any_tsan());
        assert!(!c.typeart);
    }

    #[test]
    fn cusan_requires_typeart() {
        // Paper §V: "Only CuSan uses TypeART".
        assert!(Flavor::Cusan.config().typeart);
        assert!(Flavor::MustCusan.config().typeart);
        assert!(!Flavor::Must.config().typeart);
        assert!(!Flavor::Tsan.config().typeart);
    }

    #[test]
    fn must_and_cusan_always_run_with_tsan() {
        // Paper §V: "CuSan and MUST are always executed with TSan enabled".
        for f in [Flavor::Must, Flavor::Cusan, Flavor::MustCusan] {
            assert!(f.config().tsan);
            assert!(f.config().any_tsan());
        }
    }

    #[test]
    fn faults_and_budget_default_off_everywhere() {
        // Fault injection and the shadow budget are opt-in: every flavor
        // (and VANILLA) ships with both disabled so behavior is
        // byte-identical to the pre-fault-injection stack.
        for f in Flavor::ALL {
            assert_eq!(f.config().faults, FaultPlan::DISABLED, "{f}");
            assert!(!f.config().faults.enabled(), "{f}");
            assert_eq!(f.config().shadow_page_budget, None, "{f}");
        }
        assert_eq!(ToolConfig::VANILLA.faults, FaultPlan::DISABLED);
        assert_eq!(ToolConfig::VANILLA.shadow_page_budget, None);
    }

    #[test]
    fn trace_format_defaults_to_text() {
        // Binary recording is opt-in (`trace_format: Binary`); the text
        // default keeps fresh recordings greppable and fixtures stable.
        for f in Flavor::ALL {
            assert_eq!(f.config().trace_format, TraceFormat::Text, "{f}");
        }
        assert_eq!(ToolConfig::VANILLA.trace_format, TraceFormat::Text);
    }

    #[test]
    fn display_names_match_figures() {
        assert_eq!(Flavor::MustCusan.to_string(), "MUST & CuSan");
        assert_eq!(Flavor::Tsan.to_string(), "TSan");
        assert_eq!(Flavor::ALL.len(), 5);
    }
}
