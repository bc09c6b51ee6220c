//! Tool configuration and the evaluation-flavor matrix.
//!
//! [`ToolConfig`] says which layers instrument, what they annotate and
//! whether a run records its trace, and in which encoding. It has no
//! execution-strategy field: the detector has one shadow (tiered, on the
//! page arena) and live checking is inline on the calling thread.
//! [`ToolConfig::VANILLA`] is the only full-field literal; every
//! [`Flavor`] is a struct update over it. Nothing else configures a run:
//! the product reads no environment variable.

use crate::trace::TraceFormat;
use std::fmt;

/// Which instrumentation layers are active.
///
/// The flags mirror the paper's tool stack: TSan host-code
/// instrumentation, MUST's MPI interception and CuSan's CUDA
/// interception, which brings TypeART allocation tracking with it
/// (paper §V: "only CuSan uses TypeART"). [`Flavor`] provides the five
/// canonical combinations used in the evaluation; custom combinations are
/// possible for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolConfig {
    /// TSan host-access instrumentation (the compiler pass's load/store
    /// tracking of user host code).
    pub tsan: bool,
    /// MUST: annotate MPI calls, model non-blocking requests as fibers.
    pub must: bool,
    /// CuSan: annotate CUDA calls, model streams as fibers, and track
    /// allocations with TypeART (the extents its annotations and MUST's
    /// datatype checks read).
    pub cusan: bool,
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
    /// Record the run's event stream, and in which encoding: `None` (the
    /// default) records nothing; `Some` starts the per-rank
    /// [`crate::TraceSink`] with the context, before any event, in v2
    /// text (human-greppable) or v3 binary (~3× fewer bytes; see
    /// [`crate::binio`]). Readers sniff the format from the magic.
    pub record: Option<TraceFormat>,
}

impl ToolConfig {
    /// Everything off (the uninstrumented baseline).
    pub const VANILLA: ToolConfig = ToolConfig {
        tsan: false,
        must: false,
        cusan: false,
        track_access_ranges: false,
        bounded_tracking: false,
        record: None,
    };
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
                track_access_ranges: true,
                ..ToolConfig::VANILLA
            },
            Flavor::MustCusan => ToolConfig {
                tsan: true,
                must: true,
                cusan: true,
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
    use crate::{CusanCuda, ToolCtx};
    use kernel_ir::KernelRegistry;
    use sim_mem::{AddressSpace, DeviceId};
    use std::rc::Rc;
    use std::sync::Arc;

    #[test]
    fn vanilla_is_all_off() {
        let c = Flavor::Vanilla.config();
        assert!(!(c.tsan || c.must || c.cusan));
    }

    #[test]
    fn cusan_requires_typeart() {
        // Paper §V: "Only CuSan uses TypeART": an allocation is tracked
        // iff the CuSan layer is on.
        for f in Flavor::ALL {
            let tools = Rc::new(ToolCtx::new(0, f.config()));
            let mut cuda = CusanCuda::new(
                DeviceId(0),
                Arc::new(AddressSpace::new()),
                Arc::new(KernelRegistry::new()),
                Rc::clone(&tools),
            );
            cuda.malloc::<f64>(8).unwrap();
            let tracked = tools.typeart.borrow().live_allocs();
            assert_eq!(tracked == 1, f.config().cusan, "{f}: {tracked} tracked");
        }
    }

    #[test]
    fn must_and_cusan_always_run_with_tsan() {
        // Paper §V: "CuSan and MUST are always executed with TSan enabled".
        for f in [Flavor::Must, Flavor::Cusan, Flavor::MustCusan] {
            assert!(f.config().tsan);
        }
    }

    #[test]
    fn record_defaults_to_none() {
        // Recording is opt-in (`record: Some(format)`): no flavor pays
        // for a trace it did not ask for.
        for f in Flavor::ALL {
            assert_eq!(f.config().record, None, "{f}");
        }
        assert_eq!(ToolConfig::VANILLA.record, None);
    }

    #[test]
    fn display_names_match_figures() {
        assert_eq!(Flavor::MustCusan.to_string(), "MUST & CuSan");
        assert_eq!(Flavor::Tsan.to_string(), "TSan");
        assert_eq!(Flavor::ALL.len(), 5);
    }
}
