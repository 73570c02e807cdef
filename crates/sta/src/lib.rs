//! Static timing analysis on the simultaneous-switching delay model
//! (Section 4 of the paper).
//!
//! STA propagates min-max **timing windows** — arrival and transition
//! times for rising and falling transitions — forward from primary inputs
//! (and required times backward from primary outputs) without considering
//! any specific vector. The key machinery:
//!
//! * [`window`] — the eight-field per-line timing record of Figure 7, plus
//!   participation states that make ITR a refinement of STA,
//! * [`propagate`] — the Section 4.2 window calculation with worst-case
//!   corner identification: bi-tonic delay peaks (`T*`, Figure 9),
//!   `SK_{t,min}` transition-time optima and simultaneous-switching
//!   minima,
//! * [`stage`] — mapping netlist gates onto characterized cells (AND/OR
//!   decompose into NAND/NOR + INV),
//! * [`engine`] — the analyzer: [`Sta::run`] is one full forward pass
//!   under all-`May` participation, [`Sta::run_under`] the same pass
//!   under a refined participation map,
//! * [`incremental`] — the dirty-cone engine behind ITR:
//!   participation-diff worklists and bit-exact gate-evaluation
//!   memoization on top of the same evaluator and pass,
//! * [`backward`] — required times and the delay-error check,
//! * [`report`] — endpoint summaries and critical-path extraction.
//!
//! Every forward analysis runs on one crate-internal resolved-gate arena
//! (cells, per-net loads and topological levels resolved once per
//! circuit) with one gate evaluator — the two-stage composition through
//! a composite gate's internal inverter — and one full pass, inline at
//! one thread and level-parallel above one.
//!
//! # Example
//!
//! ```no_run
//! use ssdm_cells::{CellLibrary, CharConfig};
//! use ssdm_netlist::suite;
//! use ssdm_sta::{ModelKind, Sta, StaConfig};
//!
//! let lib = CellLibrary::characterize_standard(&CharConfig::fast())?;
//! let c17 = suite::c17();
//! let proposed = Sta::new(&c17, &lib, StaConfig::default()).run()?;
//! let baseline = Sta::new(
//!     &c17,
//!     &lib,
//!     StaConfig::default().with_model(ModelKind::PinToPin),
//! )
//! .run()?;
//! // Table 2: pin-to-pin overestimates the minimum delay.
//! assert!(proposed.endpoint_min_delay(&c17) <= baseline.endpoint_min_delay(&c17));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arena;
pub mod backward;
pub mod engine;
pub mod error;
pub mod incremental;
pub mod propagate;
pub mod report;
pub mod stage;
pub mod window;

pub use backward::{find_violations, required_times, violates, Required};
pub use incremental::{
    unconstrained_participation, IncrementalSta, IncrementalStats, ParticipationMap,
};

pub use engine::{Sta, StaConfig, StaResult, TimingView};
pub use error::StaError;
pub use propagate::{stage_windows_traced, CornerChoice, DelaysUsed, ModelKind, StageProvenance};
pub use report::{critical_path, slowest_endpoint, timing_report, PathStep};
pub use stage::{stage_plan, StagePlan};
pub use window::{EdgeTiming, LineTiming, Participation, PinWindow};

#[cfg(test)]
pub(crate) mod testlib {
    //! Shared, once-per-binary characterized library for tests.
    use ssdm_cells::{CellLibrary, CharConfig};
    use std::sync::OnceLock;

    pub fn library() -> &'static CellLibrary {
        static LIB: OnceLock<CellLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            CellLibrary::characterize_standard(&CharConfig::fast()).expect("characterization")
        })
    }
}
