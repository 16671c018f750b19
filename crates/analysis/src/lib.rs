//! Compressed-domain analysis engine: prediction and diagnosis on the CTT.
//!
//! The paper's endgame is trace-driven prediction (§V, Fig. 21): feed the
//! compressed trace to SIM-MPI and predict the run. Until now that meant
//! decompress-then-analyze — O(events) work that throws away the structure
//! the compressor preserved. This crate runs the analyses **on the CTT**:
//!
//! * **LogGP replay prediction** ([`analyze_ctts`]): the CTT's loops and
//!   branches are lowered into a compact [`cypress_simmpi::Schedule`]
//!   ([`lower_schedule`]) — repeated loop bodies are replayed once and
//!   steady-state trips applied arithmetically by the simulator — so
//!   prediction cost is O(|CTT| + distinct behavior), not O(events), while
//!   remaining *exactly* equal to the decompress-then-simulate oracle
//!   ([`analyze_by_decompression`]).
//! * **Late-sender / wait-state detection**: the simulator's replayed match
//!   graph charges every `sender_ready − recv_post` gap to the receive's
//!   call site ([`cypress_simmpi::WaitReport`]); [`AnalyzeReport`] renders
//!   per-rank wait time and the top offending call paths with CST
//!   provenance.
//! * **Time-window restriction** ([`cypress_query::Window`]): replay
//!   restricted to ops whose reconstructed start time falls in `[start,
//!   end)`. Windows force expansion (timestamps require the replay clock)
//!   and may sever communication pairs at the boundary — a severed
//!   rendezvous or collective reports as a simulation error rather than a
//!   silently wrong prediction.
//! * **Cross-job diffing** ([`DiffReport`]): two jobs' query results and
//!   predictions side by side with signed deltas — "did this comm pattern
//!   change between versions?".
#![forbid(unsafe_code)]

mod diff;
mod lower;
mod predict;
mod wire;

pub use diff::{DiffReport, JobSummary};
pub use lower::{lower_schedule, replay_to_simop, LoweringStats};
pub use predict::{analyze_by_decompression, analyze_ctts, windowed_ops};
pub use wire::ANALYSIS_WIRE_VERSION;

use cypress_query::Window;
use cypress_simmpi::{SimError, SimResult, WaitReport};
use std::fmt;

/// Analysis knobs shipped to `queryd` as a self-versioned blob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Restrict replay to ops starting within `[start_ns, end_ns)`.
    pub window: Option<Window>,
}

/// How the analysis spent its effort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Top-level loops lowered symbolically (trip counts arithmetic).
    pub symbolic_loops: u32,
    /// Top-level loops unrolled after a failed uniformity proof.
    pub unrolled_loops: u32,
    /// Recursion forced whole-job decompression.
    pub flattened: bool,
    /// A window forced O(events) replay-clock filtering.
    pub windowed: bool,
    /// Ops actually fed through the simulator.
    pub fed_ops: u64,
    /// Ops the job logically contains (fed + extrapolated).
    pub logical_ops: u64,
    /// Loop trips applied arithmetically instead of simulated.
    pub extrapolated_trips: u64,
}

/// The combined answer of one analysis pass: prediction + wait states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    pub nprocs: u32,
    /// Measured job makespan: max per-rank traced application time (ns).
    pub measured_app_ns: u64,
    /// LogGP-predicted run (replay of the compressed trace).
    pub predicted: SimResult,
    /// Late-sender wait states detected on the replayed match graph.
    pub waits: WaitReport,
    pub stats: AnalysisStats,
}

impl AnalyzeReport {
    /// Signed prediction error vs the measured makespan, in percent.
    pub fn error_pct(&self) -> f64 {
        if self.measured_app_ns == 0 {
            return 0.0;
        }
        (self.predicted.total as f64 - self.measured_app_ns as f64) / self.measured_app_ns as f64
            * 100.0
    }
}

/// Analysis failures: structurally invalid input or simulation errors
/// (deadlock, mismatched communication — including pairs severed by a
/// window boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    Invalid(String),
    Sim(SimError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Invalid(e) => write!(f, "invalid analysis input: {e}"),
            AnalysisError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for AnalysisError {
    fn from(e: SimError) -> Self {
        AnalysisError::Sim(e)
    }
}
