//! # cypress-runtime — instrumented SPMD execution substrate
//!
//! The dynamic half of the tracing pipeline: a deterministic per-rank
//! interpreter of MiniMPI programs that emits the same event stream the
//! paper's PMPI-based library would observe — `PMPI_COMM_Structure`-style
//! enter/exit markers around every (surviving) control structure, plus one
//! [`cypress_trace::MpiRecord`] per MPI invocation, with request handles
//! mapped to posting-operation GIDs.
//!
//! Ranks execute independently (MiniMPI control flow never depends on
//! message payloads); message matching, wildcard resolution, and global
//! timing live in `cypress-simmpi`.

pub mod driver;
pub mod ingest;
pub mod interp;
mod resolved;
pub mod ring;
pub mod sched;

pub use driver::{run_rank_with_sink, trace_program, trace_program_parallel, trace_rank};
pub use ingest::{
    run_ranks_pipelined, IngestMsg, RingSink, DEFAULT_BATCH_EVENTS, DEFAULT_RING_CAPACITY,
};
pub use interp::{has_op, well_nested, EventSink, Interp, InterpConfig, RunResult, RuntimeError};
pub use ring::{ring, Consumer, Producer};
pub use sched::{run_ranks, WORKER_STACK_BYTES};
