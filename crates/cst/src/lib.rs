//! # cypress-cst — Communication Structure Tree construction (paper §III)
//!
//! The static half of CYPRESS: build each procedure's intermediate CST from
//! its control-flow graph (Algorithm 1, [`build_cfg`]; a direct-AST oracle
//! lives in [`build_ast`]), combine them over the program call graph into a
//! whole-program CST with recursion converted to pseudo loops (Algorithm 2,
//! [`interproc`]), prune non-MPI leaves, assign pre-order GIDs, and emit the
//! [`sitemap::SiteMap`] that stands in for the paper's inserted
//! `PMPI_COMM_Structure` instrumentation.
//!
//! ```
//! use cypress_minilang::{parse, check_program};
//! use cypress_cst::analyze_program;
//!
//! let prog = parse(r#"
//!     fn main() {
//!         for i in 0..10 {
//!             if rank() % 2 == 0 { send(rank() + 1, 4, 0); }
//!             else { recv(rank() - 1, 4, 0); }
//!         }
//!     }
//! "#).unwrap();
//! check_program(&prog).unwrap();
//! let info = analyze_program(&prog);
//! assert_eq!(
//!     info.cst.to_compact_string(),
//!     "Root(Loop(BrT(Mpi:MPI_Send) BrE(Mpi:MPI_Recv)))"
//! );
//! ```
#![forbid(unsafe_code)]

pub mod build_ast;
pub mod build_cfg;
pub mod interproc;
pub mod sitemap;
pub mod tree;

pub use build_ast::build_intra_ast;
pub use build_cfg::build_intra_cfg;
pub use interproc::{analyze_program, analyze_program_with, IntraBuilder, StaticInfo};
pub use sitemap::{CallAction, PathId, SiteMap, ROOT_PATH};
pub use tree::{mpi_op_of_builtin, Arm, Cst, Gid, Vertex, VertexKind};
