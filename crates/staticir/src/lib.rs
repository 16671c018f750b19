//! # cypress-staticir — static analysis substrate (CFG, dominators, PCG)
//!
//! This crate is the stand-in for the LLVM-IR layer the SC'14 CYPRESS paper
//! builds on: it lowers MiniMPI functions to basic-block control-flow graphs,
//! computes dominator trees and natural loops with the classic algorithms the
//! paper cites, and constructs the program call graph (with SCC-based
//! recursion detection) that drives the inter-procedural CST construction.
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod cfg;
pub mod dom;

pub use callgraph::CallGraph;
pub use cfg::{lower_function, BasicBlock, BlockId, Cfg, CondKind, Invocation, Terminator};
pub use dom::{idom_generic, natural_loops, Dominators, NaturalLoop, PostDominators};
