//! Workspace-native static analysis for the Iustitia repo.
//!
//! Two tiers run under `cargo run -p xtask -- lint`: the per-token
//! lints L001–L004, L006, L007 (see [`lints`]) and the interprocedural analyses
//! L008–L011 built on a hand-rolled parser and call graph (see
//! [`parser`], [`callgraph`], [`analyses`]). The library target exists
//! so the fixture integration tests can drive the parser and analyses
//! directly; the `xtask` binary is the CLI front end.

pub mod analyses;
pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod lints;
pub mod parser;
