//! End-to-end campaign benchmark of the necofuzz product path: the
//! workloads, the untraced run that gives the end-to-end metrics, and
//! the traced run that gives the per-layer ones.

pub mod host;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
