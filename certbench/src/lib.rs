//! The certifier benchmark: three workloads that time the ITNE certifier
//! end to end, and a traced replay that times it layer by layer from
//! outside, through the public functions of each layer.
//!
//! * [`oneshot`] — `fc-refine` (branch-and-bound heavy) and `conv-lp`
//!   (large sparse LPs): one `certify_global` on a pinned Table I net.
//! * [`sweep`] — `serve-sweep`: a closed-loop client of the resident
//!   `CertEngine` with weight updates between queries.
//! * [`replay`] — Algorithm 1 replayed serially with a span per layer call.
//!
//! See `README.md` in this package for the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod oneshot;
pub mod pinned;
pub mod replay;
pub mod report;
pub mod sweep;
pub mod trace;
