//! End-to-end and per-layer benchmark of gridagg.
//!
//! Three workloads drive the library through its public API only:
//! `sim-scale` (one 65,536-member simulated run), `fig-sweep` (the
//! section 7 figure grid) and `cluster-loopback` (10,000 members over
//! loopback UDP). See `README.md` in this directory for what each
//! measures and why.

pub mod alloc;
pub mod assemble;
pub mod cluster;
pub mod metrics;
pub mod probe;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod sim;
pub mod stats;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
