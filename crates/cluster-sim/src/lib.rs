//! # hcl-cluster-sim — a deterministic model of the Ares testbed
//!
//! The paper's evaluation runs on 64 nodes × 40 ranks with RoCE 40GbE NICs —
//! hardware and scale we cannot reproduce directly (DESIGN.md substitution
//! #3). This crate is a **discrete-event simulator with virtual time** that
//! models the cluster from first principles and replays the exact protocol
//! op sequences of BCL (client-side: CAS + write + CAS, with retries and
//! memory-region lock serialization) and HCL (one RPC send + NIC-core
//! handler + client-pull response, with the hybrid local bypass).
//!
//! The pieces:
//!
//! * [`engine`] — event calendar, multi-server FIFO [`engine::Resource`]s,
//!   closed-loop clients, per-second metric buckets (NIC-core busy time,
//!   packets, bytes, memory);
//! * [`spec`] — the [`spec::ClusterSpec`] constants calibrated to the
//!   numbers the paper states for Ares (4.5 GB/s inter-node point-to-point,
//!   65 GB/s STREAM, 40 ranks/node);
//! * [`protocol`] — per-operation phase builders for BCL and HCL (insert,
//!   find, queue push/pop, ordered variants);
//! * [`scenarios`] — one driver per figure: Fig. 1 (motivating breakdown),
//!   Fig. 4 (profiling time series), Fig. 5 (hybrid bandwidth sweep),
//!   Fig. 6 (DDS scaling), Fig. 7 (ISx + Meraculous end-to-end).
//!
//! Everything is deterministic: a seeded xorshift RNG drives collision
//! retries, so repeated runs regenerate identical tables.

pub mod engine;
pub mod protocol;
pub mod rng;
pub mod scenarios;
pub mod spec;

pub use engine::{Engine, Metrics, Phase, Resource, ResourceId};
pub use rng::SimRng;
pub use spec::ClusterSpec;
