//! # swiper-weights — weight distributions for the empirical study
//!
//! Section 7 / Appendix C of the Swiper paper analyze the solver on the
//! stake distributions of four blockchains (Aptos, Tezos, Filecoin,
//! Algorand). The original snapshots were crawled from explorer endpoints
//! in 2023 and are not redistributable; this crate generates **calibrated
//! synthetic replicas** matching the published `(n, W)` of each system and
//! the qualitative skew of proof-of-stake distributions (a few whales plus
//! a heavy dust tail) — see "Substitutions" in `docs/ARCHITECTURE.md` for
//! the rationale.
//!
//! Also here: generic distribution generators ([`gen`]), the bootstrap
//! resampler used for the right-hand columns of Figures 1–5
//! ([`bootstrap`]), and inequality statistics ([`stats`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod chains;
pub mod epoch;
pub mod gen;
pub mod snapshot;
pub mod stats;

pub use chains::{Chain, CHAINS};
