//! # swiper-crypto — secret sharing and simulated threshold cryptography
//!
//! The Swiper paper converts nominal threshold primitives into weighted ones
//! by handing each party `t_i` *virtual users* of the nominal scheme
//! (Sections 4.1–4.3). This crate provides those nominal primitives:
//!
//! * [`hash`] — a 256-bit hash built on the ChaCha20 permutation, plus
//!   Merkle trees with inclusion proofs ([`merkle`]).
//! * [`shamir`] — Shamir secret sharing over `F_{2^61-1}` and its weighted
//!   wrapper driven by a ticket assignment.
//! * [`vss`] — verifiable secret sharing with per-share hash commitments.
//! * [`thresh`] — *simulated* threshold signatures and threshold
//!   encryption: shares combine linearly over the field exactly like BLS
//!   partials combine in the exponent, preserving the interface, the
//!   Lagrange aggregation cost and the uniqueness property the paper's
//!   randomness beacons rely on.
//! * [`multisig`] — aggregatable multi-signatures with signer bitmaps
//!   (Section 6.2's practical alternative to threshold signatures).
//! * [`access`] — threshold / weighted-threshold / blunt access structures
//!   (Definition 4.1) and the Theorem 4.2 construction.
//!
//! ## Security disclaimer (deliberate substitution)
//!
//! The signature/encryption schemes here are **simulations**: they are
//! algebraically faithful (linear share combination, deterministic unique
//! signatures, partial-verification equations) but are trivially forgeable
//! by an adversary that can divide field elements. The paper's results are
//! about *how weights are reduced and shares are allocated*, not about the
//! underlying hardness assumptions; see "Substitutions" in
//! `docs/ARCHITECTURE.md` for the rationale. Do not use this crate for
//! real cryptography.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
mod error;
pub mod hash;
pub mod merkle;
pub mod multisig;
pub mod shamir;
pub mod thresh;
pub mod vss;

pub use error::CryptoError;
pub use hash::{Digest, Hasher};
pub use merkle::{MerkleProof, MerkleTree};
