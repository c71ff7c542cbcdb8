//! Verifiable secret sharing with per-share hash commitments.
//!
//! The paper obtains weighted VSS (Table 1, "Verifiable Secret Sharing")
//! by applying Weight Restriction and dealing to virtual users. The
//! underlying nominal VSS here commits to every share with a salted hash:
//! each holder can check its own share against the public commitment
//! vector, and reconstruction rejects openings that do not match.
//!
//! This replaces the discrete-log (Feldman/Pedersen) commitments of the
//! referenced constructions — which need group arithmetic unavailable
//! offline — while preserving the protocol-visible interface: a public
//! commitment broadcast by the dealer, per-share verification, and
//! dealer-equivocation detection at reconstruction (see "Substitutions" in
//! `docs/ARCHITECTURE.md`).

use rand::Rng;
use serde::{Deserialize, Serialize};
use swiper_field::F61;

use crate::error::CryptoError;
use crate::hash::{digest_parts, Digest};
use crate::shamir::{ShamirScheme, Share};

/// Public commitment to a dealt share vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Commitment {
    /// `per_share[i]` commits to share `i`.
    per_share: Vec<Digest>,
}

impl Commitment {
    /// Number of committed shares.
    pub fn len(&self) -> usize {
        self.per_share.len()
    }

    /// Whether the commitment is empty.
    pub fn is_empty(&self) -> bool {
        self.per_share.is_empty()
    }

    /// Digest binding the whole commitment (what the dealer broadcasts).
    pub fn root(&self) -> Digest {
        let parts: Vec<&[u8]> =
            self.per_share.iter().map(|d| d.as_bytes().as_slice()).collect();
        digest_parts(&parts)
    }
}

/// A share together with its opening salt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifiableShare {
    /// The underlying Shamir share.
    pub share: Share,
    /// The salt proving the commitment opening.
    pub salt: u64,
}

fn commit_one(share: &Share, salt: u64) -> Digest {
    digest_parts(&[
        b"swiper.vss.share",
        &share.index.to_le_bytes(),
        &share.value.value().to_le_bytes(),
        &salt.to_le_bytes(),
    ])
}

/// Dealer side: shares a secret and publishes a commitment.
///
/// Returns the public [`Commitment`] and the private per-share openings.
pub fn deal<R: Rng + ?Sized>(
    scheme: &ShamirScheme,
    secret: F61,
    rng: &mut R,
) -> (Commitment, Vec<VerifiableShare>) {
    let shares = scheme.share(secret, rng);
    let opened: Vec<VerifiableShare> = shares
        .into_iter()
        .map(|share| VerifiableShare { share, salt: rng.random::<u64>() })
        .collect();
    let per_share = opened.iter().map(|vs| commit_one(&vs.share, vs.salt)).collect();
    (Commitment { per_share }, opened)
}

/// Holder side: checks a received share against the public commitment.
pub fn verify_share(commitment: &Commitment, vs: &VerifiableShare) -> bool {
    let idx = vs.share.index as usize;
    match commitment.per_share.get(idx) {
        Some(expected) => commit_one(&vs.share, vs.salt) == *expected,
        None => false,
    }
}

/// Reconstruction: verifies every opening against the commitment, then
/// performs consistency-checked Shamir reconstruction.
///
/// # Errors
///
/// * [`CryptoError::VerificationFailed`] when an opening does not match the
///   commitment.
/// * Errors from [`ShamirScheme::reconstruct_checked`] otherwise.
pub fn reconstruct(
    scheme: &ShamirScheme,
    commitment: &Commitment,
    openings: &[VerifiableShare],
) -> Result<F61, CryptoError> {
    for vs in openings {
        if !verify_share(commitment, vs) {
            return Err(CryptoError::VerificationFailed);
        }
    }
    let shares: Vec<Share> = openings.iter().map(|vs| vs.share).collect();
    scheme.reconstruct_checked(&shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_field::Field;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn deal_verify_reconstruct() {
        let scheme = ShamirScheme::new(3, 7).unwrap();
        let secret = F61::new(987_654_321);
        let (com, opened) = deal(&scheme, secret, &mut rng());
        assert_eq!(com.len(), 7);
        for vs in &opened {
            assert!(verify_share(&com, vs));
        }
        assert_eq!(reconstruct(&scheme, &com, &opened[1..4]).unwrap(), secret);
    }

    #[test]
    fn tampered_share_detected_by_commitment() {
        let scheme = ShamirScheme::new(2, 5).unwrap();
        let (com, mut opened) = deal(&scheme, F61::new(5), &mut rng());
        opened[0].share.value = opened[0].share.value + F61::ONE;
        assert!(!verify_share(&com, &opened[0]));
        assert!(matches!(
            reconstruct(&scheme, &com, &opened[..2]),
            Err(CryptoError::VerificationFailed)
        ));
    }

    #[test]
    fn wrong_salt_fails() {
        let scheme = ShamirScheme::new(2, 4).unwrap();
        let (com, mut opened) = deal(&scheme, F61::new(5), &mut rng());
        opened[1].salt ^= 1;
        assert!(!verify_share(&com, &opened[1]));
    }

    #[test]
    fn commitment_root_is_stable_and_binding() {
        let scheme = ShamirScheme::new(2, 4).unwrap();
        let (com1, _) = deal(&scheme, F61::new(5), &mut rng());
        assert_eq!(com1.root(), com1.root());
        let (com2, _) = deal(&scheme, F61::new(5), &mut StdRng::seed_from_u64(8));
        // Different salts/coefficients -> different commitment.
        assert_ne!(com1.root(), com2.root());
    }

    #[test]
    fn equivocating_dealer_caught_at_reconstruction() {
        // A dealer that commits to shares NOT on one polynomial: honest
        // verification of individual shares passes, but checked
        // reconstruction with a larger opening set flags inconsistency.
        let scheme = ShamirScheme::new(2, 4).unwrap();
        let mut r = rng();
        let (_, mut opened) = deal(&scheme, F61::new(5), &mut r);
        // Forge the last share and rebuild a commitment that matches the
        // forged vector (the dealer controls the commitment).
        opened[3].share.value = opened[3].share.value + F61::ONE;
        let per_share = opened.iter().map(|vs| super::commit_one(&vs.share, vs.salt)).collect();
        let forged_com = Commitment { per_share };
        for vs in &opened {
            assert!(verify_share(&forged_com, vs), "dealer-made openings verify");
        }
        assert!(matches!(
            reconstruct(&scheme, &forged_com, &opened),
            Err(CryptoError::InconsistentShares)
        ));
    }

    #[test]
    fn out_of_range_share_index_fails_verification() {
        let scheme = ShamirScheme::new(2, 3).unwrap();
        let (com, opened) = deal(&scheme, F61::new(5), &mut rng());
        let mut vs = opened[0];
        vs.share.index = 99;
        assert!(!verify_share(&com, &vs));
    }
}
