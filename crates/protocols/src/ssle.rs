//! Single Secret Leader Election under the black-box transformation
//! (paper Section 4.4) and the *chain-quality* relaxation.
//!
//! The nominal SSLE of Boneh et al. (reference \[10\]) elects one of `T`
//! participants so that only the winner learns the result until it chooses
//! to reveal. Applying weight reduction — each party registering its `t_i`
//! virtual users — preserves safety and liveness but **not fairness**: the
//! probability of winning becomes proportional to tickets, not weight.
//! The paper therefore relaxes fairness to *chain quality*: the fraction
//! of elections won by corrupt parties stays below `alpha := f_n` whenever
//! corrupt weight is below `f_w` (WR with `alpha_w = f_w`,
//! `alpha_n = f_n`).
//!
//! The DDH commitment-shuffle of \[10\] is simulated with hash commitments
//! and a beacon-seeded shuffle (see "Substitutions" in
//! `docs/ARCHITECTURE.md`): what the experiments need is *who wins how
//! often* and *that only the winner can produce an opening*, both of which
//! the simulation preserves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use swiper_core::{TicketAssignment, VirtualUsers, Weights};
use swiper_crypto::hash::{digest_parts, Digest};

/// A registered SSLE instance over `T` virtual users.
#[derive(Debug, Clone)]
pub struct SsleInstance {
    mapping: VirtualUsers,
    /// Per-virtual-user secrets (held by the owning party; the instance
    /// plays the role of the full system state in this simulation).
    secrets: Vec<u64>,
    /// Public commitments `H(v, secret_v)`.
    commitments: Vec<Digest>,
}

/// The public outcome of one election round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Election {
    /// The round number.
    pub round: u64,
    /// Position of the winning commitment after the shuffle (public).
    pub winner_slot: usize,
    /// The winning virtual user (secret until revealed; exposed here for
    /// test/measurement purposes).
    pub winner_virtual: usize,
}

/// A winner's proof of leadership: the opening of the winning commitment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaderProof {
    /// The winning virtual user.
    pub virtual_user: usize,
    /// The committed secret.
    pub secret: u64,
}

impl SsleInstance {
    /// Registers every virtual user of the ticket assignment with a fresh
    /// secret (deterministic from `seed`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment allocates no tickets.
    pub fn setup(tickets: &TicketAssignment, seed: u64) -> Self {
        let mapping = VirtualUsers::from_assignment(tickets).expect("fits memory");
        assert!(mapping.total() > 0, "SSLE needs at least one registered user");
        let mut rng = StdRng::seed_from_u64(seed);
        let secrets: Vec<u64> = (0..mapping.total()).map(|_| rng.random()).collect();
        let commitments = secrets.iter().enumerate().map(|(v, s)| commit(v, *s)).collect();
        SsleInstance { mapping, secrets, commitments }
    }

    /// Number of registered virtual users.
    pub fn registered(&self) -> usize {
        self.mapping.total()
    }

    /// Runs the election for `round` using the beacon output as shared
    /// randomness: shuffle the commitments, pick the first slot.
    pub fn elect(&self, round: u64, beacon: &Digest) -> Election {
        let total = self.registered();
        // Beacon-seeded Fisher–Yates shuffle of commitment slots.
        let seed =
            digest_parts(&[b"swiper.ssle.shuffle", beacon.as_bytes(), &round.to_le_bytes()]);
        let mut rng = StdRng::seed_from_u64(seed.to_u64());
        let mut perm: Vec<usize> = (0..total).collect();
        for i in (1..total).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        Election { round, winner_slot: 0, winner_virtual: perm[0] }
    }

    /// The owner of the winning virtual user (the elected *party*).
    pub fn winner_party(&self, e: &Election) -> usize {
        self.mapping.owner_of(e.winner_virtual)
    }

    /// Produces the leadership proof — only callable meaningfully by the
    /// winning party (other parties do not know the secret; the simulation
    /// enforces this by checking ownership).
    pub fn prove(&self, e: &Election, party: usize) -> Option<LeaderProof> {
        if self.mapping.owner_of(e.winner_virtual) != party {
            return None;
        }
        Some(LeaderProof {
            virtual_user: e.winner_virtual,
            secret: self.secrets[e.winner_virtual],
        })
    }

    /// Verifies a claimed leadership proof against the public commitments.
    pub fn verify(&self, e: &Election, proof: &LeaderProof) -> bool {
        proof.virtual_user == e.winner_virtual
            && commit(proof.virtual_user, proof.secret) == self.commitments[proof.virtual_user]
    }
}

fn commit(v: usize, secret: u64) -> Digest {
    digest_parts(&[b"swiper.ssle.commit", &(v as u64).to_le_bytes(), &secret.to_le_bytes()])
}

/// Measured election statistics over many rounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElectionStats {
    /// Rounds run.
    pub rounds: u64,
    /// Wins per party.
    pub wins: Vec<u64>,
    /// Fraction of rounds won by the designated corrupt set.
    pub corrupt_fraction: f64,
    /// `max_i |win_freq_i - weight_share_i|` — the fairness deviation the
    /// paper's Section 9 discusses (weight reduction does NOT preserve
    /// fairness, only chain quality).
    pub fairness_gap: f64,
}

/// Runs `rounds` elections and measures chain quality and (un)fairness.
pub fn measure_elections(
    tickets: &TicketAssignment,
    weights: &Weights,
    corrupt: &[usize],
    rounds: u64,
    seed: u64,
) -> ElectionStats {
    let instance = SsleInstance::setup(tickets, seed);
    let mut wins = vec![0u64; tickets.len()];
    let mut corrupt_wins = 0u64;
    for round in 0..rounds {
        // Each round's beacon output is modelled as a hash of the round.
        let beacon =
            digest_parts(&[b"swiper.ssle.beacon", &seed.to_le_bytes(), &round.to_le_bytes()]);
        let e = instance.elect(round, &beacon);
        let party = instance.winner_party(&e);
        wins[party] += 1;
        if corrupt.contains(&party) {
            corrupt_wins += 1;
        }
        // The winner can prove; nobody else can.
        debug_assert!(instance.prove(&e, party).is_some());
    }
    let total_weight = weights.total() as f64;
    let fairness_gap = wins
        .iter()
        .enumerate()
        .map(|(p, &w)| {
            let freq = w as f64 / rounds as f64;
            let share = weights.get(p) as f64 / total_weight;
            (freq - share).abs()
        })
        .fold(0.0, f64::max);
    ElectionStats {
        rounds,
        wins,
        corrupt_fraction: corrupt_wins as f64 / rounds as f64,
        fairness_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiper_core::{Ratio, Swiper, WeightRestriction};

    fn tickets_for(ws: &[u64]) -> (Weights, TicketAssignment) {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        (weights, sol.assignment)
    }

    #[test]
    fn only_winner_can_prove_and_proofs_verify() {
        let (_, tickets) = tickets_for(&[50, 30, 20]);
        let instance = SsleInstance::setup(&tickets, 42);
        let beacon = digest_parts(&[b"b"]);
        let e = instance.elect(0, &beacon);
        let winner = instance.winner_party(&e);
        let proof = instance.prove(&e, winner).expect("winner proves");
        assert!(instance.verify(&e, &proof));
        for party in 0..3 {
            if party != winner {
                assert!(instance.prove(&e, party).is_none(), "party {party} must not prove");
            }
        }
        // A forged proof with the wrong secret fails.
        let forged = LeaderProof { virtual_user: e.winner_virtual, secret: 0xDEAD };
        assert!(!instance.verify(&e, &forged) || proof.secret == 0xDEAD);
    }

    #[test]
    fn elections_are_deterministic_per_beacon() {
        let (_, tickets) = tickets_for(&[50, 30, 20]);
        let instance = SsleInstance::setup(&tickets, 42);
        let beacon = digest_parts(&[b"epoch-9"]);
        assert_eq!(instance.elect(3, &beacon), instance.elect(3, &beacon));
        // Different rounds shuffle differently (with overwhelming
        // probability for this fixed instance).
        let other = instance.elect(4, &beacon);
        let same = instance.elect(3, &beacon);
        assert!(other.winner_virtual != same.winner_virtual || instance.registered() <= 2);
    }

    #[test]
    fn chain_quality_bounded_by_ticket_fraction() {
        // Corrupt party 2 holds < 1/4 of the weight; WR(1/4, 1/3)
        // guarantees it holds < 1/3 of tickets, so its win rate over many
        // rounds concentrates below ~1/3.
        let (weights, tickets) = tickets_for(&[45, 35, 20]);
        let stats = measure_elections(&tickets, &weights, &[2], 4000, 7);
        let corrupt_tickets = tickets.get(2) as f64 / tickets.total() as f64;
        assert!(corrupt_tickets < 1.0 / 3.0, "WR guarantee: {corrupt_tickets}");
        assert!(
            stats.corrupt_fraction < 1.0 / 3.0,
            "chain quality violated: {}",
            stats.corrupt_fraction
        );
    }

    #[test]
    fn win_frequency_tracks_tickets_not_weight() {
        // The fairness caveat of Section 4.4: frequencies follow the
        // *ticket* distribution. With coarse tickets the deviation from
        // weight shares is visible.
        let (weights, tickets) = tickets_for(&[50, 30, 20]);
        let stats = measure_elections(&tickets, &weights, &[], 6000, 11);
        let t_total = tickets.total() as f64;
        for p in 0..3 {
            let expected = tickets.get(p) as f64 / t_total;
            let got = stats.wins[p] as f64 / stats.rounds as f64;
            assert!(
                (got - expected).abs() < 0.05,
                "party {p}: win freq {got} vs ticket share {expected}"
            );
        }
    }

    #[test]
    fn all_rounds_have_exactly_one_winner() {
        let (weights, tickets) = tickets_for(&[10, 10, 10, 10]);
        let stats = measure_elections(&tickets, &weights, &[], 500, 3);
        assert_eq!(stats.wins.iter().sum::<u64>(), 500);
    }
}
