//! The correctness checks each operation passes before it counts as
//! done. They run outside the timed interval; a failure is counted in
//! the run's `failed`.

use swiper::core::{verify_qualification, verify_restriction};
use swiper::net::{Metrics, RunReport, TwinError};
use swiper::{Solution, TicketAssignment, WeightQualification, WeightRestriction, Weights};

/// A Weight Restriction assignment is valid.
pub fn restriction_holds(
    w: &Weights,
    tickets: &TicketAssignment,
    p: &WeightRestriction,
) -> bool {
    verify_restriction(w, tickets, p) == Ok(true)
}

/// A Weight Qualification assignment is valid.
pub fn qualification_holds(
    w: &Weights,
    tickets: &TicketAssignment,
    p: &WeightQualification,
) -> bool {
    verify_qualification(w, tickets, p) == Ok(true)
}

/// A solve's published assignment is valid and within its ticket bound.
pub fn solution_holds(w: &Weights, sol: &Solution, p: &WeightRestriction) -> bool {
    sol.total_tickets() <= u128::from(sol.ticket_bound)
        && restriction_holds(w, &sol.assignment, p)
}

/// Every party not in `silent` output exactly `payload`.
pub fn every_honest_party_delivered(
    outputs: &[Option<Vec<u8>>],
    silent: &[bool],
    payload: &[u8],
) -> bool {
    outputs.len() == silent.len()
        && outputs.iter().zip(silent).all(|(out, &s)| s || out.as_deref() == Some(payload))
}

/// Every replica committed `rounds` rounds and reports the same ledger
/// digest (output: 8-byte little-endian count, then the digest).
pub fn replicas_agree(outputs: &[Option<Vec<u8>>], rounds: u64) -> bool {
    let Some(Some(first)) = outputs.first() else { return false };
    first.len() == 8 + 32
        && first[..8] == rounds.to_le_bytes()
        && outputs.iter().all(|o| o.as_deref() == Some(first.as_slice()))
}

/// Every message sent was either processed or counted as dropped.
pub fn messages_conserved(metrics: &Metrics, dropped: u64) -> bool {
    metrics.total_messages() == metrics.delivered_messages() + dropped
}

/// The simulator replay of a recorded run reproduced its outputs and
/// metrics exactly.
pub fn twin_matches(live: &RunReport, replay: &Result<RunReport, TwinError>) -> bool {
    replay.as_ref().is_ok_and(|r| r.outputs == live.outputs && r.metrics == live.metrics)
}
