//! Modelled outputs at the default seed, as the repository computed them
//! when this benchmark was defined.
//!
//! The modelled (virtual-time) results are deterministic, so instead of
//! reporting them as metrics the benchmark checks at seed 42 that they
//! still equal these values: a change that moves one changed what the
//! simulator computes, not how fast it runs.

use crate::{Run, DEFAULT_SEED};

/// Computed at seed 42 on an x86-64 host with FMA (the payload digests
/// depend on the GEMM kernel's fused multiply-add, as the repository's
/// own serving pins do).
const PINS: &[(&str, u128)] = &[
    ("oneshot_replay.digest", 6362633003590091967),
    ("oneshot_replay.completed", 424366),
    ("oneshot_replay.dropped", 75634),
    ("oneshot_replay.iterations", 424366),
    ("oneshot_replay.evictions", 0),
    ("oneshot_replay.batches", 13262),
    ("oneshot_replay.makespan_ns", 676237932),
    ("oneshot_replay.energy_pj", 34773093960),
    ("sessions_replay.digest", 223483021813621955),
    ("sessions_replay.completed", 20000),
    ("sessions_replay.dropped", 0),
    ("sessions_replay.iterations", 89886),
    ("sessions_replay.evictions", 24209),
    ("sessions_replay.batches", 8450),
    ("sessions_replay.makespan_ns", 231430407),
    ("sessions_replay.energy_pj", 4328568435),
    ("payload_tiny.digest", 13131635505763255509),
    ("payload_tiny.completed", 384),
    ("payload_tiny.dropped", 0),
    ("payload_tiny.iterations", 384),
    ("payload_tiny.evictions", 0),
    ("payload_tiny.batches", 49),
    ("payload_tiny.makespan_ns", 74420940),
    ("payload_tiny.energy_pj", 26132499282),
    ("payload_small.digest", 1418008480115980386),
    ("payload_small.cost_ns", 2336154),
    ("payload_small.energy_pj", 278608258101),
    ("payload_small.accel_cycles", 439298),
];

/// Prints a modelled output and, at the default seed, checks it against
/// its pin.
pub fn check(run: &mut Run, key: &str, value: u128) {
    run.say(format!("modelled {key} = {value}"));
    if run.seed != DEFAULT_SEED {
        return;
    }
    let pin = PINS.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    run.check(&format!("{key} equals its seed-42 pin ({pin:?})"), pin == Some(value));
}
