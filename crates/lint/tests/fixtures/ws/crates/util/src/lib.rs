//! Fixture: `util` is not a deterministic crate — L2 rules must stay
//! quiet here, while L1 still applies.

pub fn ambient_is_fine_here() -> u64 {
    let mut r = rand::rng();
    r.random_range(0..10)
}
