//! The profile-guided meta-programming cycle benchmark. See `README.md`.

pub mod bench;
pub mod cli;
pub mod gen;
pub mod ops;
pub mod rng;
pub mod rt_load;
pub mod trace;
