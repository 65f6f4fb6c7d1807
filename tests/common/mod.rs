//! The committed reproducers under `tests/repro/`, as the integration
//! tests load them.

use faultfs::Repro;

/// Where the committed reproducers live.
pub const REPRO_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repro");

/// Loads and parses the committed reproducer `tests/repro/{name}.repro`.
pub fn fixture(name: &str) -> Repro {
    let path = format!("{REPRO_DIR}/{name}.repro");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Repro::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}
