//! det.wall_clock: host-clock reads, in any crate.

pub fn positive_instant() -> std::time::Instant {
    std::time::Instant::now() //~ det.wall_clock
}

pub fn positive_system_time() {
    let _t = std::time::SystemTime::now(); //~ det.wall_clock
}

pub fn negative_virtual(elapsed_virtual_ms: u64) -> u64 {
    elapsed_virtual_ms
}
