//! Cross-crate integration tests live in `tests/tests/`; this library only
//! hosts shared helpers.

use eff2_descriptor::{DescriptorSet, SyntheticCollection};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic synthetic collection for integration tests.
pub fn test_collection(n: usize, seed: u64) -> DescriptorSet {
    SyntheticCollection::with_size(n, seed).set
}

/// A scratch directory unique to `tag`.
#[expect(
    clippy::expect_used,
    reason = "a test helper: a test cannot run without its scratch directory"
)]
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let unique = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eff2_it_{tag}_{}_{unique}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
