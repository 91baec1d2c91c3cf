//! The epoch manifest: the mutation log that turns a write-once chunk
//! index into a live one without touching the chunk-file format.
//!
//! Mutability is strictly *additive on disk*. The immutable chunk + index
//! file pair of a generation stays exactly as [`crate::store::ChunkStore`]
//! wrote it; writers append [`DeltaOp`]s to the op log of an
//! [`EpochManifest`], persisted as the **epoch manifest** (`name.epoch`):
//! the current generation number, how many ops past compactions have
//! folded in, and the not-yet-folded tail of the op log. Opening a plain
//! chunk/index pair that never had a manifest is generation 0 with an empty
//! delta — full read-compat with every store ever written.
//!
//! Readers never see the op log: pinning an epoch folds the ops pending at
//! that moment into a [`FoldedDelta`] (tombstones over the base plus the
//! live delta rows) held behind an `Arc`. The fold is a value of its own,
//! so a pinned epoch stays exactly as it was no matter how the log grows
//! or when the compactor drains it.

use crate::bytes::{u32_at, u64_at};
use crate::chunkfile::{checksum, RECORD_BYTES};
use crate::error::{Error, Result};
use eff2_descriptor::{Vector, DIM};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Magic bytes of an epoch manifest file.
pub(crate) const EPOCH_MAGIC: [u8; 4] = *b"EFEP";
/// Format version of epoch manifests.
pub(crate) const EPOCH_VERSION: u32 = 1;

/// One mutation appended to the delta log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaOp {
    /// Add (or replace) the descriptor `id` with `vector`. Inserting an id
    /// that exists in the base generation supersedes the base copy;
    /// re-inserting a deleted id revives it.
    Insert {
        /// Descriptor identifier.
        id: u32,
        /// The descriptor's vector.
        vector: Vector,
    },
    /// Remove the descriptor `id` (from the base generation and from any
    /// earlier delta insert).
    Delete {
        /// Descriptor identifier.
        id: u32,
    },
}

impl DeltaOp {
    /// The descriptor id the op concerns.
    pub fn id(&self) -> u32 {
        match self {
            DeltaOp::Insert { id, .. } | DeltaOp::Delete { id } => *id,
        }
    }
}

/// Path of the epoch manifest belonging to the store `dir/name`.
pub fn epoch_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.epoch"))
}

/// The persistent mutation state of a live index: which compaction
/// generation the base files are, how many ops past compactions consumed,
/// and the un-folded tail of the op log.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochManifest {
    /// Compaction generation of the base chunk/index files.
    pub generation: u64,
    /// Ops consumed by past compactions; the epoch counter continues from
    /// here (epoch = `folded_ops` + delta length).
    pub folded_ops: u64,
    /// The delta ops appended since the last compaction, in append order.
    pub ops: Vec<DeltaOp>,
}

impl EpochManifest {
    /// The manifest of a store that has never been mutated.
    pub fn empty() -> EpochManifest {
        EpochManifest {
            generation: 0,
            folded_ops: 0,
            ops: Vec::new(),
        }
    }

    /// Serializes the manifest: magic, version, generation, folded ops,
    /// op count, the ops (tag byte + id + vector for inserts), then an
    /// FNV-1a checksum over everything after the magic.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.ops.len() * (5 + DIM * 4));
        buf.extend_from_slice(&EPOCH_MAGIC);
        buf.extend_from_slice(&EPOCH_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.generation.to_le_bytes());
        buf.extend_from_slice(&self.folded_ops.to_le_bytes());
        buf.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for op in &self.ops {
            match op {
                DeltaOp::Insert { id, vector } => {
                    buf.push(1);
                    buf.extend_from_slice(&id.to_le_bytes());
                    for &c in vector.as_array() {
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                }
                DeltaOp::Delete { id } => {
                    buf.push(2);
                    buf.extend_from_slice(&id.to_le_bytes());
                }
            }
        }
        let sum = checksum(buf.get(4..).unwrap_or(&[]));
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Parses a manifest produced by [`to_bytes`](Self::to_bytes).
    pub(crate) fn from_bytes(data: &[u8]) -> Result<EpochManifest> {
        let what = "epoch manifest";
        if data.len() < 32 + 4 {
            return Err(Error::Truncated(what));
        }
        let magic: [u8; 4] = data
            .get(..4)
            .ok_or(Error::Truncated(what))?
            .try_into()
            .map_err(|_| Error::Truncated(what))?;
        if magic != EPOCH_MAGIC {
            return Err(Error::BadMagic {
                file: what,
                found: magic,
            });
        }
        let body = data.get(..data.len() - 4).ok_or(Error::Truncated(what))?;
        let stored = u32_at(data, data.len() - 4, what)?;
        let computed = checksum(body.get(4..).ok_or(Error::Truncated(what))?);
        if stored != computed {
            return Err(Error::Corrupt {
                what,
                offset: 0,
                expected: stored,
                found: computed,
            });
        }
        let version = u32_at(body, 4, what)?;
        if version != EPOCH_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let generation = u64_at(body, 8, what)?;
        let folded_ops = u64_at(body, 16, what)?;
        // The count is outside input: an op is at least a tag and an id, so
        // the bytes present bound it before anything is sized by it.
        let n_ops = u64_at(body, 24, what)?;
        let room = body.len().saturating_sub(32);
        if n_ops > (room / 5) as u64 {
            return Err(Error::Inconsistent(format!(
                "epoch manifest declares {n_ops} ops but carries {room} bytes of them"
            )));
        }
        let n_ops = n_ops as usize;
        let mut ops = Vec::with_capacity(n_ops);
        let mut at = 32usize;
        for _ in 0..n_ops {
            let tag = *body.get(at).ok_or(Error::Truncated(what))?;
            at += 1;
            let id = u32_at(body, at, what)?;
            at += 4;
            match tag {
                1 => {
                    let mut vector = Vector::ZERO;
                    for d in 0..DIM {
                        let bits = u32_at(body, at + d * 4, what)?;
                        vector[d] = f32::from_bits(bits);
                    }
                    at += DIM * 4;
                    ops.push(DeltaOp::Insert { id, vector });
                }
                2 => ops.push(DeltaOp::Delete { id }),
                other => {
                    return Err(Error::Inconsistent(format!(
                        "epoch manifest op {} has unknown tag {other}",
                        ops.len()
                    )))
                }
            }
        }
        if at != body.len() {
            return Err(Error::Inconsistent(format!(
                "epoch manifest declares {n_ops} ops but carries {} trailing bytes",
                body.len() - at
            )));
        }
        Ok(EpochManifest {
            generation,
            folded_ops,
            ops,
        })
    }

    /// Writes the manifest to `path` (atomically via a sibling temp file,
    /// so a crash mid-write leaves the previous manifest intact).
    pub fn save(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("epoch.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates the manifest at `path`.
    pub fn load(path: &Path) -> Result<EpochManifest> {
        EpochManifest::from_bytes(&std::fs::read(path)?)
    }

    /// Loads the manifest belonging to `dir/name`, or the empty manifest
    /// when none exists — the read-compat path for stores written before
    /// epochs existed (any chunk/index pair opens as generation 0, epoch 0).
    pub fn load_or_empty(dir: &Path, name: &str) -> Result<EpochManifest> {
        let path = epoch_path(dir, name);
        if path.exists() {
            EpochManifest::load(&path)
        } else {
            Ok(EpochManifest::empty())
        }
    }
}

/// The net effect of a delta prefix, ready for searching:
///
/// * `tombstones` — ids whose **base-generation** rows are dead, either
///   deleted or superseded by a delta insert (an insert tombstones the
///   base copy and contributes the fresh row instead, which makes inserts
///   of brand-new ids and updates of existing ids one uniform case);
/// * `inserts` — the live delta rows in first-insert order (an id's slot
///   is claimed by its first live insert; later re-inserts update the
///   vector in place, keeping the order deterministic).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FoldedDelta {
    /// Base-generation ids that must not be served.
    pub tombstones: BTreeSet<u32>,
    /// Live `(id, vector)` rows the delta contributes.
    pub inserts: Vec<(u32, Vector)>,
}

impl FoldedDelta {
    /// Folds `ops` in append order.
    pub fn from_ops(ops: &[DeltaOp]) -> FoldedDelta {
        let mut folded = FoldedDelta::default();
        for op in ops {
            match *op {
                DeltaOp::Insert { id, vector } => {
                    folded.tombstones.insert(id);
                    match folded.inserts.iter_mut().find(|(i, _)| *i == id) {
                        Some(slot) => slot.1 = vector,
                        None => folded.inserts.push((id, vector)),
                    }
                }
                DeltaOp::Delete { id } => {
                    folded.tombstones.insert(id);
                    folded.inserts.retain(|(i, _)| *i != id);
                }
            }
        }
        folded
    }

    /// Whether the fold is a no-op (search may take the unfiltered path).
    pub fn is_empty(&self) -> bool {
        self.tombstones.is_empty() && self.inserts.is_empty()
    }

    /// Modelled on-disk footprint of the live delta rows: record-layout
    /// bytes, what a search is charged for reading the delta chunk.
    pub fn scan_bytes(&self) -> u64 {
        (self.inserts.len() * RECORD_BYTES) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32) -> Vector {
        Vector::splat(x)
    }

    #[test]
    fn manifest_roundtrips_bit_exactly() {
        let m = EpochManifest {
            generation: 3,
            folded_ops: 17,
            ops: vec![
                DeltaOp::Insert {
                    id: 9,
                    vector: v(1.5),
                },
                DeltaOp::Delete { id: 4 },
                DeltaOp::Insert {
                    id: 4,
                    vector: v(-0.25),
                },
            ],
        };
        let back = EpochManifest::from_bytes(&m.to_bytes()).expect("parse");
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_save_load_and_read_compat() {
        let dir = std::env::temp_dir().join(format!("eff2_epoch_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        // No manifest on disk: generation 0, empty delta (read-compat).
        let _ = std::fs::remove_file(epoch_path(&dir, "ix"));
        let fresh = EpochManifest::load_or_empty(&dir, "ix").expect("empty");
        assert_eq!(fresh, EpochManifest::empty());
        let m = EpochManifest {
            generation: 1,
            folded_ops: 2,
            ops: vec![DeltaOp::Delete { id: 11 }],
        };
        m.save(&epoch_path(&dir, "ix")).expect("save");
        let back = EpochManifest::load_or_empty(&dir, "ix").expect("load");
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_detects_corruption_and_bad_magic() {
        let m = EpochManifest {
            generation: 0,
            folded_ops: 0,
            ops: vec![DeltaOp::Insert {
                id: 1,
                vector: v(2.0),
            }],
        };
        let mut bytes = m.to_bytes();
        bytes[10] ^= 0x01;
        assert!(matches!(
            EpochManifest::from_bytes(&bytes),
            Err(Error::Corrupt {
                what: "epoch manifest",
                ..
            })
        ));
        let mut bad = m.to_bytes();
        bad[0] = b'X';
        assert!(matches!(
            EpochManifest::from_bytes(&bad),
            Err(Error::BadMagic { .. })
        ));
        assert!(matches!(
            EpochManifest::from_bytes(&bad[..8]),
            Err(Error::Truncated(_))
        ));
    }

    #[test]
    fn manifest_declaring_more_ops_than_it_carries_is_an_error_not_a_panic() {
        // A checksum-correct manifest whose op count is 2^60: sizing a
        // vector by it would abort on capacity overflow.
        let mut bytes = EpochManifest {
            generation: 0,
            folded_ops: 0,
            ops: vec![DeltaOp::Delete { id: 7 }],
        }
        .to_bytes();
        bytes[24..32].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let body = bytes.len() - 4;
        let sum = checksum(&bytes[4..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            EpochManifest::from_bytes(&bytes),
            Err(Error::Inconsistent(_))
        ));
        // One more than the bytes could hold is refused the same way.
        bytes[24..32].copy_from_slice(&2u64.to_le_bytes());
        let sum = checksum(&bytes[4..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            EpochManifest::from_bytes(&bytes),
            Err(Error::Inconsistent(_))
        ));
    }

    /// Every truncated prefix and every single-bit flip of a small
    /// manifest is a typed error: never `Ok`, never a panic.
    #[test]
    fn every_truncation_and_bit_flip_of_a_manifest_is_an_error() {
        let bytes = EpochManifest {
            generation: 2,
            folded_ops: 5,
            ops: vec![
                DeltaOp::Insert {
                    id: 3,
                    vector: v(0.5),
                },
                DeltaOp::Delete { id: 8 },
            ],
        }
        .to_bytes();
        assert_eq!(bytes.len(), 36 + (5 + DIM * 4) + 5);
        for len in 0..bytes.len() {
            let got = EpochManifest::from_bytes(&bytes[..len]);
            assert!(got.is_err(), "a {len}-byte prefix parsed: {got:?}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let got = EpochManifest::from_bytes(&flipped);
            assert!(got.is_err(), "flipping bit {bit} parsed: {got:?}");
        }
    }

    #[test]
    fn fold_supersedes_deletes_and_revives() {
        let ops = [
            DeltaOp::Insert {
                id: 5,
                vector: v(1.0),
            },
            DeltaOp::Insert {
                id: 7,
                vector: v(2.0),
            },
            DeltaOp::Delete { id: 5 },
            DeltaOp::Insert {
                id: 5,
                vector: v(3.0),
            }, // revive with new row
            DeltaOp::Insert {
                id: 7,
                vector: v(4.0),
            }, // update in place
            DeltaOp::Delete { id: 9 }, // base-only delete
        ];
        let folded = FoldedDelta::from_ops(&ops);
        assert_eq!(
            folded.tombstones.iter().copied().collect::<Vec<_>>(),
            vec![5, 7, 9]
        );
        // 5's original slot died with its delete; the revival re-enters at
        // the tail, while 7's update stays in its first-insert slot.
        assert_eq!(folded.inserts, vec![(7, v(4.0)), (5, v(3.0))]);
        assert_eq!(folded.scan_bytes(), (2 * RECORD_BYTES) as u64);
        assert!(!folded.is_empty());
        assert!(FoldedDelta::from_ops(&[]).is_empty());
    }
}
