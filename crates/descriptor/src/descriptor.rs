//! Identified descriptors and the structure-of-arrays collection container.
//!
//! The paper's collection is "typically stored sequentially in a single
//! file" with each descriptor carrying an identifier (§4.1, §5.2). We keep
//! the identifier as the descriptor's position-independent handle: the
//! ground-truth scan records identifiers, and precision of intermediate
//! results is computed by identifier intersection (§5.4).
//!
//! [`DescriptorSet`] stores vectors in one flat `f32` buffer (structure of
//! arrays) so that chunk scans and sequential scans run over contiguous
//! memory, and identifiers in a parallel `u32` buffer. An optional parallel
//! image map records which image each descriptor came from — the paper keeps
//! this association to aggregate descriptor hits into image-level answers.

#![expect(
    clippy::indexing_slicing,
    reason = "SoA accessors rely on the data.len() == len * DIM invariant every constructor maintains"
)]

use crate::vector::{Vector, DIM};

/// Identifier of a single descriptor, unique within a collection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DescriptorId(pub u32);

impl std::fmt::Display for DescriptorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Identifier of the image a descriptor was computed from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ImageId(pub u32);

impl std::fmt::Display for ImageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "img{}", self.0)
    }
}

/// One identified local descriptor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Descriptor {
    /// Collection-unique identifier.
    pub id: DescriptorId,
    /// The 24-dimensional point.
    pub vector: Vector,
}

impl Descriptor {
    /// Creates a descriptor.
    pub fn new(id: u32, vector: Vector) -> Self {
        Descriptor {
            id: DescriptorId(id),
            vector,
        }
    }
}

/// A collection of descriptors in structure-of-arrays layout.
///
/// Invariants:
/// * `data.len() == len * DIM`;
/// * `ids.len() == len`;
/// * `image_of`, when present, has `len` entries.
#[derive(Clone, Debug, Default)]
pub struct DescriptorSet {
    data: Vec<f32>,
    ids: Vec<u32>,
    image_of: Option<Vec<u32>>,
}

impl DescriptorSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with capacity for `n` descriptors.
    pub fn with_capacity(n: usize) -> Self {
        DescriptorSet {
            data: Vec::with_capacity(n * DIM),
            ids: Vec::with_capacity(n),
            image_of: None,
        }
    }

    /// Number of descriptors held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends a descriptor without image attribution.
    pub fn push(&mut self, d: Descriptor) {
        self.data.extend_from_slice(d.vector.as_slice());
        self.ids.push(d.id.0);
        if let Some(map) = &mut self.image_of {
            // Keep the parallel map aligned; attribute to a sentinel image.
            map.push(u32::MAX);
        }
    }

    /// Appends a descriptor attributed to `image`.
    ///
    /// The first attributed push switches the set into image-tracking mode;
    /// descriptors pushed earlier without attribution are assigned the
    /// sentinel `u32::MAX`.
    pub(crate) fn push_with_image(&mut self, d: Descriptor, image: ImageId) {
        let n_before = self.ids.len();
        self.image_of
            .get_or_insert_with(|| vec![u32::MAX; n_before])
            .push(image.0);
        self.data.extend_from_slice(d.vector.as_slice());
        self.ids.push(d.id.0);
    }

    /// The identifier of descriptor `i`.
    #[inline]
    pub fn id(&self, i: usize) -> DescriptorId {
        DescriptorId(self.ids[i])
    }

    /// The vector of descriptor `i` as a fixed-size array reference.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "hot-path accessor; the SoA length invariant is maintained by every constructor"
    )]
    pub fn vector(&self, i: usize) -> &[f32; DIM] {
        let start = i * DIM;
        self.data[start..start + DIM]
            .try_into()
            .expect("SoA invariant: data.len() == len * DIM")
    }

    /// The vector of descriptor `i` as an owned [`Vector`].
    #[inline]
    pub fn vector_owned(&self, i: usize) -> Vector {
        Vector(*self.vector(i))
    }

    /// The descriptor at position `i`.
    pub fn get(&self, i: usize) -> Descriptor {
        Descriptor {
            id: self.id(i),
            vector: self.vector_owned(i),
        }
    }

    /// The image of descriptor `i`, if image attribution is tracked.
    pub fn image(&self, i: usize) -> Option<ImageId> {
        match &self.image_of {
            Some(map) if map[i] != u32::MAX => Some(ImageId(map[i])),
            _ => None,
        }
    }

    /// Whether image attribution is tracked.
    pub(crate) fn has_images(&self) -> bool {
        self.image_of.is_some()
    }

    /// The flat, packed vector buffer (`len * DIM` floats, row-major).
    pub fn packed(&self) -> &[f32] {
        &self.data
    }

    /// The raw identifier buffer.
    pub fn raw_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Iterates over descriptors in storage order.
    pub fn iter(&self) -> impl Iterator<Item = Descriptor> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Builds a subset containing the descriptors at `positions`, preserving
    /// identifiers and image attribution.
    pub fn subset(&self, positions: &[usize]) -> DescriptorSet {
        let mut out = DescriptorSet::with_capacity(positions.len());
        if self.image_of.is_some() {
            out.image_of = Some(Vec::with_capacity(positions.len()));
        }
        for &p in positions {
            out.data.extend_from_slice(self.vector(p));
            out.ids.push(self.ids[p]);
            if let (Some(dst), Some(src)) = (&mut out.image_of, &self.image_of) {
                dst.push(src[p]);
            }
        }
        out
    }

    /// Builds a set from owned parts.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths violate the SoA invariants.
    pub fn from_parts(data: Vec<f32>, ids: Vec<u32>, image_of: Option<Vec<u32>>) -> Self {
        assert_eq!(data.len(), ids.len() * DIM, "data/ids length mismatch");
        if let Some(map) = &image_of {
            assert_eq!(map.len(), ids.len(), "image map length mismatch");
        }
        DescriptorSet {
            data,
            ids,
            image_of,
        }
    }
}

impl FromIterator<Descriptor> for DescriptorSet {
    fn from_iter<I: IntoIterator<Item = Descriptor>>(iter: I) -> Self {
        let mut set = DescriptorSet::new();
        for d in iter {
            set.push(d);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| Descriptor::new(i as u32 * 10, Vector::splat(i as f32)))
            .collect()
    }

    #[test]
    fn push_and_get_roundtrip() {
        let set = sample(5);
        assert_eq!(set.len(), 5);
        for i in 0..5 {
            let d = set.get(i);
            assert_eq!(d.id, DescriptorId(i as u32 * 10));
            assert_eq!(d.vector, Vector::splat(i as f32));
        }
    }

    #[test]
    fn empty_set_properties() {
        let set = DescriptorSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.packed().is_empty());
        assert!(!set.has_images());
    }

    #[test]
    fn packed_layout_is_row_major() {
        let set = sample(3);
        let packed = set.packed();
        assert_eq!(packed.len(), 3 * DIM);
        assert_eq!(packed[0], 0.0);
        assert_eq!(packed[DIM], 1.0);
        assert_eq!(packed[2 * DIM], 2.0);
    }

    #[test]
    fn image_attribution() {
        let mut set = DescriptorSet::new();
        set.push(Descriptor::new(0, Vector::ZERO));
        set.push_with_image(Descriptor::new(1, Vector::ZERO), ImageId(7));
        set.push_with_image(Descriptor::new(2, Vector::ZERO), ImageId(9));
        assert!(set.has_images());
        assert_eq!(set.image(0), None); // pushed before tracking started
        assert_eq!(set.image(1), Some(ImageId(7)));
        assert_eq!(set.image(2), Some(ImageId(9)));
    }

    #[test]
    fn push_after_image_tracking_keeps_alignment() {
        let mut set = DescriptorSet::new();
        set.push_with_image(Descriptor::new(0, Vector::ZERO), ImageId(1));
        set.push(Descriptor::new(1, Vector::ZERO));
        assert_eq!(set.image(0), Some(ImageId(1)));
        assert_eq!(set.image(1), None);
    }

    #[test]
    fn subset_preserves_ids_and_images() {
        let mut set = DescriptorSet::new();
        for i in 0..6u32 {
            set.push_with_image(Descriptor::new(i, Vector::splat(i as f32)), ImageId(i / 2));
        }
        let sub = set.subset(&[4, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.id(0), DescriptorId(4));
        assert_eq!(sub.id(1), DescriptorId(1));
        assert_eq!(sub.image(0), Some(ImageId(2)));
        assert_eq!(sub.image(1), Some(ImageId(0)));
        assert_eq!(sub.vector_owned(0), Vector::splat(4.0));
    }

    #[test]
    fn iter_visits_all_in_order() {
        let set = sample(4);
        let ids: Vec<u32> = set.iter().map(|d| d.id.0).collect();
        assert_eq!(ids, vec![0, 10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_validates_lengths() {
        DescriptorSet::from_parts(vec![0.0; DIM], vec![1, 2], None);
    }

    #[test]
    fn from_parts_valid() {
        let set = DescriptorSet::from_parts(vec![1.0; 2 * DIM], vec![5, 6], Some(vec![0, 1]));
        assert_eq!(set.len(), 2);
        assert_eq!(set.image(1), Some(ImageId(1)));
    }
}
