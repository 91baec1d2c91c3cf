//! det.hash_container: randomized-iteration containers, in any crate.

use std::collections::HashMap; //~ det.hash_container
use std::collections::HashSet; //~ det.hash_container

pub fn positive_local() -> usize {
    let m: HashMap<u32, u32> = HashMap::new(); //~ det.hash_container det.hash_container
    let s = HashSet::<u32>::new(); //~ det.hash_container
    m.len() + s.len()
}

pub fn negative_btree() -> usize {
    let m: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    m.len()
}
