//! Hash tables keyed by an id that is already a number.
//!
//! A [`crate::RegionId`] is a small sequential integer and a chunk id
//! is one too, or an FNV hash of a name. A table looked up once or
//! twice on every application write has no use for running SipHash
//! over such a key: [`IdMap`] hashes a `u64` as itself. Both kinds of
//! id are made by this program, never read from outside it, so nobody
//! is in a position to craft colliding keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] whose key is a newtype over one `u64`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The hasher behind [`IdMap`]: the hash of a `u64` is that `u64`.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Keys that are not one `u64` still hash correctly, only poorly.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegionId;
    use std::hash::BuildHasher;

    #[test]
    fn an_id_hashes_as_itself_and_the_map_behaves() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(build.hash_one(RegionId(41)), 41);
        let mut map: IdMap<RegionId, u64> = IdMap::default();
        // Sequential ids, then ids that agree in their low bits.
        for id in (1..200).chain((1..50).map(|i| i << 32)) {
            assert_eq!(map.insert(RegionId(id), id + 1), None);
        }
        assert_eq!(map.len(), 248);
        assert_eq!(map.get(&RegionId(7 << 32)), Some(&((7 << 32) + 1)));
        assert_eq!(map.remove(&RegionId(199)), Some(200));
        assert_eq!(map.get(&RegionId(199)), None);
    }
}
