//! Stripe-granular byte storage for one server, and the integer-keyed map
//! the servers keep per-file state in.
//!
//! Stripe memory outlives the store that used it. A stripe freed by
//! [`StripeStore::remove_file`] or by a store's drop goes to the process's
//! byte pool ([`crate::pool`]), and the first write of a stripe takes its
//! buffer from there. A pooled buffer holds a dead file's bytes, so a first
//! write zeroes what it leaves uncovered, `[0, lo)` and
//! `[lo + len, stripe_size)`, and the writer fills the bytes in between
//! ([`StripeStore::slot`]): bytes never written read as zero whether the
//! buffer came from the pool or from a fresh zeroed allocation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::pool;

/// A map keyed by file ids and stripe indices, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiplicative hasher for integer keys: one rotate, xor and multiply
/// per word, where SipHash costs tens of nanoseconds a request. It resists
/// no adversary, and needs not: a map's keys are the file ids and stripe
/// indices of stripes actually stored, so driving it into a long probe
/// chain takes storing that many stripes.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Whether payload bytes are retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// Keep every byte (correctness tests, small runs).
    Full,
    /// Account time only; writes are discarded and reads return zeros.
    /// Large benchmark configurations use this to bound memory.
    CostOnly,
    /// Keep only small requests — file headers, superblocks, object
    /// headers — and discard bulk data. Lets read benchmarks re-open files
    /// (the header parses) without holding gigabytes of array data.
    MetadataOnly,
}

/// Requests at or below this size are considered metadata under
/// [`StorageMode::MetadataOnly`].
pub const METADATA_REQUEST_LIMIT: u64 = 64 * 1024;

/// Byte store of one server: sparse stripes keyed by `(file id, stripe idx)`.
#[derive(Default)]
pub struct StripeStore {
    stripes: IdMap<(u64, u64), Box<[u8]>>,
    stripe_size: u64,
}

impl StripeStore {
    /// New store for stripes of `stripe_size` bytes.
    pub fn new(stripe_size: u64) -> StripeStore {
        StripeStore {
            stripes: IdMap::default(),
            stripe_size,
        }
    }

    /// The bytes `[offset_in_stripe, offset_in_stripe + len)` of stripe
    /// `stripe` of `file`, for a write to overwrite, every one of them (a
    /// gather fills them converting, [`crate::file::Seg`]).
    pub fn slot(&mut self, file: u64, stripe: u64, offset_in_stripe: u64, len: u64) -> &mut [u8] {
        debug_assert!(offset_in_stripe + len <= self.stripe_size);
        let lo = offset_in_stripe as usize;
        let hi = lo + len as usize;
        let buf = match self.stripes.entry((file, stripe)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let size = self.stripe_size as usize;
                e.insert(match pool::reuse(size) {
                    Some(mut buf) => {
                        buf[..lo].fill(0);
                        buf[hi..].fill(0);
                        buf.into_boxed_slice()
                    }
                    None => vec![0u8; size].into_boxed_slice(),
                })
            }
        };
        &mut buf[lo..hi]
    }

    /// Read from stripe `stripe`; unwritten stripes read as zeros.
    pub fn read(&self, file: u64, stripe: u64, offset_in_stripe: u64, out: &mut [u8]) {
        debug_assert!(offset_in_stripe + out.len() as u64 <= self.stripe_size);
        match self.stripes.get(&(file, stripe)) {
            Some(buf) => {
                let lo = offset_in_stripe as usize;
                out.copy_from_slice(&buf[lo..lo + out.len()]);
            }
            None => out.fill(0),
        }
    }

    /// Drop every stripe of `file`, giving its buffers to the pool.
    pub fn remove_file(&mut self, file: u64) {
        self.stripes.retain(|&(f, _), buf| {
            if f == file {
                pool::give(std::mem::take(buf).into_vec());
            }
            f != file
        });
    }

    /// Number of resident stripes (diagnostics).
    pub fn resident_stripes(&self) -> usize {
        self.stripes.len()
    }
}

impl Drop for StripeStore {
    /// Give every stripe to the pool.
    fn drop(&mut self) {
        self.stripes
            .drain()
            .for_each(|(_, buf)| pool::give(buf.into_vec()));
    }
}

// The tests look into the pool's lists.
#[cfg(test)]
use crate::pool::POOL;

#[cfg(test)]
mod tests {
    use super::*;

    impl StripeStore {
        fn write(&mut self, file: u64, stripe: u64, offset_in_stripe: u64, data: &[u8]) {
            let len = data.len() as u64;
            self.slot(file, stripe, offset_in_stripe, len)
                .copy_from_slice(data);
        }
    }

    #[test]
    fn write_then_read() {
        let mut s = StripeStore::new(16);
        s.write(1, 0, 4, &[1, 2, 3]);
        let mut out = [9u8; 6];
        s.read(1, 0, 2, &mut out);
        assert_eq!(out, [0, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = StripeStore::new(8);
        let mut out = [7u8; 8];
        s.read(0, 5, 0, &mut out);
        assert_eq!(out, [0; 8]);
    }

    #[test]
    fn files_are_isolated() {
        let mut s = StripeStore::new(8);
        s.write(1, 0, 0, &[1; 8]);
        s.write(2, 0, 0, &[2; 8]);
        let mut out = [0u8; 8];
        s.read(1, 0, 0, &mut out);
        assert_eq!(out, [1; 8]);
        s.remove_file(1);
        s.read(1, 0, 0, &mut out);
        assert_eq!(out, [0; 8]);
        s.read(2, 0, 0, &mut out);
        assert_eq!(out, [2; 8]);
    }

    #[test]
    fn overwrite_within_stripe() {
        let mut s = StripeStore::new(8);
        s.write(0, 3, 0, &[1; 8]);
        s.write(0, 3, 2, &[9, 9]);
        let mut out = [0u8; 8];
        s.read(0, 3, 0, &mut out);
        assert_eq!(out, [1, 1, 9, 9, 1, 1, 1, 1]);
        assert_eq!(s.resident_stripes(), 1);
    }

    /// Addresses of a store's stripe buffers.
    fn buffers(s: &StripeStore) -> BTreeSet<usize> {
        s.stripes.values().map(|b| b.as_ptr() as usize).collect()
    }

    /// Addresses of the pooled buffers of `size` bytes.
    fn pooled(size: usize) -> BTreeSet<usize> {
        let pool = POOL.lock();
        let free = pool.get(&size).map_or(&[][..], Vec::as_slice);
        free.iter().map(|b| b.as_ptr() as usize).collect()
    }

    #[test]
    fn freed_stripes_serve_the_next_store_without_an_allocation() {
        // A stripe size no other test uses: nothing else takes from or
        // gives to its list while this test runs.
        const S: usize = 4093;
        let mut first = StripeStore::new(S as u64);
        for i in 0..4 {
            first.write(1, i, 0, &[0xAA; S]);
            first.write(2, i, 0, &[0xBB; S]);
        }
        let freed = buffers(&first);
        assert_eq!(freed.len(), 8);
        // Four stripes come back through `remove_file`, four through the drop.
        first.remove_file(1);
        assert_eq!(pooled(S).len(), 4, "remove_file kept or freed a stripe");
        let mut second = StripeStore::new(S as u64);
        (0..4).for_each(|i| second.write(3, i, 7, &[1, 2, 3]));
        drop(first);
        assert_eq!(pooled(S).len(), 4, "the drop kept or freed a stripe");
        (4..8).for_each(|i| second.write(3, i, 7, &[1, 2, 3]));
        assert_eq!(buffers(&second), freed, "a stripe was allocated fresh");
        assert!(pooled(S).is_empty());
        for i in 0..8 {
            let mut out = [9u8; S];
            second.read(3, i, 0, &mut out);
            assert_eq!(out[..10], [0, 0, 0, 0, 0, 0, 0, 1, 2, 3], "stripe {i}");
            assert!(out[10..].iter().all(|&b| b == 0), "stripe {i}'s tail");
        }
    }

    /// Leave `n` stripes of `size` bytes, every byte `0xAA`, in the pool.
    fn dirty_pool(size: u64, n: u64) {
        let mut s = StripeStore::new(size);
        (0..n).for_each(|i| s.write(u64::MAX, i, 0, &vec![0xAA; size as usize]));
    }

    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        /// Random writes, reads and removals over 1–4 files and sparse
        /// stripe indices, up to the last stripe a `u64` offset can address,
        /// against a per-file byte oracle (absent bytes read as zero), with
        /// the pool holding `0xAA` stripes of the store's size: a first
        /// write that leaves pooled bytes uncovered shows as a wrong read.
        #[test]
        fn store_matches_a_byte_oracle(
            nfiles in 1u64..5,
            ops in vec((0u8..8, any::<u64>(), 0u64..8, 0u64..16, 1u64..17, any::<u8>()), 1..64),
        ) {
            const S: u64 = 16;
            dirty_pool(S, 64);
            let mut store = StripeStore::new(S);
            let mut bytes: Vec<BTreeMap<u64, u8>> = vec![BTreeMap::new(); nfiles as usize];
            let mut stripes: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); nfiles as usize];
            for (kind, pick, near, off, len, val) in ops {
                let file = pick % nfiles;
                let stripe = if pick & 1 << 40 == 0 { near } else { u64::MAX / S - near };
                let len = len.min(S - off);
                // Byte addresses; the last stripe's end is 2^64 itself.
                let (f, i) = (file as usize, (off..off + len).map(|o| stripe * S + o));
                match kind {
                    0 => {
                        store.remove_file(file + 1);
                        bytes[f].clear();
                        stripes[f].clear();
                    }
                    1..=4 => {
                        let data: Vec<u8> = i.clone().map(|a| val ^ a as u8).collect();
                        store.write(file + 1, stripe, off, &data);
                        i.zip(data).for_each(|(a, b)| { bytes[f].insert(a, b); });
                        stripes[f].insert(stripe);
                    }
                    _ => {
                        let mut out = vec![0xAA; len as usize];
                        store.read(file + 1, stripe, off, &mut out);
                        let want: Vec<u8> = i.map(|a| bytes[f].get(&a).copied().unwrap_or(0)).collect();
                        prop_assert_eq!(out, want, "file {} stripe {} off {}", file, stripe, off);
                    }
                }
                let resident: usize = stripes.iter().map(BTreeSet::len).sum();
                prop_assert_eq!(store.resident_stripes(), resident);
            }
        }
    }
}
