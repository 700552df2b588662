//! Striping math: mapping file byte ranges onto I/O servers.
//!
//! Files are striped round-robin in fixed-size stripe units: stripe `k`
//! (bytes `[k*S, (k+1)*S)`) lives on server `k mod N`. A byte range splits
//! into per-stripe chunks; the per-server view of a contiguous range is a
//! set of stripes spaced `N*S` apart, which a real GPFS server services as
//! one streaming request — our cost model does the same.
//!
//! The timed request path never materialises these views. A request is a
//! run list (one run when contiguous), and one walk,
//! [`Striping::run_portions`], hands out each touched server's share in the
//! order the client issues them; a share is a [`PortionChunks`] walk over
//! that server's stripes, and every chunk carries its position in the
//! request's payload, so the server indexes the payload itself. Both walk
//! [`Striping::chunks`], the one per-stripe walk, which the untimed export
//! paths also use.

/// Round-robin striping layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Striping {
    /// Stripe unit in bytes.
    pub stripe_size: u64,
    /// Number of I/O servers.
    pub nservers: usize,
}

/// One piece of a request that falls entirely within a single stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeChunk {
    /// Owning server.
    pub server: usize,
    /// Stripe index within the file.
    pub stripe: u64,
    /// Byte offset in the file where this chunk starts.
    pub file_offset: u64,
    /// Offset of the chunk within its stripe.
    pub offset_in_stripe: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// Most servers a layout may stripe across: the size of the on-stack set
/// [`RunPortions`] keeps of the servers it has already handed out.
pub const MAX_SERVERS: usize = 1024;

impl Striping {
    /// Create a layout; panics on degenerate parameters (library bug).
    pub fn new(stripe_size: u64, nservers: usize) -> Striping {
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(nservers > 0, "need at least one server");
        assert!(nservers <= MAX_SERVERS, "at most {MAX_SERVERS} servers");
        Striping {
            stripe_size,
            nservers,
        }
    }

    /// Which server owns the stripe containing `offset`.
    pub fn server_of(&self, offset: u64) -> usize {
        ((offset / self.stripe_size) % self.nservers as u64) as usize
    }

    /// Walk the chunks of `[offset, offset+len)` in file order: all of
    /// them, or only those `server` owns.
    pub fn chunks(&self, offset: u64, len: u64, server: Option<usize>) -> Chunks {
        let n = self.nservers as u64;
        let first = offset / self.stripe_size;
        let (stripe, stride) = match server {
            Some(s) => (first + (s as u64 + n - first % n) % n, n),
            None => (first, 1),
        };
        Chunks {
            striping: *self,
            offset,
            end: offset + len,
            stripe,
            stride,
        }
    }

    /// Each touched server's share of a request — `runs` sorted and
    /// disjoint, one when contiguous, the payload their concatenation — in
    /// the order a client issues them: by first appearance in file order.
    pub fn run_portions<'a>(&self, runs: &'a [(u64, u64)]) -> RunPortions<'a> {
        RunPortions {
            flat: PortionChunks::new(*self, runs, 0, 0, None),
            seen: [0; MAX_SERVERS / 64],
            unseen: self.nservers,
        }
    }

    /// Data stripes covered by one parity row: `N-1`, so a row's
    /// consecutive stripes occupy `N-1` *distinct* servers and the one
    /// server the row skips can hold its parity. Requires `nservers >= 2`
    /// (with 2 servers each row is a single stripe and parity degenerates
    /// to mirroring).
    pub fn parity_row_width(&self) -> u64 {
        assert!(self.nservers >= 2, "parity needs at least two servers");
        (self.nservers - 1) as u64
    }

    /// Parity row covering data stripe `stripe`.
    pub fn parity_row_of(&self, stripe: u64) -> u64 {
        stripe / self.parity_row_width()
    }

    /// First data stripe of parity row `row`.
    pub fn row_first_stripe(&self, row: u64) -> u64 {
        row * self.parity_row_width()
    }

    /// Server holding the parity stripe of `row`: the one server none of
    /// the row's `N-1` consecutive data stripes land on. Because
    /// consecutive stripes walk the servers round-robin, this rotates
    /// RAID-5-style — no dedicated parity server bottleneck.
    pub fn parity_server_of(&self, row: u64) -> usize {
        let n = self.nservers as u64;
        ((self.row_first_stripe(row) + n - 1) % n) as usize
    }
}

/// Walks the stripes of one byte range in file order: every stripe, or
/// every `N`-th one (a single server's). See [`Striping::chunks`].
#[derive(Clone, Copy, Debug)]
pub struct Chunks {
    striping: Striping,
    offset: u64,
    end: u64,
    /// Next stripe to visit.
    stripe: u64,
    stride: u64,
}

impl Iterator for Chunks {
    type Item = StripeChunk;

    fn next(&mut self) -> Option<StripeChunk> {
        let size = self.striping.stripe_size;
        let lo = (self.stripe * size).max(self.offset);
        if lo >= self.end {
            return None;
        }
        let hi = ((self.stripe + 1) * size).min(self.end);
        let chunk = StripeChunk {
            server: (self.stripe % self.striping.nservers as u64) as usize,
            stripe: self.stripe,
            file_offset: lo,
            offset_in_stripe: lo - self.stripe * size,
            len: hi - lo,
        };
        self.stripe += self.stride;
        Some(chunk)
    }
}

/// One server's chunks of a run list in file order, each with the position
/// of its first byte in the runs' concatenated payload.
#[derive(Clone, Copy, Debug)]
pub struct PortionChunks<'a> {
    striping: Striping,
    runs: &'a [(u64, u64)],
    /// `None` walks every server's chunks (how [`RunPortions`] finds first
    /// appearances).
    server: Option<usize>,
    /// The run `cur` walks, and the payload position of its first byte.
    run: usize,
    run_pos: u64,
    cur: Chunks,
}

impl<'a> PortionChunks<'a> {
    /// Start at `runs[run]`, whose first byte is byte `run_pos` of the payload.
    fn new(
        striping: Striping,
        runs: &'a [(u64, u64)],
        run: usize,
        run_pos: u64,
        server: Option<usize>,
    ) -> PortionChunks<'a> {
        let (off, len) = runs.get(run).copied().unwrap_or((0, 0));
        PortionChunks {
            striping,
            runs,
            server,
            run,
            run_pos,
            cur: striping.chunks(off, len, server),
        }
    }
}

impl Iterator for PortionChunks<'_> {
    type Item = (StripeChunk, usize);

    fn next(&mut self) -> Option<(StripeChunk, usize)> {
        loop {
            let &(off, len) = self.runs.get(self.run)?;
            if let Some(c) = self.cur.next() {
                return Some((c, (self.run_pos + c.file_offset - off) as usize));
            }
            let (next, pos) = (self.run + 1, self.run_pos + len);
            *self = PortionChunks::new(self.striping, self.runs, next, pos, self.server);
        }
    }
}

/// See [`Striping::run_portions`].
#[derive(Clone, Copy, Debug)]
pub struct RunPortions<'a> {
    /// Every chunk of the request in file order.
    flat: PortionChunks<'a>,
    /// Bit `s` is set once server `s`'s share has been handed out.
    seen: [u64; MAX_SERVERS / 64],
    unseen: usize,
}

impl<'a> Iterator for RunPortions<'a> {
    type Item = (usize, PortionChunks<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        while self.unseen > 0 {
            let (c, _) = self.flat.next()?;
            let (word, bit) = (c.server / 64, 1u64 << (c.server % 64));
            if self.seen[word] & bit == 0 {
                self.seen[word] |= bit;
                self.unseen -= 1;
                // The server's first chunk is `c`: its share starts in the
                // run the flat walk is in.
                let f = &self.flat;
                let share =
                    PortionChunks::new(f.striping, f.runs, f.run, f.run_pos, Some(c.server));
                return Some((c.server, share));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_within_one_stripe() {
        let s = Striping::new(1024, 4);
        let chunks: Vec<_> = s.chunks(100, 200, None).collect();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].server, 0);
        assert_eq!(chunks[0].offset_in_stripe, 100);
        assert_eq!(chunks[0].len, 200);
    }

    #[test]
    fn split_across_stripes_round_robin() {
        let s = Striping::new(100, 3);
        let chunks: Vec<_> = s.chunks(50, 300, None).collect();
        // [50,100) srv0, [100,200) srv1, [200,300) srv2, [300,350) srv0
        let servers: Vec<usize> = chunks.iter().map(|c| c.server).collect();
        assert_eq!(servers, vec![0, 1, 2, 0]);
        let lens: Vec<u64> = chunks.iter().map(|c| c.len).collect();
        assert_eq!(lens, vec![50, 100, 100, 50]);
        assert_eq!(chunks.iter().map(|c| c.len).sum::<u64>(), 300);
    }

    #[test]
    fn split_preserves_coverage_exactly() {
        let s = Striping::new(64, 5);
        let mut pos = 1000;
        for c in s.chunks(1000, 1234, None) {
            assert_eq!(c.file_offset, pos);
            assert_eq!(c.offset_in_stripe, pos % 64);
            assert_eq!(c.stripe, pos / 64);
            assert_eq!(c.server, s.server_of(pos));
            pos += c.len;
        }
        assert_eq!(pos, 2234);
    }

    #[test]
    fn parity_rows_never_collide_with_their_data() {
        for n in 2..=8usize {
            let s = Striping::new(64, n);
            for row in 0..64u64 {
                let p = s.parity_server_of(row);
                let first = s.row_first_stripe(row);
                let data: Vec<usize> = (first..first + s.parity_row_width())
                    .map(|k| (k % n as u64) as usize)
                    .collect();
                // The row's data stripes cover N-1 distinct servers, none
                // of them the parity server — a single server loss costs
                // at most one unit per row, so every row reconstructs.
                assert!(!data.contains(&p), "n={n} row={row}");
                let mut uniq = data.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), n - 1, "n={n} row={row}");
                for k in first..first + s.parity_row_width() {
                    assert_eq!(s.parity_row_of(k), row);
                }
            }
            // Parity rotates: over N consecutive rows every server takes a
            // turn.
            let mut seen: Vec<usize> = (0..n as u64).map(|r| s.parity_server_of(r)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_len_splits_to_nothing() {
        let s = Striping::new(16, 2);
        assert_eq!(s.chunks(5, 0, None).next(), None);
    }

    #[test]
    fn single_server_takes_everything() {
        let s = Striping::new(8, 1);
        assert!(s.chunks(0, 100, None).all(|c| c.server == 0));
    }
}
