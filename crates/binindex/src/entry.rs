//! Index entries: where a deduplicated chunk lives.

use std::fmt;

/// The location of a stored (unique) chunk on the storage device.
///
/// This is the per-entry metadata the paper budgets 12 bytes for (32-byte
/// index entries minus the 20-byte SHA-1). On the GPU path it stays in
/// *host* memory; only digests go to the device. Compressed chunks are
/// variable-sized and packed into pages, so the location is a byte address
/// into the destage log plus the stored (post-compression) length.
///
/// ```
/// use dr_binindex::ChunkRef;
/// let r = ChunkRef::new(8192 + 100, 2048);
/// assert_eq!(r.addr(), 8292);
/// assert_eq!(r.stored_len(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkRef {
    addr: u64,
    stored_len: u32,
}

impl ChunkRef {
    /// Size of the serialized metadata, matching the paper's budget.
    pub const BYTES: usize = 12;

    /// A chunk stored at byte address `addr` of the destage log, occupying
    /// `stored_len` bytes (post-compression size).
    pub fn new(addr: u64, stored_len: u32) -> Self {
        ChunkRef { addr, stored_len }
    }

    /// Byte address of the chunk within the destage log.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Stored (compressed) size in bytes.
    pub fn stored_len(&self) -> u32 {
        self.stored_len
    }
}

impl fmt::Display for ChunkRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr {} ({} bytes)", self.addr, self.stored_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = ChunkRef::new(123, 2048);
        assert_eq!(r.addr(), 123);
        assert_eq!(r.stored_len(), 2048);
        assert_eq!(r.to_string(), "addr 123 (2048 bytes)");
    }

    #[test]
    fn metadata_budget_matches_paper() {
        // 20-byte SHA-1 + 12-byte metadata = the paper's 32-byte entry.
        assert_eq!(ChunkRef::BYTES + 20, 32);
    }
}
