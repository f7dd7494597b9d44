//! Device (global) memory: allocation tracking plus functional contents.
//!
//! The model backs a buffer with host bytes on first functional access, so
//! kernels (which execute functionally) can read and write them, while
//! capacity accounting enforces the device's real memory limit from the
//! moment of allocation — the reason the paper keeps only *hash values*
//! resident on the GPU and leaves chunk metadata in system memory. A
//! buffer that only ever stands in for a transfer's size (the codecs'
//! staging buffers: their kernels run on the host, against host memory)
//! costs the host nothing.

use std::sync::OnceLock;

use crate::error::GpuError;

/// Opaque handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub(crate) u64);

/// One allocation: its size, and its zero-initialised contents once
/// something has looked at them.
#[derive(Debug)]
struct Buffer {
    len: u64,
    bytes: OnceLock<Vec<u8>>,
}

impl Buffer {
    fn bytes(&self) -> &[u8] {
        self.bytes.get_or_init(|| vec![0u8; self.len as usize])
    }
}

#[derive(Debug)]
pub(crate) struct DeviceMemory {
    capacity: u64,
    used: u64,
    next_id: u64,
    /// The live buffers, in id order: ids only grow, so an allocation
    /// appends, and a device holds a handful of buffers at a time (a
    /// resident table, a batch's staging and result buffers), so a
    /// binary search beats hashing the id.
    buffers: Vec<(BufferId, Buffer)>,
}

impl DeviceMemory {
    pub(crate) fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            next_id: 0,
            buffers: Vec::new(),
        }
    }

    fn find(&self, id: BufferId) -> Result<usize, GpuError> {
        self.buffers
            .binary_search_by_key(&id, |(live, _)| *live)
            .map_err(|_| GpuError::InvalidBuffer(id))
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    pub(crate) fn alloc(&mut self, len: u64) -> Result<BufferId, GpuError> {
        let available = self.capacity - self.used;
        if len > available {
            return Err(GpuError::OutOfMemory {
                requested: len,
                available,
            });
        }
        let id = BufferId(self.next_id);
        self.next_id += 1;
        let buffer = Buffer {
            len,
            bytes: OnceLock::new(),
        };
        self.buffers.push((id, buffer));
        self.used += len;
        Ok(id)
    }

    pub(crate) fn free(&mut self, id: BufferId) -> Result<(), GpuError> {
        let (_, buf) = self.buffers.remove(self.find(id)?);
        self.used -= buf.len;
        Ok(())
    }

    /// Size of a live buffer, without backing it.
    pub(crate) fn len(&self, id: BufferId) -> Result<u64, GpuError> {
        Ok(self.buffers[self.find(id)?].1.len)
    }

    pub(crate) fn get(&self, id: BufferId) -> Result<&[u8], GpuError> {
        Ok(self.buffers[self.find(id)?].1.bytes())
    }

    pub(crate) fn get_mut(&mut self, id: BufferId) -> Result<&mut [u8], GpuError> {
        let at = self.find(id)?;
        let buf = &mut self.buffers[at].1;
        buf.bytes();
        Ok(buf.bytes.get_mut().expect("backed just above"))
    }

    /// True once a live buffer's bytes exist on the host.
    #[cfg(test)]
    pub(crate) fn is_backed(&self, id: BufferId) -> bool {
        self.find(id)
            .is_ok_and(|at| self.buffers[at].1.bytes.get().is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_reclaims_space() {
        let mut mem = DeviceMemory::new(100);
        let a = mem.alloc(60).unwrap();
        assert_eq!(mem.used(), 60);
        assert!(matches!(
            mem.alloc(50),
            Err(GpuError::OutOfMemory {
                requested: 50,
                available: 40
            })
        ));
        mem.free(a).unwrap();
        assert_eq!(mem.used(), 0);
        assert!(mem.alloc(100).is_ok());
    }

    #[test]
    fn buffers_are_zero_initialized_and_writable() {
        let mut mem = DeviceMemory::new(1024);
        let id = mem.alloc(16).unwrap();
        assert_eq!(mem.get(id).unwrap(), &[0u8; 16]);
        mem.get_mut(id).unwrap()[0] = 0xAB;
        assert_eq!(mem.get(id).unwrap()[0], 0xAB);
    }

    #[test]
    fn an_unbacked_buffer_counts_and_frees_like_a_backed_one() {
        let mut mem = DeviceMemory::new(100);
        let a = mem.alloc(60).unwrap();
        assert!(!mem.is_backed(a));
        // Capacity is charged at allocation, whether or not bytes exist.
        assert_eq!((mem.used(), mem.len(a)), (60, Ok(60)));
        assert!(matches!(
            mem.alloc(41),
            Err(GpuError::OutOfMemory {
                requested: 41,
                available: 40
            })
        ));
        assert!(
            !mem.is_backed(a),
            "neither `len` nor a failed alloc backs it"
        );
        // First access, through either view, reads zeros of the full size.
        let b = mem.alloc(40).unwrap();
        assert_eq!(mem.get(a).unwrap(), &[0u8; 60]);
        assert_eq!(mem.get_mut(b).unwrap(), &mut [0u8; 40]);
        assert!(mem.is_backed(a) && mem.is_backed(b));
        mem.free(a).unwrap();
        assert_eq!(mem.used(), 40);
        assert_eq!(mem.len(a), Err(GpuError::InvalidBuffer(a)));
        // Never touched, still returned in full.
        let c = mem.alloc(60).unwrap();
        mem.free(c).unwrap();
        assert_eq!(mem.used(), 40);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut mem = DeviceMemory::new(1024);
        let id = mem.alloc(8).unwrap();
        mem.free(id).unwrap();
        assert_eq!(mem.free(id), Err(GpuError::InvalidBuffer(id)));
        assert!(mem.get(id).is_err());
    }

    #[test]
    fn distinct_ids_for_distinct_allocations() {
        let mut mem = DeviceMemory::new(1024);
        let a = mem.alloc(8).unwrap();
        let b = mem.alloc(8).unwrap();
        assert_ne!(a, b);
        assert_eq!(mem.capacity(), 1024);
    }
}
